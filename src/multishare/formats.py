"""File formats: JSON schemas for topologies, shares, manifests and
scenarios, plus canonical serialization helpers.

Field elements are lowercase big-endian hex; in memory they are plain
ints, and the modulus comes from the topology. All JSON emitted through
canonical_json is byte-stable (sorted keys, fixed separators).
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List

from .errors import CorruptData
from .protocol import LinkKind, NetworkSpec, NodeShare, Topology

FORMAT_VERSION = 1

# User-supplied moduli below this are rejected at the file boundary;
# in-process callers may still build small-field topologies for analysis.
MIN_USER_MODULUS = 257

# _parse_hex checks this many values per joined block, so the check's
# scratch copy stays small on a share of many chunks.
HEX_CHECK_BLOCK = 4096
# A "0" that starts a joined value and is not the whole value.
_LEADING_ZERO = re.compile(rb",0[^,]")


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def topology_to_dict(topology: Topology) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "modulus": format(topology.modulus, "x"),
        "outer_degree": topology.outer_degree,
        "networks": [
            {
                "id": net.id,
                "node_count": net.node_count,
                "inner_degree": net.inner_degree,
                "link": net.link.value,
                "mother": i == topology.mother_index,
            }
            for i, net in enumerate(topology.networks)
        ],
    }


def _json_int(data: dict, key: str) -> int:
    """data[key], which must be a JSON integer (not a bool, float or
    string)."""
    value = data[key]
    if type(value) is not int:
        raise CorruptData(f"{key} must be an integer, not {value!r}")
    return value


def _parse_hex(texts: List[str]) -> List[int]:
    """The values of `texts`, each of which must be lowercase hex with no
    leading zero ("0" for zero): no sign, prefix, space, underscore,
    upper case or non-ASCII digit, which int(text, 16) would accept. A
    block of values is joined once, so the check costs two C-level scans
    of it rather than a regular expression match per value."""
    for i in range(0, len(texts), HEX_CHECK_BLOCK):
        joined = ("," + ",".join(texts[i:i + HEX_CHECK_BLOCK])).encode()
        if (joined.translate(None, b"0123456789abcdef,")
                or _LEADING_ZERO.search(joined)):
            raise CorruptData("a hex value is not lowercase hex without "
                              "leading zeros")
    return [int(v, 16) for v in texts]


def topology_from_dict(data: dict, min_modulus: int = 0) -> Topology:
    try:
        if not isinstance(data, dict):
            raise CorruptData("a topology is a JSON object")
        version = _json_int(data, "format_version")
        if version != FORMAT_VERSION:
            raise CorruptData(f"unsupported format_version {version}")
        [modulus] = _parse_hex([data["modulus"]])
        nets = data["networks"]
        if not (isinstance(nets, list)
                and all(isinstance(n, dict) for n in nets)):
            raise CorruptData("networks must be a list of JSON objects")
        if not all(type(n["mother"]) is bool for n in nets):
            raise CorruptData("mother must be true or false")
        mothers = [i for i, n in enumerate(nets) if n["mother"]]
        if len(mothers) != 1:
            raise CorruptData("exactly one network must be the mother")
        if not all(isinstance(n["id"], str) for n in nets):
            raise CorruptData("network ids must be strings")
        specs = [NetworkSpec(id=n["id"],
                             node_count=_json_int(n, "node_count"),
                             inner_degree=_json_int(n, "inner_degree"),
                             link=LinkKind(n["link"]))
                 for n in nets]
        outer = _json_int(data, "outer_degree")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptData(f"malformed topology file: {exc}") from exc
    if modulus < min_modulus:
        raise CorruptData(f"modulus must be at least {min_modulus}")
    try:
        return Topology(modulus=modulus, networks=tuple(specs),
                        mother_index=mothers[0], outer_degree=outer)
    except ValueError as exc:
        raise CorruptData(f"invalid topology: {exc}") from exc


def topology_digest(topology: Topology) -> str:
    return hashlib.sha256(
        canonical_json(topology_to_dict(topology))).hexdigest()


def share_to_dict(share: NodeShare, modulus: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "modulus": format(modulus, "x"),
        "network_id": share.network_id,
        "node_index": share.node_index,
        "epoch": share.epoch,
        "chunk_count": len(share.values),
        "values": [f"{v:x}" for v in share.values],
    }


def share_from_dict(data: dict, modulus: int) -> NodeShare:
    """Parse a share file dealt under a topology with this modulus."""
    try:
        if not isinstance(data, dict):
            raise CorruptData("a share file holds a JSON object")
        version = _json_int(data, "format_version")
        if version != FORMAT_VERSION:
            raise CorruptData(f"unsupported format_version {version}")
        if _parse_hex([data["modulus"]]) != [modulus]:
            raise CorruptData("share modulus does not match the topology")
        network_id = data["network_id"]
        if not isinstance(network_id, str):
            raise CorruptData("network_id must be a string")
        if not isinstance(data["values"], list):
            raise CorruptData("values must be a list")
        values = _parse_hex(data["values"])
        if values and max(values) >= modulus:
            raise CorruptData("a value is out of range for the modulus")
        if len(values) != _json_int(data, "chunk_count"):
            raise CorruptData("chunk_count does not match values")
        return NodeShare(network_id=network_id,
                         node_index=_json_int(data, "node_index"),
                         epoch=_json_int(data, "epoch"),
                         values=tuple(values))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptData(f"malformed share file: {exc}") from exc


def manifest_dict(topology: Topology, chunk_count: int, epoch: int,
                  stale: List[str]) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "chunk_count": chunk_count,
        "epoch": epoch,
        "topology_digest": topology_digest(topology),
        "stale": sorted(stale),
    }


def shares_by_network(shares: List[NodeShare]) -> Dict[str, List[NodeShare]]:
    out: Dict[str, List[NodeShare]] = {}
    for s in shares:
        out.setdefault(s.network_id, []).append(s)
    return out
