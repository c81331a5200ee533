"""File formats: JSON schemas for topologies, shares, manifests and
scenarios, plus canonical serialization helpers.

Field elements are lowercase big-endian hex; in memory they are ints, a
share's values in field Blocks, and the modulus comes from the topology.
All JSON emitted through canonical_json is byte-stable (sorted keys,
fixed separators). A share file is written (share_file_block) and read
(read_share) block by block; its values are written at a fixed width
(share format v2), and files of share format v1, without leading zeros,
are still read.
"""

from __future__ import annotations

import io
import json
import os
import re
from binascii import Error as BinasciiError
from typing import List, Tuple

from .errors import CorruptData
from .field import (BLOCK_WORDS, OUT_OF_RANGE, Block, as_block, from_hex,
                    to_hex, word_bytes, zeros)
from .protocol import LinkKind, NetworkSpec, NodeShare, Topology
from .vault import open_regular

FORMAT_VERSION = 1
# The version of the share files the tools write. Readers also take v1
# share files, whose values are hex without leading zeros.
SHARE_FORMAT_VERSION = 2

# Topology files with a modulus below this are refused; in-process
# callers may still build small-field topologies for analysis.
MIN_USER_MODULUS = 257

# A field element's text: lowercase hex without leading zeros.
_HEX = re.compile("0|[1-9a-f][0-9a-f]*")
# What a network id may not hold, since a share file is named after it.
_BAD_ID = re.compile("[/\0\ud800-\udfff]")
# A node's name in a manifest's stale list: network id, slash, index.
_NODE_NAME = re.compile("[^/\0\ud800-\udfff]*/[1-9][0-9]*")
# The last key of a share file as the tools write it, and the most bytes
# read to find it. A share file is named after its network id, so the
# header of any file the tools can write is far shorter.
_VALUES_KEY = b'"values":'
HEAD_BYTES = 1 << 16

# Why a share file is refused.
NOT_HEX = "a hex value is not lowercase hex without leading zeros"
NOT_FIXED_HEX = "a value is not lowercase hex of {} digits"
COUNT_MISMATCH = "chunk_count does not match values"
NOT_CANONICAL = ("not in the layout the tools write (canonical JSON and a "
                 "newline)")
ENDS_EARLY = "the file ends early"


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


def _parse_hex(text: str) -> int:
    """The value of `text`, lowercase hex with no leading zero ("0" for
    zero): no sign, prefix, space, underscore, upper case or non-ASCII
    digit, which int(text, 16) would accept. CorruptData (NOT_HEX) for any
    other text; TypeError when `text` is not a string."""
    if not _HEX.fullmatch(text):
        raise CorruptData(NOT_HEX)
    return int(text, 16)


def topology_from_dict(data: dict) -> Topology:
    try:
        if not isinstance(data, dict):
            raise CorruptData("a topology is a JSON object")
        version = _json_int(data, "format_version")
        if version != FORMAT_VERSION:
            raise CorruptData(f"unsupported format_version {version}")
        modulus = _parse_hex(data["modulus"])
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
        for n in nets:
            if _BAD_ID.search(n["id"]):
                raise CorruptData(f"network id {n['id']!r} contains / or "
                                  f"NUL, or a lone surrogate")
        specs = [NetworkSpec(id=n["id"],
                             node_count=_json_int(n, "node_count"),
                             inner_degree=_json_int(n, "inner_degree"),
                             link=LinkKind(n["link"]))
                 for n in nets]
        outer = _json_int(data, "outer_degree")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptData(f"malformed topology file: {exc}") from exc
    if modulus < MIN_USER_MODULUS:
        raise CorruptData(f"modulus must be at least {MIN_USER_MODULUS}")
    try:
        return Topology(modulus=modulus, networks=tuple(specs),
                        mother_index=mothers[0], outer_degree=outer)
    except ValueError as exc:
        raise CorruptData(f"invalid topology: {exc}") from exc


def topology_digest(topology: Topology) -> str:
    """The SHA-256 hex digest of the topology's canonical JSON.

    Hashed by the interpreter's built-in SHA-256 (_sha2 from Python 3.12,
    _sha256 before), imported here: hashlib imports _hashlib, which maps
    OpenSSL's libcrypto, about 3.5 MiB of RSS for a digest of a few
    hundred bytes. hashlib is the fallback where neither is built."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(canonical_json(topology_to_dict(topology))).hexdigest()


def _share_header(share: NodeShare, modulus: int,
                  chunk_count: int) -> dict:
    """Every field of a share file but its values."""
    return {
        "format_version": SHARE_FORMAT_VERSION,
        "modulus": format(modulus, "x"),
        "network_id": share.network_id,
        "node_index": share.node_index,
        "epoch": share.epoch,
        "chunk_count": chunk_count,
    }


def share_to_dict(share: NodeShare, modulus: int) -> dict:
    """The share file's document, as share_file_block writes it: each
    value as the hex of its word_bytes-byte big-endian form, leading
    zeros included."""
    return json.loads(share_file_block(share, modulus, 0, len(share.values)))


def share_file_block(share: NodeShare, modulus: int, start: int,
                     chunk_count: int) -> bytes:
    """The bytes of the share file of chunk_count values that hold
    share.values, as values start.. of that file: its header first when
    start is 0, and its closing `]}` and newline after the last value.
    Written one after another, the blocks of a share make its file, the
    canonical JSON of its document and a newline; with every value at
    once, one block is the whole file.

    "values" sorts after every header key, so canonical JSON of the header
    with an empty "values" list ends in `[]}`: the header is that, up to
    the list's `[`. The values, a Block (as_block), are the text that
    field.to_hex makes with `","` before each, and no object per value:
    from the first one's `,"`, or its `"` after the header's `[`."""
    values = share.values
    parts = []
    if start == 0:
        parts.append(canonical_json(
            {**_share_header(share, modulus, chunk_count),
             "values": []})[:-2])
    if values:
        text = to_hex(as_block(values, modulus), b'","')
        parts += [memoryview(text)[1 if start else 2:], b'"']
    if start + len(values) == chunk_count:
        parts.append(b"]}\n")
    return b"".join(parts)


def _header_from_dict(data, modulus: int) -> Tuple[NodeShare, int, int]:
    """The share of no values whose header fields (every field of a share
    file but its values) `data` holds, its chunk_count and its
    format_version (1 or 2)."""
    try:
        version = _json_int(data, "format_version")
        if version not in (1, SHARE_FORMAT_VERSION):
            raise CorruptData(f"unsupported format_version {version}")
        if _parse_hex(data["modulus"]) != modulus:
            raise CorruptData("share modulus does not match the topology")
        network_id = data["network_id"]
        if not isinstance(network_id, str):
            raise CorruptData("network_id must be a string")
        count = _json_int(data, "chunk_count")
        if count < 1:  # even an empty secret is one chunk
            raise CorruptData(COUNT_MISMATCH)
        return NodeShare(network_id=network_id,
                         node_index=_json_int(data, "node_index"),
                         epoch=_json_int(data, "epoch"),
                         values=()), count, version
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptData(f"malformed share file: {exc}") from exc


def share_from_dict(data: dict, modulus: int) -> NodeShare:
    """The share whose document is `data`, dealt under a topology with
    this modulus: its canonical JSON and a newline, read as read_share
    reads a share file, with all its values in one pass of the reader of
    its version. CorruptData unless those bytes are a valid share file."""
    text = canonical_json(data) + b"\n"
    header, count, offset, version = _header(text, modulus)
    # No path to reopen: of the identity, a reader checks only the size.
    reader = (_ShareValuesV1 if version == 1 else _ShareValuesV2)(
        None, modulus, count, offset, (None, None, len(text), None))
    values, _ = reader._read(io.BytesIO(text[offset:]), count, True)
    return header._replace(values=values)


class UnreadableShare(CorruptData):
    """A share file that cannot be read, or is not a valid share file."""

    def __init__(self, path, detail):
        super().__init__(f"cannot read share {path}: {detail}")


def read_share(path, modulus: int) -> NodeShare:
    """The share file at `path`, dealt under a topology with this modulus,
    with its values as ShareValues: its header is read now, and its values
    block by block, in order, as they are asked for, by the reader of the
    file's version. The file must be in the layout the tools write: the
    canonical JSON of the share and a newline, its values at the fixed
    width of share_file_block in a v2 file and without leading zeros in a
    v1 file. UnreadableShare when it cannot be read, is not a regular
    file (open_regular) or is not in that layout, or when its header is
    not that of a valid share file; a v2 file also when its size is not
    the one its chunk_count gives."""
    try:
        with open_regular(path) as file:
            head = file.read(HEAD_BYTES)
            identity = _identity(file)
        header, count, offset, version = _header(head, modulus)
        reader = _ShareValuesV1 if version == 1 else _ShareValuesV2
        values = reader(path, modulus, count, offset, identity)
    except (OSError, CorruptData) as exc:
        raise UnreadableShare(path, exc) from exc
    return header._replace(values=values)


def _identity(file) -> tuple:
    """What tells the open `file` from a file put in its place, or the
    same file rewritten: its device, inode, size and modification time."""
    info = os.fstat(file.fileno())
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns


def _header(head: bytes, modulus: int) -> Tuple[NodeShare, int, int, int]:
    """The header of a share file that starts with the bytes `head`: the
    share without its values, its chunk_count, the offset of its first
    value and its format_version. CorruptData unless it is in the layout
    the tools write and its fields are valid.

    The header ends at the first `"values":`, the last key: canonical
    JSON escapes every quote inside a string, so no string holds those
    bytes."""
    at = head.find(_VALUES_KEY)
    if at < 0:
        raise CorruptData(NOT_CANONICAL)
    end = at + len(_VALUES_KEY)
    text = head[:end] + b"[]}"
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        raise CorruptData(NOT_CANONICAL) from None
    if canonical_json(doc) != text:
        raise CorruptData(NOT_CANONICAL)
    header, count, version = _header_from_dict(doc, modulus)
    if head[end:end + 1] != b"[":
        raise CorruptData("values must be a list")
    return header, count, end + 1, version


class ShareValues:
    """The values of one share file, in order: each slice asked for must
    start where the last one ended, and is read from the file then; only
    the slice, a Block, is held. A subclass per share format version
    reads it in one pass, by _read(file, n, last): the next n values from
    `file`, which is at the first, and the bytes they take, then `","`
    or, after the `last`, `]}` and a newline; CorruptData, with the
    reason, unless the bytes hold them so.

    UnreadableShare, from a slice, when the file cannot be read or is not
    a valid share file in the layout the tools write; and when it is no
    longer the file whose header was read: each read opens the
    file again, and its device, inode, size and modification time must be
    those it had then."""

    def __init__(self, path, modulus: int, count: int, offset: int,
                 identity: tuple):
        self.path, self.modulus, self.count = path, modulus, count
        self.offset, self.identity = offset, identity  # of the next value
        self.done = 0  # values read

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: slice) -> Block:
        start, stop, step = index.indices(self.count)
        if start != self.done or step != 1:
            raise ValueError("a share file's values are read in order")
        if stop <= start:
            return zeros(0, self.modulus)
        try:
            with open_regular(self.path) as file:
                if _identity(file) != self.identity:
                    raise CorruptData("changed while it was read")
                file.seek(self.offset)
                values, used = self._read(file, stop - start,
                                          stop == self.count)
        except (OSError, CorruptData) as exc:
            raise UnreadableShare(self.path, exc) from exc
        self.offset += used
        self.done = stop
        return values

    def read_rest(self) -> None:
        """Read the values not read yet, and drop them: the file's last
        chance to be found unreadable."""
        for i in range(self.done, self.count, BLOCK_WORDS):
            self[i:i + BLOCK_WORDS]


class _ShareValuesV1(ShareValues):
    """The values of a v1 share file, hex without leading zeros: a block
    of values is read from the end of the last one, at most the widest
    values' worth, and walked value by value, each checked and converted
    in turn. A chunk_count above the file's size in bytes, more values
    than the file can hold, is refused when it is opened; len() of the
    values could fail on it."""

    def __init__(self, *args):
        super().__init__(*args)
        # The most bytes of a value: its hex, two quotes and a comma.
        self.width = len(format(self.modulus - 1, "x")) + 3
        # Each value takes more than one byte of the file.
        if self.count > self.identity[2]:
            raise CorruptData(COUNT_MISMATCH)

    def _read(self, file, n: int, last: bool) -> Tuple[Block, int]:
        # More bytes than n values and what follows them can take, so
        # that bytes past the last value, or a value too long, show.
        asked = n * self.width + 4
        data = file.read(asked)
        if not data.startswith(b'"'):
            raise CorruptData(NOT_CANONICAL if data else ENDS_EARLY)
        values = []
        at = 1
        for i in range(n):
            close = data.find(b'"', at)
            if close < 0 and len(data) < asked:
                raise CorruptData(ENDS_EARLY)
            # A value that runs past the bytes read has too many digits.
            value = _parse_hex((data[at:close] if close >= 0
                                else data[at:]).decode("latin-1"))
            if close < 0 or value >= self.modulus:
                raise CorruptData(OUT_OF_RANGE)
            values.append(value)
            sep, other = b'","', b'"]}\n'
            if last and i == n - 1:
                sep, other = other, sep
            if not data.startswith(sep, close):
                if data.startswith(other, close):
                    raise CorruptData(COUNT_MISMATCH)
                raise CorruptData(ENDS_EARLY if sep.startswith(data[close:])
                                  else NOT_CANONICAL)
            at = close + len(sep)
        if last and at != len(data):
            raise CorruptData(NOT_CANONICAL)
        del data
        # Up to the next value's opening quote, or past the last.
        return as_block(values, self.modulus), at if last else at - 1


class _ShareValuesV2(ShareValues):
    """The values of a v2 share file, each `"`, 2w lowercase hex digits
    (w = word_bytes) and `"`, with a comma between each two: value i
    starts i strides after the first, so the file's size is checked
    against its chunk_count when it is opened, and a block is read by its
    byte count alone."""

    def __init__(self, *args):
        super().__init__(*args)
        self.width = word_bytes(self.modulus)
        self.stride = 2 * self.width + 3  # a value, its quotes and a comma
        size = self.offset + self.count * self.stride + 2
        if self.identity[2] != size:
            raise CorruptData(
                f"the file has {self.identity[2]} bytes, not the {size} "
                f"that its chunk_count of {self.count} values of "
                f"{2 * self.width} hex digits gives")

    def _read(self, file, n: int, last: bool) -> Tuple[Block, int]:
        stride, digits = self.stride, 2 * self.width
        end = n * stride  # past the comma, or the `]`, after the last
        data = bytearray(end + 2 if last else end)
        del data[file.readinto(data):]
        # The quotes around each value, the comma between each two, and
        # what follows the last, by strided slices.
        if (data[:end:stride] != b'"' * n
                or data[stride - 2:end:stride] != b'"' * n
                or data[stride - 1:end - stride:stride] != b"," * (n - 1)
                or data[end - 1:] != (b"]}\n" if last else b",")):
            raise CorruptData(NOT_CANONICAL)
        # The digits, each value's after the `","` that from_hex skips.
        del data[end - 2:]
        try:
            values = from_hex(data, n, self.modulus)
        except BinasciiError:
            raise CorruptData(NOT_FIXED_HEX.format(digits)) from None
        except ValueError:
            raise CorruptData(OUT_OF_RANGE) from None
        return values, end


def manifest_dict(digest: str, chunk_count: int, epoch: int,
                  stale: List[str]) -> dict:
    """The manifest of a vault dealt under the topology whose
    topology_digest is `digest`."""
    return {
        "format_version": FORMAT_VERSION,
        "chunk_count": chunk_count,
        "epoch": epoch,
        "topology_digest": digest,
        "stale": sorted(stale),
    }


def manifest_from_dict(data) -> Tuple[str, int, int, List[str]]:
    """The topology_digest, epoch, chunk_count and stale names of a
    manifest, the digest as written; CorruptData unless it is a JSON
    object with every field manifest_dict writes: the epoch a JSON
    integer, format_version the JSON integer 1, chunk_count a JSON integer
    of at least 1, and stale a list of `network/node` names."""
    try:
        digest, epoch = data["topology_digest"], _json_int(data, "epoch")
        version = _json_int(data, "format_version")
        if version != FORMAT_VERSION:
            raise CorruptData(f"unsupported format_version {version}")
        count = _json_int(data, "chunk_count")
        if count < 1:
            raise CorruptData("chunk_count must be at least 1")
        stale = data["stale"]
        if not (isinstance(stale, list) and all(
                isinstance(name, str) and _NODE_NAME.fullmatch(name)
                for name in stale)):
            raise CorruptData("stale must be a list of network/node names")
        return digest, epoch, count, stale
    except (KeyError, TypeError) as exc:
        raise CorruptData(str(exc)) from exc
