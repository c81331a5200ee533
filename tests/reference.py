"""Reference implementations that the tests check the package against.

Most are the package's earlier per-value loops, kept verbatim: the draw,
column sum, hex parser and secret framing that `field`, `formats` and
`protocol` now run as C-level loops. Each fast kernel must return exactly
what its reference returns, seeded draws included. share_bytes is the
share writer that built a whole file at once, where formats.share_blocks
streams it.

FunctionalSpace and access_oracle are the dense secrecy oracle, also kept
verbatim: every held value as one row over all coordinates of the dealer's
and the refreshes' randomness, decided by one elimination. The package
decides the same question network by network (AdversaryKnowledge).

deal, refresh and reconstruct are the eager vault operations, kept
verbatim: each holds every node's column at once, where the package holds
one network's columns and one share at a time. Their column sums run on
weighted_column_sum below. refresh evaluates every node's delta into a
NodeRefresh record, and apply_node_refresh adds one to a share, where the
package keeps each network's coefficient columns and updates a share from
them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from multishare import formats
from multishare.errors import CorruptData, Infeasible
from multishare.field import BLOCK_WORDS, express_over_rows
from multishare.poly import (hierarchical_split_ints, lagrange_zero_weights,
                             split_ints)
from multishare.protocol import (LENGTH_HEADER, Access, NodeShare,
                                 Topology, _outer_weights, checked_shares,
                                 chunk_size, constant_functional)


def random_ints(modulus: int, count: int, rng) -> List[int]:
    """Rejection sampling over rng.randbytes, one word sliced and
    converted at a time."""
    bits = modulus.bit_length()
    width = (bits + 7) // 8
    mask = (1 << bits) - 1
    from_bytes = int.from_bytes
    out: List[int] = []
    while len(out) < count:
        block = rng.randbytes(min(count - len(out), BLOCK_WORDS) * width)
        out += [v for i in range(0, len(block), width)
                if (v := from_bytes(block[i:i + width], "little")
                    & mask) < modulus]
    return out


def weighted_column_sum(weights: Sequence[int],
                        columns: Sequence[Sequence[int]], q: int) -> List[int]:
    """Entry-wise sum of weights[k] * columns[k], mod q, one list per pass
    and each weight reduced to 0..q-1."""
    terms = [(w % q, col) for w, col in zip(weights, columns) if w % q]
    if not terms:
        return [0] * len(columns[0])
    if len(terms) == 1:
        w, col = terms[0]
        return [w * c % q for c in col]
    (w, acc), *middle, (w_last, last) = terms
    if w != 1:
        acc = [w * c for c in acc]
    for w, col in middle:
        acc = [a + w * c for a, c in zip(acc, col)]
    return [(a + w_last * c) % q for a, c in zip(acc, last)]


def parse_hex_values(texts: List[str]) -> List[int]:
    """The conversion behind formats._parse_hex's grammar check."""
    return [int(v, 16) for v in texts]


def share_bytes(share: NodeShare, modulus: int) -> bytes:
    """The share file: canonical_json(share_to_dict(share, modulus)) and a
    newline, built without a string object per value.

    "values" sorts after every header key, so canonical JSON of the header
    with an empty "values" list ends in `[]}`; the hex values are spliced
    into that list by one printf-style pass over the value tuple.
    """
    head = formats.canonical_json(
        {**formats._share_header(share, modulus), "values": []})
    n = len(share.values)
    template = (head[:-2].decode().replace("%", "%%")
                + ('"%x' + '","%x' * (n - 1) + '"' if n else "") + "]}\n")
    return (template % tuple(share.values)).encode()


def encode_secret(data: bytes, modulus: int) -> List[int]:
    """Length-prefix, then one chunk per sliced block."""
    block = chunk_size(modulus)
    if len(data) >= 2**32:
        raise ValueError("secret too large for the length header")
    framed = len(data).to_bytes(LENGTH_HEADER, "big") + data
    pad = (-len(framed)) % block
    framed += b"\x00" * pad
    return [int.from_bytes(framed[i:i + block], "big")
            for i in range(0, len(framed), block)]


def decode_secret(chunks: Sequence[int], modulus: int) -> bytes:
    """One chunk checked and converted at a time."""
    if not chunks:
        raise CorruptData("no chunks")
    block = chunk_size(modulus)
    raw = bytearray()
    for c in chunks:
        if c >> (8 * block):
            raise CorruptData("chunk value out of range")
        raw += c.to_bytes(block, "big")
    if len(raw) < LENGTH_HEADER:
        raise CorruptData("truncated chunk stream")
    length = int.from_bytes(raw[:LENGTH_HEADER], "big")
    body = raw[LENGTH_HEADER:]
    if length > len(body):
        raise CorruptData("declared length exceeds payload")
    if any(body[length:]):
        raise CorruptData("nonzero padding")
    return bytes(body[:length])


class FunctionalSpace:
    """Every emitted value as a linear functional over the dealer's
    randomness for one chunk.

    Coordinates: [secret, outer coeffs p_1..p_D, per-network inner coeffs,
    then per refresh round per-network refresh coeffs]. Shares at epoch e
    include the first e rounds' refresh contributions.
    """

    def __init__(self, topology: Topology, rounds: int = 0):
        self.topology = topology
        self.q = topology.modulus
        self.rounds = rounds
        d = topology.outer_degree
        self.dim = 1 + d
        self._inner_base: Dict[str, int] = {}
        for net in topology.networks:
            self._inner_base[net.id] = self.dim
            self.dim += net.inner_degree
        self._refresh_base: Dict[Tuple[int, str], int] = {}
        for r in range(1, rounds + 1):
            for net in topology.networks:
                self._refresh_base[(r, net.id)] = self.dim
                self.dim += net.inner_degree
        self._const = {net.id: constant_functional(topology, net.id)
                       for net in topology.networks}

    def secret_functional(self) -> List[int]:
        return [1] + [0] * (self.dim - 1)

    def share_row(self, network_id: str, node_index: int,
                  epoch: int = 0) -> List[int]:
        if epoch > self.rounds:
            raise ValueError("epoch beyond modeled refresh rounds")
        net = self.topology.spec(network_id)
        row = [0] * self.dim
        head = self._const[network_id]
        for i, v in enumerate(head):
            row[i] = v
        p = node_index % self.q
        base = self._inner_base[network_id]
        for t in range(1, net.inner_degree + 1):
            row[base + t - 1] = p
            p = p * node_index % self.q
        for r in range(1, epoch + 1):
            row = [a + b for a, b in
                   zip(row, self.delta_row(network_id, node_index, r))]
        return [v % self.q for v in row]

    def delta_row(self, network_id: str, node_index: int,
                  round_no: int) -> List[int]:
        net = self.topology.spec(network_id)
        row = [0] * self.dim
        base = self._refresh_base[(round_no, network_id)]
        p = node_index % self.q
        for t in range(1, net.inner_degree + 1):
            row[base + t - 1] = p
            p = p * node_index % self.q
        return row


def access_oracle(node_set: Iterable, topology: Topology,
                  rounds: Optional[int] = None) -> Access:
    """Exact secrecy dichotomy for a set of held shares.

    Elements are (network_id, node_index) pairs (epoch 0) or
    (network_id, node_index, epoch) triples. Returns RECONSTRUCTS iff the
    secret-extraction functional lies in the row span of the held shares.
    """
    held = []
    for item in node_set:
        if len(item) == 2:
            held.append((item[0], item[1], 0))
        else:
            held.append(tuple(item))
    max_epoch = max((e for _, _, e in held), default=0)
    if rounds is None:
        rounds = max_epoch
    space = FunctionalSpace(topology, rounds)
    rows = [space.share_row(nid, idx, ep) for nid, idx, ep in held]
    hit = express_over_rows(rows, space.secret_functional(), topology.modulus)
    return Access.RECONSTRUCTS if hit is not None else Access.NO_INFORMATION


def deal(secret_chunks: Sequence[int], topology: Topology,
         rng) -> Dict[str, List[NodeShare]]:
    """Deal every chunk with fresh randomness and return shares per network.

    Per chunk: a hierarchical split with one manager (the mother's inner
    secret P(1)) and one employee per daughter (daughter i's inner secret
    P'(i)); then a flat split of each network's inner secret over its
    nodes, node j holding the inner polynomial's value at j. All chunks
    are dealt at once, column by column: randomness is drawn as P's
    coefficient columns p_1..p_D across all chunks, then, network by
    network in topology order, that network's inner coefficient columns;
    every coefficient is uniform over 0..q-1.
    """
    q = topology.modulus
    if secret_chunks and not (0 <= min(secret_chunks)
                              and max(secret_chunks) < q):
        raise ValueError("chunk out of range for the topology modulus")
    mother, inner_secrets = hierarchical_split_ints(
        secret_chunks, topology.outer_degree, 1, len(topology.networks) - 1,
        q, rng)
    inner_secrets.insert(topology.mother_index, mother.pop())
    out: Dict[str, List[NodeShare]] = {}
    for net in topology.networks:
        # Popped, so each inner-secret column is freed once dealt.
        columns = split_ints(inner_secrets.pop(0), net.inner_degree,
                             net.node_count, q, rng)
        out[net.id] = [NodeShare(net.id, j, 0, tuple(col))
                       for j, col in enumerate(columns, start=1)]
    return out


def reconstruct(shares: Dict[str, Sequence[NodeShare]],
                topology: Topology) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    Needs an inner quorum on the mother plus inner quorums on at least
    outer_degree daughters; each network's lowest-index quorum recovers
    its inner secret by interpolation at zero. Checks the shares with
    checked_shares first. No share is ignored: every share beyond a
    network's quorum, and every daughter beyond the outer degree, must
    agree with the polynomial the others determine, else CorruptData
    names the network and node. Errors are detected, not corrected.
    """
    q = topology.modulus
    for _ in checked_shares((s for lst in shares.values() for s in lst),
                            topology):
        pass
    recovered: Dict[str, List[int]] = {}
    quorum_report = []
    for net in topology.networks:
        have = list(shares.get(net.id, []))
        need = net.inner_degree + 1
        quorum_report.append((net.id, min(len(have), need), need))
        if len(have) < need:
            continue
        have.sort(key=lambda s: s.node_index)
        quorum, extra = have[:need], have[need:]
        xs = [s.node_index for s in quorum]
        columns = [s.values for s in quorum]
        weights = lagrange_zero_weights(xs, q)
        recovered[net.id] = weighted_column_sum(weights, columns, q)
        for s in extra:
            # P(x) is the value at zero of X -> P(X + x).
            shifted = lagrange_zero_weights([a - s.node_index for a in xs], q)
            if weighted_column_sum(shifted, columns, q) != list(s.values):
                raise CorruptData(
                    f"network {net.id}: the share of node {s.node_index} "
                    f"disagrees with nodes {xs}")
    mother_id = topology.mother.id
    avail_daughters = [n.id for n in topology.daughters()
                       if n.id in recovered]
    missing = []
    if mother_id not in recovered:
        missing.append("mother quorum not met")
    if len(avail_daughters) < topology.outer_degree:
        missing.append(
            f"daughter quorums {len(avail_daughters)}/{topology.outer_degree} met")
    if missing:
        detail = "; ".join(missing) + " (" + ", ".join(
            f"{nid}: {got}/{need}" for nid, got, need in quorum_report) + ")"
        raise Infeasible(detail)
    chosen = [mother_id, *avail_daughters[:topology.outer_degree]]
    rows = [constant_functional(topology, nid) for nid in chosen]
    weights = _outer_weights(topology, rows)
    if weights is None:
        raise Infeasible("outer constraint matrix is singular")
    columns = [recovered[nid] for nid in chosen]
    for nid in avail_daughters[topology.outer_degree:]:
        # The inner secret this daughter must hold, over the chosen ones.
        over = express_over_rows(rows, constant_functional(topology, nid), q)
        if (over is not None
                and weighted_column_sum(over, columns, q) != recovered[nid]):
            raise CorruptData(
                f"network {nid}: its inner secret disagrees with networks "
                f"{chosen}")
    return weighted_column_sum(weights, columns, q)


@dataclass(frozen=True)
class NodeRefresh:
    """Per-node refresh deltas, one value per chunk."""
    network_id: str
    node_index: int
    from_epoch: int
    values: Tuple[int, ...]


def refresh(topology: Topology, chunk_count: int, epoch: int,
            rng) -> Dict[str, List[NodeRefresh]]:
    """Fresh zero-constant inner polynomials, one per network per chunk;
    the outer polynomial is untouched. Randomness is drawn network by
    network in topology order, each network's coefficient columns across
    all chunks in turn, each uniform."""
    q = topology.modulus
    zeros = [0] * chunk_count
    out: Dict[str, List[NodeRefresh]] = {}
    for net in topology.networks:
        columns = split_ints(zeros, net.inner_degree, net.node_count, q, rng)
        out[net.id] = [NodeRefresh(net.id, j, epoch, tuple(col))
                       for j, col in enumerate(columns, start=1)]
    return out


def apply_node_refresh(share: NodeShare, delta: NodeRefresh,
                       modulus: int) -> NodeShare:
    if (share.network_id, share.node_index) != (delta.network_id,
                                                delta.node_index):
        raise ValueError("delta does not match share position")
    if share.epoch != delta.from_epoch:
        raise ValueError("delta epoch does not match share")
    if len(share.values) != len(delta.values):
        raise ValueError("chunk count mismatch")
    return replace(share, epoch=share.epoch + 1,
                   values=tuple(weighted_column_sum(
                       (1, 1), (share.values, delta.values), modulus)))
