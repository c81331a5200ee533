"""Reference implementations that the tests check the package against.

Most are the package's earlier per-value loops, kept verbatim: the draw,
column sum, hex parser and secret framing that `field`, `formats` and
`protocol` now run as C-level loops over packed blocks (field.Block);
words_to_ints and ints_to_words are the per-value forms of the block
conversions field.from_words and field.to_words. Each fast kernel must
return exactly what its reference returns, seeded draws included.
share_bytes and read_share_bytes write and read a v2 share file a value
at a time, where
formats.share_file_block and formats.read_share convert a block of values
by C-level passes; share_file_block_v1 is the writer of v1 share files,
kept to make the v1 vaults that readers must still take.

FunctionalSpace and access_oracle are the dense secrecy oracle, also kept
verbatim: every held value as one row over all coordinates of the dealer's
and the refreshes' randomness, decided by one elimination. The package
decides the same question network by network (AdversaryKnowledge).

deal and refresh share as the protocol is specified, one chunk and one
polynomial at a time: the same random_ints draws as the vault commands,
column by column within each block of BLOCK_WORDS chunks, then each
chunk's outer polynomial P evaluated by horner at
P(1) for the mother and, through derivative_coeffs, at P'(a) for daughter
a, and each inner polynomial at node j. They call nothing of the
package's sharing (no multishare.field function, nor protocol's draws or
polynomial rows), so the column kernel that the package deals and
refreshes with is checked against code that shares none of its logic. reconstruct is the eager
vault operation, kept verbatim: it holds every node's column at once,
where the package holds one network's shares at a time. refresh
evaluates every node's delta into a NodeRefresh record, and
apply_node_refresh adds one to a share, where the package keeps each
network's coefficient columns and updates a share from them in one pass.
chained makes of deal's mapping of network id to shares the one stream of
shares that protocol.reconstruct takes.

interpolate_zero and birkhoff_coeffs are the sharing tests' polynomial
oracles, built on the package's own solvers: interpolate_zero recovers
P(0) from points through protocol.lagrange_zero_weights, and
birkhoff_coeffs every coefficient from (point, order, value)
constraints, by one field.express_over_rows per coefficient over
protocol.birkhoff_matrix_row rows. tests/test_protocol.py checks both on
hand examples and exhaustively over small fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from multishare import formats
from multishare.errors import CorruptData, Infeasible
from multishare.field import BLOCK_WORDS, express_over_rows, word_bytes
from multishare.protocol import (LENGTH_HEADER, Access, NetworkSpec,
                                 NodeShare, Topology, birkhoff_matrix_row,
                                 check_shares, chunk_size,
                                 constant_functional, lagrange_zero_weights)


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


def chained(shares: Dict[str, Sequence[NodeShare]]) -> List[NodeShare]:
    """The shares of a mapping of network id to that network's shares, as
    deal returns them, in one stream, network by network: what
    protocol.reconstruct takes."""
    return list(chain.from_iterable(shares.values()))


def horner(coeffs: Sequence[int], x: int, q: int) -> int:
    """Value at x of the polynomial with these coefficients, mod q."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def derivative_coeffs(coeffs: Sequence[int], q: int) -> List[int]:
    """Formal derivative: coefficient i*c_i shifted down one slot."""
    return [i * c % q for i, c in enumerate(coeffs)][1:] or [0]


def interpolate_zero(points, q: int) -> int:
    """P(0) from (x, P(x)) points, through lagrange_zero_weights."""
    weights = lagrange_zero_weights([x for x, _ in points], q)
    return sum(w * y for w, (_, y) in zip(weights, points)) % q


def birkhoff_coeffs(constraints, degree: int, q: int) -> Optional[List[int]]:
    """Coefficients a_0..a_degree of the polynomial meeting every
    (point, order, value) constraint: one express_over_rows per
    coefficient over the constraints' birkhoff_matrix_row rows. None when
    some coefficient is undetermined."""
    rows = [birkhoff_matrix_row(x, order, degree, q)
            for x, order, _ in constraints]
    coeffs = []
    for t in range(degree + 1):
        weights = express_over_rows(
            rows, [int(i == t) for i in range(degree + 1)], q)
        if weights is None:
            return None
        coeffs.append(sum(w * v for w, (_, _, v) in zip(weights, constraints))
                      % q)
    return coeffs


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


def words_to_ints(data: bytes, width: int, modulus: int) -> List[int]:
    """The big-endian words of `width` bytes in `data`, a word at a time;
    ValueError unless each is below the modulus (field.from_words)."""
    values = [int.from_bytes(data[i:i + width], "big")
              for i in range(0, len(data), width)]
    if any(v >= modulus for v in values):
        raise ValueError("a value is out of range for the modulus")
    return values


def ints_to_words(values: Sequence[int], width: int) -> bytes:
    """Each value as a big-endian word of `width` bytes, a value at a
    time; OverflowError when one does not fit (field.to_words)."""
    return b"".join(v.to_bytes(width, "big") for v in values)


def parse_hex_values(texts: List[str]) -> List[int]:
    """The conversion behind formats._parse_hex's grammar check."""
    return [int(v, 16) for v in texts]


def share_file_block_v1(share: NodeShare, modulus: int, start: int,
                        chunk_count: int) -> bytes:
    """formats.share_file_block as it wrote share files before v2: the
    same blocks, but with "format_version" 1 and each value as lowercase
    hex without leading zeros ("0" for zero), one printf-style pass over
    the block's values."""
    values = share.values
    parts = []
    if start == 0:
        parts.append(formats.canonical_json(
            {**formats._share_header(share, modulus, chunk_count),
             "format_version": 1, "values": []})[:-2])
    if values:
        template = ("," if start else "") + '"%x' + '","%x' * (
            len(values) - 1) + '"'
        parts.append((template % tuple(values)).encode())
    if start + len(values) == chunk_count:
        parts.append(b"]}\n")
    return b"".join(parts)


def share_bytes_v1(share: NodeShare, modulus: int) -> bytes:
    """The v1 share file of `share`, its values in one block."""
    return share_file_block_v1(share, modulus, 0, len(share.values))


def share_bytes(share: NodeShare, modulus: int) -> bytes:
    """The v2 share file of `share`, a value at a time: each value as
    "%0*x" at twice word_bytes digits, spliced into the canonical JSON of
    the header with an empty "values" list, which ends in `[]}`."""
    digits = 2 * word_bytes(modulus)
    head = formats.canonical_json(
        {**formats._share_header(share, modulus, len(share.values)),
         "values": []})
    texts = ['"%0*x"' % (digits, v) for v in share.values]
    return head[:-2] + ",".join(texts).encode() + b"]}\n"


def read_share_bytes(data: bytes, modulus: int) -> NodeShare:
    """The share in the v2 share file `data`, a value at a time:
    CorruptData unless `data` is the canonical JSON of a v2 share file
    and a newline, its header valid, and each value "%0*x" of a value
    below the modulus at twice word_bytes digits."""
    try:
        doc = json.loads(data)
    except ValueError:
        raise CorruptData("not JSON") from None
    if formats.canonical_json(doc) + b"\n" != data:
        raise CorruptData("not canonical")
    if not isinstance(doc, dict) or doc.get("format_version") != 2:
        raise CorruptData("not a v2 share file")
    header, count, _ = formats._header_from_dict(doc, modulus)
    texts = doc.get("values")
    if not isinstance(texts, list) or len(texts) != count:
        raise CorruptData("values")
    digits = 2 * word_bytes(modulus)
    values = []
    for text in texts:
        if not (isinstance(text, str) and len(text) == digits
                and all(c in "0123456789abcdef" for c in text)):
            raise CorruptData(f"value {text!r}")
        value = int(text, 16)
        if value >= modulus:
            raise CorruptData(f"value {text!r} out of range")
        values.append(value)
    return header._replace(values=tuple(values))


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


def moment_reconstructs(q: int, outer_degree: int,
                        points: Sequence[int]) -> bool:
    """Whether the mother with the daughters at `points` (distinct, in
    1..q-1) determines the secret, by the moment criterion rather than by
    elimination. P(0) = P(1) - integral of P' over [0, 1], and the points
    fix P', of degree D - 1 (D = outer_degree), up to prod(x - a) * r(x)
    for any r of degree below D - |points|. So the secret is determined
    iff the integral of prod(x - a) * x^j over [0, 1] is 0 mod q for
    every j < D - |points|; always, with D points or more. Each integral
    is an exact Fraction whose denominator divides lcm(1..D), a unit
    mod q when D < q."""
    coeffs = [1]  # of prod(x - a), constant first
    for a in points:
        coeffs = [low - a * c for low, c in zip([0, *coeffs], [*coeffs, 0])]
    return all(
        sum(Fraction(c, k + j + 1) for k, c in enumerate(coeffs))
        .numerator % q == 0
        for j in range(outer_degree - len(points)))


def deal(secret_chunks: Sequence[int], topology: Topology,
         rng) -> Dict[str, List[NodeShare]]:
    """Deal every chunk with fresh randomness and return shares per network.

    Randomness is drawn as the vault commands draw it, one protocol.deal
    call per BLOCK_WORDS chunks: per block, the outer polynomials'
    X^1..X^D coefficients, one column across the block's chunks per
    power, then, network by network in topology order, that network's
    inner columns. Then chunk by chunk:
    P(1) is the mother's inner secret, P'(a) that of the a-th daughter in
    topology order, and node j holds its inner polynomial's value at j.
    """
    q = topology.modulus
    if secret_chunks and not (0 <= min(secret_chunks)
                              and max(secret_chunks) < q):
        raise ValueError("chunk out of range for the topology modulus")
    values = {net.id: [[] for _ in range(net.node_count)]
              for net in topology.networks}
    for start in range(0, len(secret_chunks), BLOCK_WORDS):
        block = secret_chunks[start:start + BLOCK_WORDS]
        outer = [random_ints(q, len(block), rng)
                 for _ in range(topology.outer_degree)]
        polys = [[s, *(col[c] for col in outer)]
                 for c, s in enumerate(block)]
        daughter = 0
        for i, net in enumerate(topology.networks):
            if i == topology.mother_index:
                secrets = [horner(p, 1, q) for p in polys]
            else:
                daughter += 1
                secrets = [horner(derivative_coeffs(p, q), daughter, q)
                           for p in polys]
            for j, node in _inner_values(secrets, net, q, rng):
                values[net.id][j - 1] += node
    return {nid: [NodeShare(nid, j, 0, tuple(node))
                  for j, node in enumerate(nodes, start=1)]
            for nid, nodes in values.items()}


def _inner_values(secrets: Sequence[int], net: NetworkSpec, q: int,
                  rng) -> List[Tuple[int, Tuple[int, ...]]]:
    """(j, values) for each node j of `net`: the values at j of random
    polynomials of degree net.inner_degree, one per secret, with that
    secret as constant term; their coefficients are drawn one column
    across all secrets per power."""
    cols = [random_ints(q, len(secrets), rng)
            for _ in range(net.inner_degree)]
    polys = [[s, *(col[c] for col in cols)] for c, s in enumerate(secrets)]
    return [(j, tuple(horner(p, j, q) for p in polys))
            for j in range(1, net.node_count + 1)]


def reconstruct(shares: Dict[str, Sequence[NodeShare]],
                topology: Topology) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    Needs an inner quorum on the mother plus inner quorums on at least
    outer_degree daughters; each network's lowest-index quorum recovers
    its inner secret by interpolation at zero. Checks the shares with
    check_shares first. No share is ignored: every share beyond a
    network's quorum, and every daughter beyond the outer degree, must
    agree with the polynomial the others determine, else CorruptData
    names the network and node. Errors are detected, not corrected.
    """
    q = topology.modulus
    check_shares([s for lst in shares.values() for s in lst], topology)
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
    weights = express_over_rows(rows, [1] + [0] * topology.outer_degree, q)
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
    the outer polynomial is untouched. Randomness is drawn as the refresh
    command draws it, one protocol.refresh call per BLOCK_WORDS chunks:
    per block, network by network in topology order, each network's
    coefficient columns across the block's chunks in turn, each
    uniform."""
    q = topology.modulus
    values = {net.id: [[] for _ in range(net.node_count)]
              for net in topology.networks}
    for start in range(0, chunk_count, BLOCK_WORDS):
        zeros = [0] * min(BLOCK_WORDS, chunk_count - start)
        for net in topology.networks:
            for j, node in _inner_values(zeros, net, q, rng):
                values[net.id][j - 1] += node
    return {nid: [NodeRefresh(nid, j, epoch, tuple(node))
                  for j, node in enumerate(nodes, start=1)]
            for nid, nodes in values.items()}


def apply_node_refresh(share: NodeShare, delta: NodeRefresh,
                       modulus: int) -> NodeShare:
    if (share.network_id, share.node_index) != (delta.network_id,
                                                delta.node_index):
        raise ValueError("delta does not match share position")
    if share.epoch != delta.from_epoch:
        raise ValueError("delta epoch does not match share")
    if len(share.values) != len(delta.values):
        raise ValueError("chunk count mismatch")
    return share._replace(epoch=share.epoch + 1,
                          values=tuple(weighted_column_sum(
                              (1, 1), (share.values, delta.values), modulus)))
