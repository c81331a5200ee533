"""Reference implementations that the tests check the package against.

Most are the package's earlier per-value loops, kept verbatim: the draw,
column sum, hex parser and secret framing that `field`, `formats` and
`protocol` now run as C-level loops. Each fast kernel must return exactly
what its reference returns, seeded draws included.

FunctionalSpace and access_oracle are the dense secrecy oracle, also kept
verbatim: every held value as one row over all coordinates of the dealer's
and the refreshes' randomness, decided by one elimination. The package
decides the same question network by network (AdversaryKnowledge).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from multishare.errors import CorruptData
from multishare.field import BLOCK_WORDS, express_over_rows
from multishare.protocol import (LENGTH_HEADER, Access, Topology, chunk_size,
                                 constant_functional)


def random_ints(modulus: int, count: int, rng,
                nonzero: bool = False) -> List[int]:
    """Rejection sampling over rng.randbytes, one word sliced and
    converted at a time."""
    bits = modulus.bit_length()
    width = (bits + 7) // 8
    mask = (1 << bits) - 1
    low = 1 if nonzero else 0
    from_bytes = int.from_bytes
    out: List[int] = []
    while len(out) < count:
        block = rng.randbytes(min(count - len(out), BLOCK_WORDS) * width)
        out += [v for i in range(0, len(block), width)
                if low <= (v := from_bytes(block[i:i + width], "little")
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
