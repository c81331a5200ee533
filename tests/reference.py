"""Reference implementations that the tests check the package against.

These are the package's earlier per-value loops, kept verbatim: the draw,
column sum, hex parser and secret framing that `field`, `formats` and
`protocol` now run as C-level loops. Each fast kernel must return exactly
what its reference returns, seeded draws included.
"""

from __future__ import annotations

from typing import List, Sequence

from multishare.errors import CorruptData
from multishare.field import BLOCK_WORDS
from multishare.protocol import LENGTH_HEADER, chunk_size


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
