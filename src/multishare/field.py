"""Prime-field arithmetic and exact linear algebra over F_q.

Everything here is exact big-integer math: no tolerances exist anywhere.
Values are ints in 0..q-1 with the modulus passed alongside. A column,
one value per secret chunk, is handed on in Blocks: each Block packs its
values into one int, and this module alone knows how.
Apart from the entropy draws, every function is pure, so concurrent use
needs no synchronization.

The block layout. Value i of an n-value block sits in slot i of the int:
bits (n-1-i)*S up to (n-i)*S, where a slot of S = 8w + HEADROOM bits (w =
word_bytes(q), HEADROOM = 12) is 2w + 3 hex digits. A value below q fills
only the low 8w bits of its slot; the three hex digits above them take
the carries of a weighted sum. So one add, subtract, shift, mask, or
multiply by a small int acts on every value of a block at once, in one C
loop over the int, and no carry crosses into the next slot: the SWAR
technique (Lamport, Multiple byte processing with full-word instructions,
CACM 1975).

A slot is the stride of a value in a share file of format v2 (formats),
its three top digits in line with the `","` before the value: the hex of
a block is its values' text but for those three bytes each, so one
hexlify or unhexlify and three strided stores convert a block (to_hex,
from_hex). Two slots make 2w + 3 whole bytes, so the fixed-width words
of the draws and of the secret framing go through pairs of slots as
bytes, each word byte-aligned and the first of a pair 4 bits above its
slot, which one shift under a mask puts right (_pack, to_words).

The reduction. weighted_column_sum adds each column times its weight's
signed representative (a negative weight -w as w times q minus the
column), so that a slot holds at most q times the weights' absolute
sum, and then reduces every slot mod q at once. At a Mersenne modulus
q = 2^b - 1, such as the default 2^127 - 1, each slot's bits above b
are added to its low b bits (a fold), as 2^b = 1 mod q: a slot of at
most M is left at most q + (M >> b). A slot holds at most q * 2^e, e
the layout's headroom exponent, so one fold leaves it below q + 2^e,
which is at most 2q when e < b: in every narrow slot once b > 18, as e
is at most 18 there. The slots twice as wide at 2^127 - 1 (e = 137)
take a second fold, and a tiny q a few more. At any other q, Barrett's
quotient estimate, read from each slot's top bits, falls short by at
most one. Either way one conditional subtraction of q, the slots at or
above q told by their top bit once 2^(S-1) - q is added, ends it.
Weights too large for the headroom (full-size interpolation weights,
say) are applied to the even and the odd slots apart, each half spread
over slots twice as wide.

The draw. random_ints reads rng.randbytes as little-endian words, as the
value-by-value draw it replaced did, so that seeded draws, and so seeded
share files, stay what they were.
"""

from __future__ import annotations

import random
import struct
from binascii import Error as BinasciiError, hexlify, unhexlify
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat
from typing import Iterator, List, Optional, Tuple

# Mersenne prime 2^127 - 1: fast reduction, comfortably above any chunk value.
DEFAULT_MODULUS = 2**127 - 1

MILLER_RABIN_ROUNDS = 64

# Most words random_ints asks rng.randbytes for at once: a 64 KiB block
# at 2^127 - 1, below the C allocator's mmap threshold, so drawing
# megabytes of coefficients does not raise that threshold and leave the
# freed blocks on the heap. The vault commands work on blocks of this
# many chunks.
BLOCK_WORDS = 4096

# Bits of a slot above its value's word: three hex digits.
HEADROOM = 12
# Bits of a slot's value below its top q.bit_length() that the quotient
# estimate of _reduce reads too.
_EXTRA = 2

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

OUT_OF_RANGE = "a value is out of range for the modulus"

# Byte translation tables that mask a byte to its low k bits, k = 1..8:
# 0..2^k - 1 over and over.
_TOP_MASKS = [bytes(range(1 << k)) * (256 >> k) for k in range(1, 9)]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with 64 (MILLER_RABIN_ROUNDS) bases: error < 4^-64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0xC0FFEE ^ n)
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def deterministic_rng(seed: int) -> random.Random:
    """Seeded generator for reproducible runs and tests."""
    return random.Random(seed)


def crypto_rng() -> random.SystemRandom:
    """OS-backed source; the default for actual dealing."""
    return random.SystemRandom()


def word_bytes(modulus: int) -> int:
    """The bytes of a word that holds modulus.bit_length() bits."""
    return (modulus.bit_length() + 7) // 8


def _slot_bits(modulus: int) -> int:
    return 8 * word_bytes(modulus) + HEADROOM


class Block(Sequence):
    """A block of values below `modulus`, packed one per slot into the int
    `word` (see the module docstring). It reads as a sequence of ints:
    indexing, iterating and comparing with a list or tuple unpack it; a
    slice is a Block, and so is the concatenation block + block."""

    __slots__ = ("word", "length", "modulus")

    def __init__(self, word: int, length: int, modulus: int):
        self.word, self.length, self.modulus = word, length, modulus

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        n, w = self.length, word_bytes(self.modulus)
        return map(int.from_bytes, struct.unpack(
            f"{w + 3}x{w}s" * (n % 2) + f"x{w}s2x{w}s" * (n // 2),
            _pairs(self)), repeat("big"))

    def __getitem__(self, index):
        bits, n = _slot_bits(self.modulus), self.length
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                return as_block(list(self)[index], self.modulus)
            size = max(stop - start, 0)
            if size == n:
                return self
            return Block(self.word >> (n - start - size) * bits
                         & (1 << size * bits) - 1, size, self.modulus)
        if not -n <= index < n:
            raise IndexError("block index out of range")
        return self.word >> (n - 1 - index % n) * bits & (1 << bits) - 1

    def __add__(self, other):
        if not (isinstance(other, Block) and other.modulus == self.modulus):
            return NotImplemented
        if not self.length:
            return other
        return Block(self.word << other.length * _slot_bits(self.modulus)
                     | other.word, self.length + other.length, self.modulus)

    def __eq__(self, other):
        if isinstance(other, Block) and other.modulus == self.modulus:
            return self.length == other.length and self.word == other.word
        if not isinstance(other, (Block, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Block({list(self)!r}, modulus={self.modulus})"


def zeros(count: int, modulus: int) -> Block:
    """The Block of `count` zeros."""
    return Block(0, count, modulus)


def as_block(values, modulus: int) -> Block:
    """`values` as a Block: itself when it is a Block of this modulus;
    else the ints it holds, ValueError unless each is in 0..modulus-1."""
    if type(values) is Block and values.modulus == modulus:
        return values
    values = list(values)
    if values and not (0 <= min(values) and max(values) < modulus):
        raise ValueError(OUT_OF_RANGE)
    w = word_bytes(modulus)
    return Block(_pack(b"".join(map(int.to_bytes, values, repeat(w),
                                    repeat("big"))), w, modulus),
                 len(values), modulus)


class _Layout:
    """The masks of n slots of `bits` bits for the modulus q, built once
    (_layout): `qs` holds q in each slot, `top` each slot's top bit and
    `offset` 2^(bits-1) - q in each slot; when q is 2^b - 1, `high` the
    low bits - b bits of each slot, where its bits above b land once
    shifted right by b, and at other q `low` the low bits that hold a
    slot's quotient estimate in _reduce (each None otherwise); `pairs`,
    in narrow slots, every bit of the second slot of each pair of slots
    counted from the low end, that is of the odd slots of an even block
    and the even slots of an odd one (None in slots twice as wide). A
    weighted sum may be reduced here when its weights' absolute sum is at
    most `limit`."""

    __slots__ = ("q", "bits", "limit", "shift", "m", "c", "low", "qs",
                 "top", "offset", "high", "pairs")

    def __init__(self, q: int, n: int, spread: int):
        b, slot = q.bit_length(), _slot_bits(q)
        self.q, self.bits = q, slot * spread
        # 1 in the low slot of each pair, a pair being slot / 4 bytes.
        one = int.from_bytes((bytes(slot // 4 - 1) + b"\1") * -(-n // 2),
                             "big")
        self.pairs = None
        if spread == 1:
            self.pairs = ((1 << slot) - 1) * one
            one |= one << slot
            if n % 2:
                one ^= 1 << n * slot  # the odd block's empty slot
        # A slot holds less than q * limit < 2^(bits - 1), with the top
        # bit spare; and an estimate's product hi * m fits in its slot.
        e = min(self.bits - 1 - b, (self.bits - 2 * _EXTRA - 2) // 2)
        self.limit = 1 << e
        self.shift = b - _EXTRA
        self.c = e + _EXTRA + 2
        self.m = (1 << self.shift + self.c) // q
        self.qs = q * one
        self.top = one << self.bits - 1
        self.offset = self.top - self.qs
        self.low = self.high = None
        if q & q + 1 == 0:
            self.high = ((1 << self.bits - b) - 1) * one
        else:
            self.low = ((1 << e + _EXTRA) - 1) * one


@lru_cache(maxsize=8)
def _layout(q: int, n: int, spread: int = 1) -> _Layout:
    """The masks of an n-value block mod q, or, with spread 2, of its even
    (or odd) values in slots twice as wide."""
    return _Layout(q, n, spread)


def _reduce(x: int, most: int, lay: _Layout) -> int:
    """x, whose slots each hold at most `most`, at most q * lay.limit,
    each slot reduced mod q. While most >= 2q at q = 2^b - 1, each slot's
    bits above b are added to its low b bits (2^b = 1 mod q), which
    leaves at most q + (most >> b); at other q, Barrett's estimate t of a
    slot's quotient, read from its top bits, is at most one short, so
    x - t * q is below 2q. Then each slot at or above q, whose top bit is
    set once `offset` is added, loses q."""
    if lay.high is not None:
        b = lay.q.bit_length()
        while most >= 2 * lay.q:
            x = (x & lay.qs) + (x >> b & lay.high)
            most = lay.q + (most >> b)
    elif most >= 2 * lay.q:
        t = ((x >> lay.shift & lay.low) * lay.m >> lay.c) & lay.low
        x -= t * lay.q
    top = (x + lay.offset) & lay.top
    return x - ((top - (top >> lay.bits - 1)) & lay.qs)


def _weigh(terms: List[Tuple[int, int]], lay: _Layout) -> Tuple[int, int]:
    """sum(w * word) over the (w, word) terms, slot by slot, a negative w
    applied as |w| * (q - word); and the most a slot of it can hold, at
    most sum(|w|) * q."""
    acc = neg = over = under = 0
    for w, word in terms:
        if w > 0:
            acc += word if w == 1 else word * w
            over += w
        else:
            neg += word if w == -1 else word * -w
            under -= w
    if under:
        acc += lay.qs * under - neg
    return acc, over * (lay.q - 1) + under * lay.q


def _in_range(word: int, lay: _Layout) -> bool:
    """Whether every slot of `word` holds less than q: a slot of at least
    q, and less than 2^(bits - 1), sets its top bit once offset is
    added."""
    return not (word + lay.offset) & lay.top


# The most values of a block that _pack converts by one struct, an object
# per word; a larger block takes two strided slice copies per byte of a
# word, whose fixed cost a short block does not repay. At 2^127 - 1 the
# two cost the same for a draw of 128 to 192 values.
_SMALL_BLOCK = 128


def _pack(data, width: int, modulus: int, little: bool = False) -> int:
    """The int of the block mod `modulus` whose values are the words of
    `width` bytes in `data`, each as it is or, when `little`, with its
    bytes reversed.

    The words go into pairs of slots as bytes, 2w + 3 each (w =
    word_bytes): a zero byte, the pair's first word, two zero bytes and
    its second word, each word padded to w bytes by zeros in front. An
    odd block's first pair has no first word. Then each pair's first word
    is shifted 4 bits down, from the top of its bytes to that of its
    slot."""
    n, w = len(data) // width, word_bytes(modulus)
    if n % 2:
        data = bytes(width) + data
    count, size, pad = n + n % 2, 2 * w + 3, w - width
    if count <= _SMALL_BLOCK:
        # Reversed whole: each word's bytes, and the words' order.
        words = struct.unpack(f"{width}s" * count,
                              data[::-1] if little else data)
        pairs = struct.pack(f"{1 + pad}x{width}s{2 + pad}x{width}s"
                            * (count // 2),
                            *(words[::-1] if little else words))
    else:
        pairs = bytearray(count // 2 * size)
        for k in range(width):
            src = width - 1 - k if little else k
            pairs[1 + pad + k::size] = data[src::2 * width]
            pairs[size - width + k::size] = data[width + src::2 * width]
    # Rebound at each step, so that at most three copies are held.
    pairs = int.from_bytes(pairs, "big")
    low = pairs & _layout(modulus, n).pairs
    pairs ^= low
    pairs >>= 4
    return low | pairs


def _pairs(block: Block) -> bytes:
    """The pairs of slots of `block` as bytes (_pack): each pair's first
    value shifted 4 bits up, from the top of its slot to that of its
    bytes."""
    n, q = block.length, block.modulus
    low = block.word & _layout(q, n).pairs
    pairs = block.word ^ low
    pairs <<= 4
    return (low | pairs).to_bytes(-(-n // 2) * (2 * word_bytes(q) + 3),
                                  "big")


def weighted_column_sum(weights: Sequence[int],
                        columns: Sequence[Sequence[int]], q: int) -> Block:
    """Entry-wise sum of weights[k] * columns[k], mod q, as a Block.

    Columns all have one length; each is a Block or a sequence of ints
    below q (as_block). A weight w multiplies as its signed representative
    (w - q when 2w > q), so interpolation weights such as 2 and -1 stay
    small ints, and every slot is summed at once and reduced once
    (_reduce). Weights whose absolute sum exceeds the layout's headroom
    are applied, each in 0..q-1, to the even and the odd values apart, in
    slots twice as wide; ValueError for more weights than even those
    hold, thousands at the least.
    """
    n = len(columns[0])
    terms = []  # (signed weight, column)
    total = 0
    for w, col in zip(weights, columns):
        if type(col) is not Block or col.modulus != q:
            col = as_block(col, q)
        if col.length != n:
            raise ValueError("columns differ in length")
        w %= q
        if w:
            if 2 * w > q:
                w -= q
            terms.append((w, col))
            total += abs(w)
    if total == 1 and terms[0][0] == 1:
        return terms[0][1]
    if not total or not n:
        return zeros(n, q)
    lay = _layout(q, n)
    if total <= lay.limit:
        return Block(_reduce(*_weigh([(w, col.word) for w, col in terms],
                                     lay), lay), n, q)
    # Full-size weights, each as its representative in 0..q-1: a negative
    # one would cost a full-size multiple of q.
    terms = [(w % q, col) for w, col in terms]
    wide = _layout(q, n, 2)
    if sum(w for w, _ in terms) > wide.limit:
        raise ValueError("too many weights for one sum")
    bits = lay.bits
    low, high = (_reduce(*_weigh([(w, col.word >> shift & lay.pairs)
                                  for w, col in terms], wide), wide)
                 for shift in (0, bits))
    return Block(low | high << bits, n, q)


def random_ints(modulus: int, count: int, rng) -> Block:
    """`count` uniform values in 0..modulus-1, by rejection sampling over
    rng.randbytes, as a Block.

    Each attempt draws one block of ceil(bits/8)-byte little-endian words
    (bits = modulus.bit_length()), one word per value still missing, at
    most BLOCK_WORDS. Each word is masked to `bits` bits and kept only
    when below the modulus, so no value carries modulo bias; rejected
    words are topped up by the next block. With crypto_rng the block is
    os.urandom: nothing expands the entropy.

    The mask is applied to the words' top bytes, the words are packed
    (_pack) and tested against the modulus slot by slot at once; when
    none is out of range, as almost always at 2^127 - 1, the block is
    kept whole, else the values in range are kept, in order.
    """
    width = word_bytes(modulus)
    top_mask = _TOP_MASKS[modulus.bit_length() - 8 * width + 7]
    out = zeros(0, modulus)
    while len(out) < count:
        n = min(count - len(out), BLOCK_WORDS)
        data = bytearray(rng.randbytes(n * width))
        # Each little-endian word's top byte.
        data[width - 1::width] = data[width - 1::width].translate(top_mask)
        block = Block(_pack(data, width, modulus, little=True), n, modulus)
        if not _in_range(block.word, _layout(modulus, n)):
            block = as_block([v for v in block if v < modulus], modulus)
        out += block
    return out


def from_words(data: bytes, width: int, modulus: int) -> Block:
    """The Block of the big-endian words of `width` bytes, at most
    word_bytes(modulus), that `data` holds one after another; ValueError
    (OUT_OF_RANGE) unless each is below the modulus."""
    n = len(data) // width
    word = _pack(data, width, modulus)
    if not _in_range(word, _layout(modulus, n)):
        raise ValueError(OUT_OF_RANGE)
    return Block(word, n, modulus)


def to_words(block: Block, width: int) -> bytes:
    """The values of `block` as big-endian words of `width` bytes, at most
    word_bytes of its modulus, one after another; ValueError when a value
    does not fit. Its pairs of slots (_pairs) give each word by strided
    slice copies."""
    n, w = block.length, word_bytes(block.modulus)
    pairs, size = _pairs(block), 2 * w + 3
    for k in range(1, 1 + w - width):  # each word's bytes above width
        if (pairs[k::size].count(0) + pairs[w + 2 + k::size].count(0)
                != 2 * (len(pairs) // size)):
            raise ValueError(f"a value does not fit in {width} bytes")
    words = bytearray((n + n % 2) * width)
    for k in range(width):
        words[k::2 * width] = pairs[w + 1 - width + k::size]
        words[width + k::2 * width] = pairs[size - width + k::size]
    del words[:n % 2 * width]
    return bytes(words)


def to_hex(block: Block, lead: bytes) -> bytearray:
    """The values of `block` as text: each as the 2w lowercase hex digits
    of its w-byte big-endian word (w = word_bytes of its modulus), after
    the three bytes `lead`. That is the hex of the block's slots, with
    `lead` over the top three digits of each."""
    n, stride = block.length, _slot_bits(block.modulus) // 4
    text = bytearray(hexlify(block.word.to_bytes(-(-n * stride // 2),
                                                 "big")))
    del text[:n % 2]  # the digit above an odd number of slots
    for k in range(3):
        text[k::stride] = lead[k:k + 1] * n
    return text


def from_hex(text: bytearray, n: int, modulus: int) -> Block:
    """The Block of the n values that `text` holds as to_hex writes them,
    but that the first value's lead may be left out, in part or whole:
    value i's 2w digits end (n - 1 - i) * (2w + 3) bytes before the end,
    and no lead is read. `text` is changed in place and emptied once
    read, so that it and the block's int are not held at once.
    binascii.Error (a ValueError) unless each digit is lowercase hex;
    ValueError (OUT_OF_RANGE) unless each value is below the modulus.

    The text, behind a zero digit when n is odd and the lead left out, is
    the hex of the block once each lead is three zeros, as three strided
    stores make it, in place."""
    stride = _slot_bits(modulus) // 4
    text[:0] = b"0" * (n % 2 + n * stride - len(text))
    if any(map(text.__contains__, b"ABCDEF")):  # unhexlify takes them
        raise BinasciiError("an upper-case hex digit")
    for k in range(n % 2, n % 2 + 3):
        text[k::stride] = b"0" * n
    raw = unhexlify(text)
    del text[:]
    word = int.from_bytes(raw, "big")
    if not _in_range(word, _layout(modulus, n)):
        raise ValueError(OUT_OF_RANGE)
    return Block(word, n, modulus)


def echelon_reduce(pivots: list, row: Sequence[int], payload: Sequence[int],
                   q: int) -> Tuple[Sequence[int], Sequence[int]]:
    """Reduce `row` against the echelon basis `pivots`, applying every
    step to `payload` as well; returns both, reduced.

    The package's only elimination. `pivots` is a list of (pivot column,
    row, payload) in insertion order, each row scaled to a leading 1 at
    its first nonzero column. Rows may differ in length, missing trailing
    entries being 0; payloads all have one length. A row that reduces to
    zero lies in the span, and its reduced payload is its payload minus
    the pivot payloads weighted by the combination of pivot rows that
    equals it. `row` and `payload` themselves are not modified; an empty
    payload stays as it is.
    """
    for col, prow, ppay in pivots:
        f = row[col] if col < len(row) else 0
        if f:
            n = len(prow)
            if len(row) < n:
                row = [*row, *[0] * (n - len(row))]
            row = [(a - f * b) % q for a, b in zip(row, prow)] + list(row[n:])
            if payload:
                payload = [(a - f * b) % q for a, b in zip(payload, ppay)]
    return row, payload


def echelon_insert(pivots: list, row: Sequence[int], payload: Sequence[int],
                   q: int) -> Optional[Sequence[int]]:
    """Reduce `row` and `payload` against `pivots` (echelon_reduce). A
    nonzero remainder joins the basis, scaled to a leading 1, and the
    result is None; otherwise the result is the reduced payload."""
    row, payload = echelon_reduce(pivots, row, payload, q)
    for col, a in enumerate(row):
        if a:
            inv = pow(a, -1, q)
            pivots.append((col, [x * inv % q for x in row],
                           [x * inv % q for x in payload] if payload
                           else payload))
            return None
    return payload


def express_over_rows(rows: Sequence[Sequence[int]], v: Sequence[int],
                      q: int) -> Optional[list]:
    """Coefficients c (one per row) with sum(c_i * rows_i) = v mod q, or
    None when v is outside the row span.

    Span tests, solves and interpolation weights all go through here:
    each row enters the echelon basis carrying its unit vector, so a pivot
    row's payload is its expansion over the original rows; then v is
    reduced with a zero payload, which ends as minus its expansion.
    """
    if any(len(row) != len(v) for row in rows):
        raise ValueError("row length does not match vector length")
    n = len(rows)
    pivots: list = []
    for i, row in enumerate(rows):
        unit = [0] * n
        unit[i] = 1
        echelon_insert(pivots, row, unit, q)
    res, rest = echelon_reduce(pivots, [x % q for x in v], [0] * n, q)
    if any(res):
        return None
    return [-x % q for x in rest]
