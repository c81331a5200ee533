"""Prime-field arithmetic and exact linear algebra over F_q.

Everything here is exact big-integer math: no tolerances exist anywhere.
Values are plain ints in 0..q-1 with the modulus passed alongside; a
column is a list of them, one per secret chunk. Apart from the entropy
draws, every function is pure, so concurrent use needs no
synchronization.
"""

from __future__ import annotations

import random
import struct
from itertools import repeat
from operator import add, and_, mod, mul
from typing import List, Optional, Sequence, Tuple

# Mersenne prime 2^127 - 1: fast reduction, comfortably above any chunk value.
DEFAULT_MODULUS = 2**127 - 1

MILLER_RABIN_ROUNDS = 64

# Most words random_ints asks rng.randbytes for at once: a 64 KiB block
# at 2^127 - 1, below the C allocator's mmap threshold, so drawing
# megabytes of coefficients does not raise that threshold and leave the
# freed blocks on the heap.
BLOCK_WORDS = 4096

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS,
                      rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin with `rounds` random bases (error < 4^-rounds)."""
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
    rng = rng or random.Random(0xC0FFEE ^ n)
    for _ in range(rounds):
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


def random_ints(modulus: int, count: int, rng) -> List[int]:
    """`count` uniform values in 0..modulus-1, by rejection sampling over
    rng.randbytes.

    Each attempt draws one block of ceil(bits/8)-byte little-endian words
    (bits = modulus.bit_length()), one word per value still missing, at
    most BLOCK_WORDS. Each word is masked to `bits` bits and kept only
    when below the modulus, so no value carries modulo bias; rejected
    words are topped up by the next block. With crypto_rng the block is
    os.urandom: nothing expands the entropy.

    A block is split by one struct.unpack and converted and masked by
    C-level maps; when its greatest word is in range, as almost always at
    2^127 - 1, it is kept whole.
    """
    bits = modulus.bit_length()
    width = (bits + 7) // 8
    mask = (1 << bits) - 1
    out: List[int] = []
    while len(out) < count:
        n = min(count - len(out), BLOCK_WORDS)
        words = struct.unpack(f"{width}s" * n, rng.randbytes(n * width))
        block = list(map(and_, map(int.from_bytes, words, repeat("little")),
                         repeat(mask)))
        if max(block) < modulus:
            out += block
        else:
            out += [v for v in block if v < modulus]
    return out


def weighted_column_sum(weights: Sequence[int],
                        columns: Sequence[Sequence[int]], q: int) -> List[int]:
    """Entry-wise sum of weights[k] * columns[k], mod q.

    Columns all have one length. One pass of C-level maps over every
    column with a nonzero weight, reduced once at the end. A weight w
    multiplies as its signed representative (w - q when 2w > q), so
    interpolation weights such as 2 and -1 stay small ints.
    """
    terms = []
    for w, col in zip(weights, columns):
        w %= q
        if w:
            w = w - q if 2 * w > q else w
            terms.append(col if w == 1 else map(mul, col, repeat(w)))
    if not terms:
        return [0] * len(columns[0])
    acc, *rest = terms
    for term in rest:
        acc = map(add, acc, term)
    return list(map(mod, acc, repeat(q)))


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
    equals it. `row` and `payload` themselves are not modified.
    """
    for col, prow, ppay in pivots:
        f = row[col] if col < len(row) else 0
        if f:
            n = len(prow)
            if len(row) == n:
                row = [(a - f * b) % q for a, b in zip(row, prow)]
            elif len(row) < n:
                row = [(a - f * b) % q
                       for a, b in zip([*row, *[0] * (n - len(row))], prow)]
            else:
                row = ([(a - f * b) % q for a, b in zip(row, prow)]
                       + list(row[n:]))
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
                           [x * inv % q for x in payload]))
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
