"""Prime-field arithmetic and exact linear algebra over F_q.

Everything here is exact big-integer math: no tolerances exist anywhere.
Below the public scalar type FieldElement, values are plain ints in
0..q-1 with the modulus passed alongside. All values are immutable and
every function is pure, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

# Mersenne prime 2^127 - 1: fast reduction, comfortably above any chunk value.
DEFAULT_MODULUS = 2**127 - 1

MILLER_RABIN_ROUNDS = 64

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


class FieldElement:
    """An element of F_q in canonical representation (0 <= value < q)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.value + other.value, self.modulus)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.value - other.value, self.modulus)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.value * other.value, self.modulus)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value, self.modulus)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(pow(self.value, -1, self.modulus), self.modulus)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and self.modulus == other.modulus
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.value, self.modulus))

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod {self.modulus})"

    def is_zero(self) -> bool:
        return self.value == 0

    def to_hex(self) -> str:
        """Lowercase big-endian hex, no leading zeros ('0' for zero)."""
        return format(self.value, "x")

    @classmethod
    def from_hex(cls, text: str, modulus: int) -> "FieldElement":
        return cls(parse_hex(text, modulus), modulus)


def random_int(modulus: int, rng) -> int:
    """Uniform draw via rejection sampling (no modulo bias)."""
    bits = modulus.bit_length()
    while True:
        v = rng.getrandbits(bits)
        if v < modulus:
            return v


def random_element(modulus: int, rng) -> FieldElement:
    return FieldElement(random_int(modulus, rng), modulus)


def parse_hex(text: str, modulus: int) -> int:
    """Value of a lowercase hex field element; ValueError unless in range."""
    value = int(text, 16)
    if value >= modulus or value < 0:
        raise ValueError(f"value {text} out of range for modulus")
    return value


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
