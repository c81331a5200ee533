"""Prime-field arithmetic and exact linear algebra over F_q.

Everything here is exact big-integer math: no tolerances exist anywhere.
Below the public scalar type FieldElement, values are plain ints in
0..q-1 with the modulus passed alongside. All values are immutable and
every function is pure, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

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


def express_over_rows(rows: Sequence[Sequence[int]], v: Sequence[int],
                      q: int) -> Optional[list]:
    """Coefficients c (one per row) with sum(c_i * rows_i) = v mod q, or
    None when v is outside the row span.

    The package's only elimination: span tests, solves and interpolation
    weights all go through it. Tracks each pivot row's expansion over the
    original rows, then reduces v.
    """
    if any(len(row) != len(v) for row in rows):
        raise ValueError("row length does not match vector length")
    n = len(rows)
    pivots = []  # (pivot_col, row, combo over original rows)
    for i, row in enumerate(rows):
        row = list(row)
        combo = [0] * n
        combo[i] = 1
        for col, prow, pcombo in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % q for a, b in zip(row, prow)]
                combo = [(a - f * b) % q for a, b in zip(combo, pcombo)]
        for col, a in enumerate(row):
            if a:
                inv = pow(a, -1, q)
                row = [x * inv % q for x in row]
                combo = [x * inv % q for x in combo]
                pivots.append((col, row, combo))
                break
    res = [x % q for x in v]
    out = [0] * n
    for col, prow, pcombo in pivots:
        f = res[col]
        if f:
            res = [(a - f * b) % q for a, b in zip(res, prow)]
            out = [(a + f * b) % q for a, b in zip(out, pcombo)]
    if any(res):
        return None
    return out
