import itertools
import math
import random
from collections import Counter

import pytest

from multishare.field import (BLOCK_WORDS, DEFAULT_MODULUS, crypto_rng,
                              deterministic_rng, echelon_insert,
                              express_over_rows, is_probable_prime,
                              parse_hex, random_ints, weighted_column_sum)
from multishare.formats import share_to_dict
from multishare.protocol import NodeShare


def add(a, b, q=7):
    return weighted_column_sum([1, 1], [[a], [b]], q)[0]


def mul(a, b, q=7):
    return weighted_column_sum([a], [[b]], q)[0]


def inverse(a, q=7):
    """a^-1 as the one-row solve a * w = 1; None for a = 0."""
    w = express_over_rows([[a]], [1], q)
    return None if w is None else w[0]


class TestArithmetic:
    """Field arithmetic as the int core does it: sums and products through
    weighted_column_sum, inverses through express_over_rows."""

    def test_add_small(self):
        assert add(1, 1) == 2

    def test_add_wraps(self):
        assert add(6, 6) == 5  # 12 mod 7

    def test_add_identity(self):
        for v in range(7):
            assert add(v, 0) == v

    def test_mul(self):
        assert mul(3, 5) == 1  # 15 mod 7
        assert mul(4, 1) == 4

    def test_sub_and_neg(self):
        assert weighted_column_sum([1, -1], [[0], [2]], 7) == [5]  # -2 = 5
        assert weighted_column_sum([-1], [[2]], 7) == [5]

    def test_inverse(self):
        assert inverse(3) == 5
        assert inverse(1) == 1
        assert inverse(9, 11) == 5

    def test_inverse_of_zero(self):
        assert inverse(0) is None

    @pytest.mark.parametrize("q", [7, 11, 257])
    def test_all_nonzero_invertible(self, q):
        for v in range(1, q):
            assert mul(v, inverse(v, q), q) == 1

    def test_field_axioms_exhaustive_q7(self):
        els = range(7)
        for a, b in itertools.product(els, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert (weighted_column_sum([a, a], [[b], [c]], 7)
                    == [mul(a, add(b, c))])

    def test_big_modulus(self):
        q = DEFAULT_MODULUS
        a = 2**126
        assert add(a, a, q) == (2**127) % q == 1
        assert mul(a, inverse(a, q), q) == 1


class TestHex:
    def test_round_trip(self):
        for v in (0, 1, 255, 2**100):
            assert parse_hex(format(v, "x"), DEFAULT_MODULUS) == v

    def test_zero_is_single_digit(self):
        share = NodeShare("m", 1, 0, (0,))
        assert share_to_dict(share, 7)["values"] == ["0"]

    def test_no_leading_zeros(self):
        share = NodeShare("m", 1, 0, (255,))
        assert share_to_dict(share, 257)["values"] == ["ff"]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_hex("ff", 7)


class TestRandom:
    def test_q2_in_range(self):
        assert set(random_ints(2, 50, deterministic_rng(0))) <= {0, 1}

    def test_seeded_reproducible(self):
        a = random_ints(7, 1, deterministic_rng(42))
        b = random_ints(7, 1, deterministic_rng(42))
        assert a == b
        # Regression anchor for the fixed seed.
        assert a == random_ints(7, 1, deterministic_rng(42))

    def test_uniformity_chi_square(self):
        rng = deterministic_rng(1234)
        n = 100_000
        counts = Counter(random_ints(7, n, rng))
        expect = n / 7
        sigma = math.sqrt(n * (1 / 7) * (6 / 7))
        for v in range(7):
            assert abs(counts[v] - expect) < 5 * sigma

    def test_crypto_source_works(self):
        (v,) = random_ints(DEFAULT_MODULUS, 1, crypto_rng())
        assert 0 <= v < DEFAULT_MODULUS

    @pytest.mark.parametrize("nonzero", [False, True])
    def test_random_ints_exact_counts_q257(self, nonzero):
        # q = 257 reads 2-byte words masked to 9 bits, so about half of
        # them are rejected. Fed every 2-byte word once, in order, each
        # 9-bit value arrives 128 times; the draw must keep exactly 128
        # of each value below 257 (0 excepted when nonzero) and stop at
        # the last word it needs: the final 256, word 256 + 127 * 512.
        class EveryWord:
            def __init__(self):
                self.next = 0

            def randbytes(self, n):
                assert n % 2 == 0 and n // 2 <= BLOCK_WORDS
                words = range(self.next, self.next + n // 2)
                self.next += n // 2
                return b"".join(w.to_bytes(2, "little") for w in words)

        rng = EveryWord()
        low = 1 if nonzero else 0
        draws = random_ints(257, (257 - low) * 128, rng, nonzero=nonzero)
        assert Counter(draws) == {v: 128 for v in range(low, 257)}
        assert rng.next == 256 + 127 * 512 + 1

    def test_random_ints_seeded_reproducible(self):
        a = random_ints(DEFAULT_MODULUS, 50, deterministic_rng(3))
        assert a == random_ints(DEFAULT_MODULUS, 50, deterministic_rng(3))
        assert len(set(a)) == 50
        assert all(0 <= v < DEFAULT_MODULUS for v in a)
        assert random_ints(7, 0, deterministic_rng(3)) == []


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 7, 11, 257, 2**127 - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 9, 561, 2**127, 2**89 + 1):
            assert not is_probable_prime(n)


def columns(rows):
    return [list(col) for col in zip(*rows)]


def in_span(rows, v, q):
    return express_over_rows(rows, v, q) is not None


def units(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestMatrix:
    """Rank and solves, read off express_over_rows: a set of rows has full
    rank iff every unit vector is in its span, and M x = b is solved by
    expressing b over the columns of M."""

    def test_identity_rank(self):
        rows = units(3)
        for e in units(3):
            assert express_over_rows(rows, e, 7) == e

    def test_dependent_rows(self):
        rows = [[1, 2], [2, 4]]
        assert not all(in_span(rows, e, 7) for e in units(2))
        assert in_span(rows, [3, 6], 7)

    def test_solve_hand_example(self):
        # a1 + 4 a2 = 1, a1 + 6 a2 = 0 over F_11 -> (3, 5)
        assert express_over_rows(columns([[1, 4], [1, 6]]), [1, 0],
                                 11) == [3, 5]

    def test_solve_checks_result(self):
        rng = deterministic_rng(7)
        q = 11
        for _ in range(30):
            rows = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            rhs = [rng.randrange(q) for _ in range(3)]
            sol = express_over_rows(columns(rows), rhs, q)
            if sol is None:
                continue
            for row, b in zip(rows, rhs):
                acc = sum(r * s for r, s in zip(row, sol)) % q
                assert acc == b % q

    def test_no_solution(self):
        # x + y = 1, 2x + 2y = 3 is inconsistent over F_7.
        assert express_over_rows(columns([[1, 1], [2, 2]]), [1, 3],
                                 7) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            express_over_rows([[1, 2], [1]], [1, 2], 7)
        with pytest.raises(ValueError):
            express_over_rows([[1, 2]], [1, 2, 3], 7)

    def test_rank_invariant_under_row_ops(self):
        rng = random.Random(99)
        q = 11
        for _ in range(25):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            probes = units(4) + [[rng.randrange(q) for _ in range(4)]
                                 for _ in range(4)]
            base = [in_span(rows, v, q) for v in probes]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert [in_span(shuffled, v, q) for v in probes] == base
            # scale only the first row by a nonzero constant
            c = rng.randrange(1, q)
            scaled = [[c * v % q for v in rows[0]]] + rows[1:]
            assert [in_span(scaled, v, q) for v in probes] == base


class TestRowSpan:
    def test_empty_matrix(self):
        assert in_span([], [0, 0], 7)
        assert not in_span([], [1, 0], 7)

    def test_scaled_row(self):
        assert in_span([[1, 1]], [2, 2], 7)
        assert not in_span([[1, 1]], [1, 2], 7)

    def test_express_coefficients(self):
        q = 11
        rows = [[1, 2, 3], [0, 1, 4]]
        v = [(2 * a + 2 * b) % q for a, b in zip(rows[0], rows[1])]
        assert express_over_rows(rows, v, q) == [2, 2]


class TestEchelon:
    def test_ragged_rows_act_as_zero_padded(self):
        # Trailing entries a row lacks count as 0, whichever of the row
        # and the pivot is the shorter.
        rng = random.Random(5)
        q = 13
        for _ in range(200):
            rows = [[rng.randrange(q) for _ in range(rng.randrange(1, 6))]
                    for _ in range(rng.randrange(1, 7))]
            ragged, padded = [], []
            for i, row in enumerate(rows):
                payload = [i, rng.randrange(q)]
                got = echelon_insert(ragged, row, payload, q)
                want = echelon_insert(padded, row + [0] * (5 - len(row)),
                                      payload, q)
                assert got == want
            assert ([(c, r + [0] * (5 - len(r)), p) for c, r, p in ragged]
                    == padded)
