import itertools
import math
import random

import pytest

from multishare.field import (DEFAULT_MODULUS, FieldElement, crypto_rng,
                              deterministic_rng, express_over_rows,
                              is_probable_prime, random_element)


def fe(v, q=7):
    return FieldElement(v, q)


class TestArithmetic:
    def test_add_small(self):
        assert fe(1) + fe(1) == fe(2)

    def test_add_wraps(self):
        assert fe(6) + fe(6) == fe(5)  # 12 mod 7

    def test_add_identity(self):
        for v in range(7):
            assert fe(v) + fe(0) == fe(v)

    def test_mul(self):
        assert fe(3) * fe(5) == fe(1)  # 15 mod 7
        assert fe(4) * fe(1) == fe(4)

    def test_sub_and_neg(self):
        assert fe(0) - fe(2) == fe(5)  # -2 = 5 mod 7
        assert -fe(2) == fe(5)

    def test_inverse(self):
        assert fe(3).inverse() == fe(5)
        assert fe(1).inverse() == fe(1)
        assert FieldElement(9, 11).inverse() == FieldElement(5, 11)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            fe(0).inverse()

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            fe(1, 7) + fe(1, 11)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            fe(1).value = 3

    @pytest.mark.parametrize("q", [7, 11, 257])
    def test_all_nonzero_invertible(self, q):
        for v in range(1, q):
            e = FieldElement(v, q)
            assert e * e.inverse() == FieldElement(1, q)

    def test_field_axioms_exhaustive_q7(self):
        els = [fe(v) for v in range(7)]
        for a, b in itertools.product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in itertools.product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_big_modulus(self):
        q = DEFAULT_MODULUS
        a = FieldElement(2**126, q)
        assert (a + a).value == (2**127) % q == 1
        assert a * a.inverse() == FieldElement(1, q)


class TestHex:
    def test_round_trip(self):
        for v in (0, 1, 255, 2**100):
            e = FieldElement(v, DEFAULT_MODULUS)
            assert FieldElement.from_hex(e.to_hex(), DEFAULT_MODULUS) == e

    def test_zero_is_single_digit(self):
        assert FieldElement(0, 7).to_hex() == "0"

    def test_no_leading_zeros(self):
        assert FieldElement(255, 257).to_hex() == "ff"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FieldElement.from_hex("ff", 7)


class TestRandom:
    def test_q2_in_range(self):
        rng = deterministic_rng(0)
        for _ in range(50):
            assert random_element(2, rng).value in (0, 1)

    def test_seeded_reproducible(self):
        a = random_element(7, deterministic_rng(42))
        b = random_element(7, deterministic_rng(42))
        assert a == b
        # Regression anchor for the fixed seed.
        assert a.value == random_element(7, deterministic_rng(42)).value

    def test_uniformity_chi_square(self):
        rng = deterministic_rng(1234)
        n = 100_000
        counts = [0] * 7
        for _ in range(n):
            counts[random_element(7, rng).value] += 1
        expect = n / 7
        sigma = math.sqrt(n * (1 / 7) * (6 / 7))
        for c in counts:
            assert abs(c - expect) < 5 * sigma

    def test_crypto_source_works(self):
        e = random_element(DEFAULT_MODULUS, crypto_rng())
        assert 0 <= e.value < DEFAULT_MODULUS


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
