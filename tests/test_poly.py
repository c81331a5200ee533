import itertools

import pytest

from multishare.field import deterministic_rng, express_over_rows
from multishare.poly import (birkhoff_matrix_row, derivative_coeffs, horner,
                             lagrange_zero_weights, random_coeff_columns)


def interpolate_zero(points, q):
    """P(0) from (x, P(x)) points, through lagrange_zero_weights."""
    weights = lagrange_zero_weights([x for x, _ in points], q)
    return sum(w * y for w, (_, y) in zip(weights, points)) % q


def birkhoff_coeffs(constraints, degree, q):
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


def value_and_slopes(coeffs, q, d):
    """The constraints P(1) and P'(1..d) of the polynomial `coeffs`."""
    dp = derivative_coeffs(coeffs, q)
    return ([(1, 0, horner(coeffs, 1, q))]
            + [(i, 1, horner(dp, i, q)) for i in range(1, d + 1)])


class TestEvaluate:
    def test_hand_values(self):
        assert horner([3, 2], 1, 7) == 5
        assert horner([3, 2], 2, 7) == 0  # 7 mod 7

    def test_at_zero_is_constant(self):
        assert horner([4, 1, 6], 0, 11) == 4


class TestNormalization:
    def test_trailing_zeros_dropped(self):
        for x in range(7):
            assert horner([1, 2, 0, 0], x, 7) == horner([1, 2], x, 7)

    def test_zero_polynomial(self):
        assert all(horner([0, 0], x, 7) == 0 for x in range(7))
        assert derivative_coeffs([0], 7) == [0]


class TestDerivative:
    def test_hand_example(self):
        # 3 + 2X + 5X^2 over F_7 -> 2 + 3X  (10 mod 7 = 3)
        assert derivative_coeffs([3, 2, 5], 7) == [2, 3]

    def test_constant(self):
        assert derivative_coeffs([5], 7) == [0]

    def test_degree_one(self):
        assert derivative_coeffs([4, 3], 11) == [3]

    def test_linearity(self):
        rng = deterministic_rng(5)
        q = 11
        for _ in range(30):
            p = [rng.randrange(q) for _ in range(4)]
            r = [rng.randrange(q) for _ in range(4)]
            a, b = rng.randrange(q), rng.randrange(q)
            lhs = derivative_coeffs([a * u + b * v for u, v in zip(p, r)], q)
            rhs = [(a * u + b * v) % q for u, v in
                   zip(derivative_coeffs(p, q), derivative_coeffs(r, q))]
            assert lhs == rhs


class TestRandom:
    def test_degree_zero(self):
        assert random_coeff_columns(0, [5], 7, deterministic_rng(0)) == [[5]]

    def test_pinned_constant_and_exact_degree(self):
        rng = deterministic_rng(1)
        for _ in range(20):
            coeffs = [c for (c,) in random_coeff_columns(2, [0], 7, rng)]
            assert horner(coeffs, 0, 7) == 0
            assert len(coeffs) == 3 and coeffs[-1] != 0

    def test_seeded_regression(self):
        p1 = random_coeff_columns(1, [4], 11, deterministic_rng(77))
        p2 = random_coeff_columns(1, [4], 11, deterministic_rng(77))
        assert p1 == p2
        assert p1[0] == [4]


class TestLagrange:
    def test_hand_examples(self):
        assert interpolate_zero([(1, 5), (2, 0)], 7) == 3
        assert interpolate_zero([(1, 8), (3, 7)], 11) == 3

    def test_single_point(self):
        assert interpolate_zero([(1, 4)], 7) == 4

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            lagrange_zero_weights([1, 1], 7)

    def test_x_zero_rejected(self):
        with pytest.raises(ValueError):
            lagrange_zero_weights([0], 7)

    def test_round_trip_exhaustive_q7(self):
        # Every polynomial of degree <= 3 comes back from d+1 evaluations.
        q = 7
        for d in range(4):
            for coeffs in itertools.product(range(q), repeat=d + 1):
                pts = [(x, horner(coeffs, x, q)) for x in range(1, d + 2)]
                assert interpolate_zero(pts, q) == coeffs[0]


class TestBirkhoff:
    def test_hand_example_degree2(self):
        q = 11
        cons = [(1, 0, 1), (2, 1, 1), (3, 1, 0)]
        assert birkhoff_coeffs(cons, 2, q) == [4, 3, 5]

    def test_hand_example_degree1(self):
        q = 11
        cons = [(1, 0, 7), (1, 1, 3)]
        assert birkhoff_coeffs(cons, 1, q) == [4, 3]

    def test_degree_zero(self):
        assert birkhoff_coeffs([(0, 0, 5)], 0, 7) == [5]

    def test_duplicate_constraint_rejected(self):
        # A repeated (point, order) adds no information: degree 1 stays
        # undetermined.
        cons = [(1, 0, 1), (1, 0, 2)]
        assert birkhoff_coeffs(cons, 1, 11) is None

    def test_wrong_count_rejected(self):
        # One constraint cannot fix a degree-1 polynomial.
        assert birkhoff_coeffs([(1, 0, 1)], 1, 11) is None

    def test_derivative_only_singular(self):
        cons = [(1, 1, 1), (2, 1, 1)]
        assert birkhoff_coeffs(cons, 1, 11) is None

    def test_consistency_exhaustive_q11(self):
        # Value at 1 plus derivatives at 1..d always returns p exactly.
        q = 11
        for d in range(1, 4):
            for coeffs in itertools.product(range(q), repeat=d + 1):
                cons = value_and_slopes(coeffs, q, d)
                assert birkhoff_coeffs(cons, d, q) == list(coeffs)

    def test_underdetermined_with_d_constraints(self):
        # d constraints for degree d: rank of the constraint matrix <= d.
        q = 11
        rng = deterministic_rng(3)
        for d in range(1, 4):
            for _ in range(20):
                rows = []
                seen = set()
                while len(rows) < d:
                    pt = rng.randrange(1, q)
                    order = rng.randrange(2)
                    if (pt, order) in seen:
                        continue
                    seen.add((pt, order))
                    rows.append(birkhoff_matrix_row(pt, order, d, q))
                # rank <= d: some unit vector of F_q^(d+1) is outside
                # the span.
                units = [[int(i == t) for i in range(d + 1)]
                         for t in range(d + 1)]
                assert any(express_over_rows(rows, e, q) is None
                           for e in units)
