import itertools

import pytest

from multishare.errors import UnsolvableConstraints
from multishare.field import FieldElement, deterministic_rng, express_over_rows
from multishare.poly import (BirkhoffConstraint, Polynomial, birkhoff_solve,
                             birkhoff_matrix_row, lagrange_at_zero)


def fe(v, q):
    return FieldElement(v, q)


class TestEvaluate:
    def test_hand_values(self):
        p = Polynomial([3, 2], 7)
        assert p.evaluate(1).value == 5
        assert p.evaluate(2).value == 0  # 7 mod 7

    def test_at_zero_is_constant(self):
        p = Polynomial([4, 1, 6], 11)
        assert p.evaluate(0).value == 4

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial([1], 7).evaluate(fe(1, 11))


class TestNormalization:
    def test_trailing_zeros_dropped(self):
        assert Polynomial([1, 2, 0, 0], 7).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert Polynomial([0, 0], 7).coeffs == (0,)
        assert Polynomial([0], 7).degree == 0


class TestDerivative:
    def test_hand_example(self):
        # 3 + 2X + 5X^2 over F_7 -> 2 + 3X  (10 mod 7 = 3)
        assert Polynomial([3, 2, 5], 7).derivative() == Polynomial([2, 3], 7)

    def test_constant(self):
        assert Polynomial([5], 7).derivative().is_zero()

    def test_degree_one(self):
        assert Polynomial([4, 3], 11).derivative() == Polynomial([3], 11)

    def test_linearity(self):
        rng = deterministic_rng(5)
        q = 11
        for _ in range(30):
            p = Polynomial([rng.randrange(q) for _ in range(4)], q)
            r = Polynomial([rng.randrange(q) for _ in range(4)], q)
            a, b = rng.randrange(q), rng.randrange(q)
            lhs = (p.scale(a) + r.scale(b)).derivative()
            rhs = p.derivative().scale(a) + r.derivative().scale(b)
            assert lhs == rhs


class TestRandom:
    def test_degree_zero(self):
        p = Polynomial.random(0, 5, 7, deterministic_rng(0))
        assert p.coeffs == (5,)

    def test_pinned_constant_and_exact_degree(self):
        rng = deterministic_rng(1)
        for _ in range(20):
            p = Polynomial.random(2, 0, 7, rng)
            assert p.evaluate(0).value == 0
            assert p.degree == 2

    def test_seeded_regression(self):
        p1 = Polynomial.random(1, 4, 11, deterministic_rng(77))
        p2 = Polynomial.random(1, 4, 11, deterministic_rng(77))
        assert p1 == p2
        assert p1.coeffs[0] == 4


class TestLagrange:
    def test_hand_examples(self):
        q = 7
        assert lagrange_at_zero([(fe(1, q), fe(5, q)),
                                 (fe(2, q), fe(0, q))]).value == 3
        q = 11
        assert lagrange_at_zero([(fe(1, q), fe(8, q)),
                                 (fe(3, q), fe(7, q))]).value == 3

    def test_single_point(self):
        assert lagrange_at_zero([(fe(1, 7), fe(4, 7))]).value == 4

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            lagrange_at_zero([(fe(1, 7), fe(1, 7)), (fe(1, 7), fe(2, 7))])

    def test_x_zero_rejected(self):
        with pytest.raises(ValueError):
            lagrange_at_zero([(fe(0, 7), fe(1, 7))])

    def test_round_trip_exhaustive_q7(self):
        # Every polynomial of degree <= 3 comes back from d+1 evaluations.
        q = 7
        for d in range(4):
            for coeffs in itertools.product(range(q), repeat=d + 1):
                p = Polynomial(coeffs, q)
                pts = [(fe(x, q), p.evaluate(x)) for x in range(1, d + 2)]
                assert lagrange_at_zero(pts).value == coeffs[0]


class TestBirkhoff:
    def test_hand_example_degree2(self):
        q = 11
        cons = [BirkhoffConstraint(fe(1, q), 0, fe(1, q)),
                BirkhoffConstraint(fe(2, q), 1, fe(1, q)),
                BirkhoffConstraint(fe(3, q), 1, fe(0, q))]
        assert birkhoff_solve(cons, 2) == Polynomial([4, 3, 5], q)

    def test_hand_example_degree1(self):
        q = 11
        cons = [BirkhoffConstraint(fe(1, q), 0, fe(7, q)),
                BirkhoffConstraint(fe(1, q), 1, fe(3, q))]
        assert birkhoff_solve(cons, 1) == Polynomial([4, 3], q)

    def test_degree_zero(self):
        q = 7
        cons = [BirkhoffConstraint(fe(0, q), 0, fe(5, q))]
        assert birkhoff_solve(cons, 0) == Polynomial([5], q)

    def test_duplicate_constraint_rejected(self):
        q = 11
        cons = [BirkhoffConstraint(fe(1, q), 0, fe(1, q)),
                BirkhoffConstraint(fe(1, q), 0, fe(2, q))]
        with pytest.raises(ValueError):
            birkhoff_solve(cons, 1)

    def test_wrong_count_rejected(self):
        q = 11
        cons = [BirkhoffConstraint(fe(1, q), 0, fe(1, q))]
        with pytest.raises(ValueError):
            birkhoff_solve(cons, 1)

    def test_derivative_only_singular(self):
        q = 11
        cons = [BirkhoffConstraint(fe(1, q), 1, fe(1, q)),
                BirkhoffConstraint(fe(2, q), 1, fe(1, q))]
        with pytest.raises(UnsolvableConstraints):
            birkhoff_solve(cons, 1)

    def test_consistency_exhaustive_q11(self):
        # Value at 1 plus derivatives at 1..d always returns p exactly.
        q = 11
        for d in range(1, 4):
            for coeffs in itertools.product(range(q), repeat=d + 1):
                p = Polynomial(coeffs, q)
                dp = p.derivative()
                cons = [BirkhoffConstraint(fe(1, q), 0, p.evaluate(1))]
                cons += [BirkhoffConstraint(fe(i, q), 1, dp.evaluate(i))
                         for i in range(1, d + 1)]
                got = birkhoff_solve(cons, d)
                assert got == p

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
