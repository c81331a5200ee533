"""Polynomials over F_q.

Covers evaluation, the formal derivative, random generation with a pinned
constant term, Lagrange interpolation at zero, and recovery from mixed
value/derivative constraints via a linear solve.

The int-level routines (random_coeff_columns, evaluate_columns, horner,
derivative_coeffs, lagrange_zero_weights, birkhoff_weights) are the only
implementations; Polynomial and the FieldElement-level functions wrap
them. Dealing works on columns: one list per coefficient across many
polynomials, evaluated in one pass per coefficient; the scalar horner
serves Polynomial.evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from . import field
from .errors import UnsolvableConstraints
from .field import FieldElement


def _as_int(x: Union[int, FieldElement], modulus: int) -> int:
    if isinstance(x, FieldElement):
        if x.modulus != modulus:
            raise ValueError("modulus mismatch")
        return x.value
    return x % modulus


def random_coeff_columns(degree: int, constants: Sequence[int], q: int,
                         rng) -> List[List[int]]:
    """Coefficient columns (constant first) of len(constants) random
    polynomials of exactly `degree`, the i-th with constant term
    constants[i]: column t holds every polynomial's X^t coefficient.

    Draws the middle columns in order, then the leading column with every
    entry nonzero, so declared and actual degree always agree (degree 0
    is the constants themselves).
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    count = len(constants)
    columns = [list(constants)]
    columns += [field.random_ints(q, count, rng) for _ in range(degree - 1)]
    if degree:
        columns.append(field.random_ints(q, count, rng, nonzero=True))
    return columns


def evaluate_columns(columns: Sequence[Sequence[int]], x: int, q: int,
                     order: int = 0) -> List[int]:
    """Value at x (order 0) or first-derivative value at x (order 1) of
    every polynomial whose coefficient columns these are, mod q."""
    weights = birkhoff_matrix_row(x, order, len(columns) - 1, q)
    return field.weighted_column_sum(weights, columns, q)


def horner(coeffs: Sequence[int], x: int, q: int) -> int:
    """Value at x of the polynomial with these coefficients, mod q."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def derivative_coeffs(coeffs: Sequence[int], q: int) -> List[int]:
    """Formal derivative: coefficient i*c_i shifted down one slot."""
    return [i * c % q for i, c in enumerate(coeffs)][1:] or [0]


class Polynomial:
    """Coefficient vector over F_q; coeffs[i] multiplies X^i.

    Normalized: the trailing coefficient is nonzero unless the polynomial
    is zero, which is stored as the single coefficient (0,).
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Sequence[Union[int, FieldElement]],
                 modulus: int):
        vals = [_as_int(c, modulus) for c in coeffs]
        while len(vals) > 1 and vals[-1] == 0:
            vals.pop()
        if not vals:
            vals = [0]
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.modulus))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)} mod {self.modulus})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)], self.modulus)

    def scale(self, c: Union[int, FieldElement]) -> "Polynomial":
        cv = _as_int(c, self.modulus)
        return Polynomial([cv * x for x in self.coeffs], self.modulus)

    def evaluate(self, x: Union[int, FieldElement]) -> FieldElement:
        q = self.modulus
        return FieldElement(horner(self.coeffs, _as_int(x, q), q), q)

    def derivative(self) -> "Polynomial":
        return Polynomial(derivative_coeffs(self.coeffs, self.modulus),
                          self.modulus)

    @classmethod
    def random(cls, degree: int, constant: Union[int, FieldElement],
               modulus: int, rng) -> "Polynomial":
        """Random polynomial of exactly `degree` with pinned constant term
        (one column of random_coeff_columns)."""
        columns = random_coeff_columns(
            degree, [_as_int(constant, modulus)], modulus, rng)
        return cls([col[0] for col in columns], modulus)


def lagrange_at_zero(points: Sequence[Tuple[FieldElement, FieldElement]]
                     ) -> FieldElement:
    """P(0) for the unique polynomial of degree < len(points) through them.

    x values must be distinct and nonzero (a share at 0 would be the
    secret itself).
    """
    if not points:
        raise ValueError("need at least one point")
    q = points[0][0].modulus
    weights = lagrange_zero_weights([x.value for x, _ in points], q)
    acc = sum(w * y.value for w, (_, y) in zip(weights, points))
    return FieldElement(acc, q)


def lagrange_zero_weights(xs: Sequence[int], q: int) -> list:
    """Weights w_j with P(0) = sum(w_j * y_j); precomputable per x-set."""
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x coordinates")
    if 0 in xs:
        raise ValueError("interpolation point x=0 is not allowed")
    weights = []
    for j, xj in enumerate(xs):
        num, den = 1, 1
        for m, xm in enumerate(xs):
            if m == j:
                continue
            num = num * (-xm) % q
            den = den * (xj - xm) % q
        weights.append(num * pow(den, -1, q) % q)
    return weights


@dataclass(frozen=True)
class BirkhoffConstraint:
    """One interpolation constraint: the value of P (order 0) or of its
    first derivative (order 1) at a point."""
    point: FieldElement
    order: int
    value: FieldElement

    def __post_init__(self):
        if self.order not in (0, 1):
            raise ValueError("order must be 0 or 1")


def birkhoff_matrix_row(point: int, order: int, degree: int, q: int) -> list:
    """Row of powers (order 0) or derivative-of-powers (order 1) for the
    unknown coefficient vector (a_0 .. a_degree)."""
    if order == 0:
        row, p = [], 1
        for _ in range(degree + 1):
            row.append(p)
            p = p * point % q
        return row
    row, p = [0], 1
    for i in range(1, degree + 1):
        row.append(i * p % q)
        p = p * point % q
    return row


def birkhoff_weights(rows: Sequence[Sequence[int]], coeff: int,
                     q: int) -> Optional[list]:
    """Weights w with a_coeff = sum(w_i * value_i) for every polynomial
    meeting the constraints whose birkhoff_matrix_row rows are `rows`;
    None when the constraints leave a_coeff undetermined."""
    unit = [0] * len(rows[0])
    unit[coeff] = 1
    return field.express_over_rows(rows, unit, q)


def birkhoff_solve(constraints: Sequence[BirkhoffConstraint],
                   degree: int) -> Polynomial:
    """Recover the degree-`degree` polynomial meeting all constraints.

    Requires exactly degree+1 constraints. The same point may carry one
    order-0 and one order-1 constraint; exact (point, order) duplicates
    are rejected. Raises UnsolvableConstraints when the constraint matrix
    is singular.
    """
    if len(constraints) != degree + 1:
        raise ValueError("need exactly degree+1 constraints")
    q = constraints[0].point.modulus
    seen = set()
    for c in constraints:
        key = (c.point.value, c.order)
        if key in seen:
            raise ValueError(f"duplicate constraint at {key}")
        seen.add(key)
    rows = [birkhoff_matrix_row(c.point.value, c.order, degree, q)
            for c in constraints]
    values = [c.value.value for c in constraints]
    coeffs = []
    # A square constraint matrix is invertible exactly when every
    # coefficient has weights.
    for t in range(degree + 1):
        weights = birkhoff_weights(rows, t, q)
        if weights is None:
            raise UnsolvableConstraints("singular constraint matrix")
        coeffs.append(sum(w * v for w, v in zip(weights, values)))
    return Polynomial(coeffs, q)
