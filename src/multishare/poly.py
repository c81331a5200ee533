"""Polynomials over F_q, as plain-int coefficient columns.

Dealing works on columns: one list per coefficient across many
polynomials, the constant term first. random_coeff_columns draws them,
evaluate_columns evaluates them (or their first derivative) at a point
in one pass per coefficient, and split_ints / hierarchical_split_ints
are the flat and two-rank (value / derivative) sharings built on the
two. lagrange_zero_weights and birkhoff_matrix_row give the linear
weights that interpolation and the oracle solve with. The scalar horner
and derivative_coeffs are the per-polynomial reference the tests check
the column routines against.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from . import field


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


def split_ints(secrets: Sequence[int], degree: int, n: int, q: int, rng
               ) -> List[List[int]]:
    """Columns P(1)..P(n), each across all secrets, for random P of
    exactly `degree`, one per secret, with P(0) = that secret."""
    p = random_coeff_columns(degree, secrets, q, rng)
    return [evaluate_columns(p, x, q) for x in range(1, n + 1)]


def hierarchical_split_ints(secrets: Sequence[int], degree: int,
                            managers: int, employees: int, q: int, rng
                            ) -> Tuple[List[List[int]], List[List[int]]]:
    """(columns P(1..managers), columns P'(1..employees)), each across all
    secrets, for random P of exactly `degree`, one per secret, with
    P(0) = that secret."""
    p = random_coeff_columns(degree, secrets, q, rng)
    return ([evaluate_columns(p, x, q) for x in range(1, managers + 1)],
            [evaluate_columns(p, x, q, order=1)
             for x in range(1, employees + 1)])


def horner(coeffs: Sequence[int], x: int, q: int) -> int:
    """Value at x of the polynomial with these coefficients, mod q."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def derivative_coeffs(coeffs: Sequence[int], q: int) -> List[int]:
    """Formal derivative: coefficient i*c_i shifted down one slot."""
    return [i * c % q for i, c in enumerate(coeffs)][1:] or [0]


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
