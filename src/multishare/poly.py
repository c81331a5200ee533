"""Polynomials over F_q, as plain-int coefficient columns.

Dealing works on columns: one list per coefficient across many
polynomials, the constant term first. random_coeff_columns draws them
(random_columns all but the constant column), evaluate_columns evaluates
them (or their first derivative) at a point in one pass per coefficient,
and split_ints (iter_split_ints, one column at a time) /
hierarchical_split_ints are the flat and two-rank (value / derivative)
sharings built on the two. lagrange_zero_weights and
birkhoff_matrix_row give the linear weights that interpolation and the
oracle solve with. The scalar horner and derivative_coeffs are the
per-polynomial reference the tests check the column routines against.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from . import field


def random_coeff_columns(degree: int, constants: Sequence[int], q: int,
                         rng) -> List[List[int]]:
    """Coefficient columns (constant first) of len(constants) random
    polynomials of degree at most `degree`, the i-th with constant term
    constants[i]: column t holds every polynomial's X^t coefficient.
    The constants are copied, then the other columns drawn by
    random_columns (degree 0 is the constants themselves).
    """
    return [list(constants), *random_columns(degree, len(constants), q, rng)]


def random_columns(degree: int, count: int, q: int,
                   rng) -> List[List[int]]:
    """The X^1..X^degree coefficient columns of `count` random
    polynomials, in order, every entry uniform over 0..q-1: a leading
    coefficient may be 0, as it must for any `degree` values to be
    independent of the constant term. None for degree 0."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return [field.random_ints(q, count, rng) for _ in range(degree)]


def evaluate_columns(columns: Sequence[Sequence[int]], x: int, q: int,
                     order: int = 0) -> List[int]:
    """Value at x (order 0) or first-derivative value at x (order 1) of
    every polynomial whose coefficient columns these are, mod q."""
    weights = birkhoff_matrix_row(x, order, len(columns) - 1, q)
    return field.weighted_column_sum(weights, columns, q)


def split_ints(secrets: Sequence[int], degree: int, n: int, q: int, rng
               ) -> List[List[int]]:
    """Columns P(1)..P(n), each across all secrets, for random P of
    degree at most `degree`, one per secret, with P(0) = that secret."""
    return list(iter_split_ints(secrets, degree, n, q, rng))


def iter_split_ints(secrets: Sequence[int], degree: int, n: int, q: int,
                    rng) -> Iterator[List[int]]:
    """split_ints one column at a time: the coefficients are drawn by the
    call, and each column P(x) is evaluated when the iterator reaches it
    and not kept, so the coefficient columns and the column handed out
    are all it holds."""
    p = random_coeff_columns(degree, secrets, q, rng)
    return (evaluate_columns(p, x, q) for x in range(1, n + 1))


def hierarchical_split_ints(secrets: Sequence[int], degree: int,
                            managers: int, employees: int, q: int, rng
                            ) -> Tuple[List[List[int]], List[List[int]]]:
    """(columns P(1..managers), columns P'(1..employees)), each across all
    secrets, for random P of degree at most `degree`, one per secret,
    with P(0) = that secret."""
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
