"""Polynomials over F_q, as coefficient columns.

A column holds one coefficient across many polynomials, in a field
Block. random_columns draws the X^1..X^degree columns; the protocol puts
a constant column in front and evaluates them with birkhoff_matrix_row's
weights.
lagrange_zero_weights and birkhoff_matrix_row give the linear weights
that dealing, refresh, interpolation and the oracle solve with.
"""

from __future__ import annotations

from typing import List, Sequence

from . import field


def random_columns(degree: int, count: int, q: int,
                   rng) -> List[field.Block]:
    """The X^1..X^degree coefficient columns of `count` random
    polynomials, in order, every entry uniform over 0..q-1: a leading
    coefficient may be 0, as it must for any `degree` values to be
    independent of the constant term. None for degree 0."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return [field.random_ints(q, count, rng) for _ in range(degree)]


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
