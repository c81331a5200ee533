"""Flat threshold sharing, two-rank hierarchical sharing, and proactive
refresh deltas.

Share x-coordinates are fixed to 1..n; epochs are explicit and shares
from different epochs never combine. split_ints and
hierarchical_split_ints are the int-level cores: they take a column of
secrets and return one column per share position. The protocol deals
through them, and the FieldElement-level functions below validate their
arguments and wrap them with one-element columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Sequence, Tuple

from .errors import (CorruptShares, EpochMismatch, InsufficientShares,
                     NoQuorum, UnsolvableConstraints)
from .field import FieldElement
from .poly import (BirkhoffConstraint, birkhoff_solve, evaluate_columns,
                   lagrange_at_zero, random_coeff_columns)


@dataclass(frozen=True)
class FlatShare:
    x: int
    y: FieldElement
    threshold_k: int
    epoch: int = 0


class Rank(Enum):
    MANAGER = "manager"      # evaluation of the primitive polynomial
    EMPLOYEE = "employee"    # evaluation of its derivative


@dataclass(frozen=True)
class HierShare:
    rank: Rank
    x: int
    y: FieldElement
    threshold_k: int


@dataclass(frozen=True)
class RefreshDelta:
    x: int
    delta: FieldElement
    from_epoch: int


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


def shamir_split(secret: FieldElement, k: int, n: int, rng
                 ) -> List[FlatShare]:
    """n evaluations of a random degree k-1 polynomial with P(0)=secret."""
    q = secret.modulus
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n >= q:
        raise ValueError("n must be below the field modulus")
    columns = split_ints([secret.value], k - 1, n, q, rng)
    return [FlatShare(x, FieldElement(y, q), k, 0)
            for x, (y,) in enumerate(columns, start=1)]


def shamir_reconstruct(shares: Sequence[FlatShare],
                       verify: bool = False) -> FieldElement:
    """Secret P(0) from the k lowest-x shares.

    With verify=True, all remaining shares are checked against the
    interpolated polynomial and CorruptShares is raised on disagreement
    (best-effort diagnostics only; integrity is out of scope here).
    """
    if not shares:
        raise InsufficientShares("no shares given")
    k = shares[0].threshold_k
    if any(s.threshold_k != k for s in shares):
        raise ValueError("inconsistent thresholds")
    if len({s.epoch for s in shares}) != 1:
        raise EpochMismatch("shares span multiple epochs")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share positions")
    if len(shares) < k:
        raise InsufficientShares(f"{len(shares)} shares, threshold {k}")
    chosen = sorted(shares, key=lambda s: s.x)[:k]
    q = chosen[0].y.modulus
    points = [(FieldElement(s.x, q), s.y) for s in chosen]
    secret = lagrange_at_zero(points)
    if verify:
        for s in shares:
            if s in chosen:
                continue
            # P(s.x) is the value at zero of X -> P(X + s.x).
            at = FieldElement(s.x, q)
            expected = lagrange_at_zero([(x - at, y) for x, y in points])
            if expected != s.y:
                raise CorruptShares(f"share at x={s.x} is off-polynomial")
    return secret


def hierarchical_split(secret: FieldElement, k: int, managers: int,
                       employees: int, rng) -> List[HierShare]:
    """Managers get P(1..m); employees get P'(1..n), for random P of
    degree k-1 with P(0)=secret."""
    q = secret.modulus
    if k < 2:
        raise ValueError("hierarchical threshold needs k >= 2")
    if managers < 1:
        raise ValueError("at least one manager is required")
    if employees < 0:
        raise ValueError("employee count must be >= 0")
    if max(managers, employees) >= q:
        raise ValueError("participant count must be below the modulus")
    values, slopes = hierarchical_split_ints([secret.value], k - 1,
                                             managers, employees, q, rng)
    out = [HierShare(Rank.MANAGER, x, FieldElement(y, q), k)
           for x, (y,) in enumerate(values, start=1)]
    out += [HierShare(Rank.EMPLOYEE, x, FieldElement(y, q), k)
            for x, (y,) in enumerate(slopes, start=1)]
    return out


def _constraint(share: HierShare) -> BirkhoffConstraint:
    q = share.y.modulus
    order = 0 if share.rank is Rank.MANAGER else 1
    return BirkhoffConstraint(FieldElement(share.x, q), order, share.y)


def hierarchical_reconstruct(shares: Sequence[HierShare],
                             k: int) -> FieldElement:
    """P(0) from any solvable k-subset containing at least one manager.

    Prefers one manager plus k-1 employees (any solvable subset yields
    the same polynomial, so selection is not security-relevant). Raises
    NoQuorum when no solvable subset exists.
    """
    keys = [(s.rank, s.x) for s in shares]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate (rank, x) share")
    managers = sorted((s for s in shares if s.rank is Rank.MANAGER),
                      key=lambda s: s.x)
    employees = sorted((s for s in shares if s.rank is Rank.EMPLOYEE),
                       key=lambda s: s.x)
    if len(shares) < k or not managers:
        raise NoQuorum("need k shares including a manager")
    want_emp = min(k - 1, len(employees))
    chosen = managers[:k - want_emp] + employees[:want_emp]
    if len(chosen) == k:
        try:
            p = birkhoff_solve([_constraint(s) for s in chosen], k - 1)
            return p.evaluate(0)
        except UnsolvableConstraints:
            pass
    # Greedy pick unsolvable: fall back to scanning all manager-containing
    # k-subsets before declaring failure.
    for subset in itertools.combinations(shares, k):
        if not any(s.rank is Rank.MANAGER for s in subset):
            continue
        try:
            p = birkhoff_solve([_constraint(s) for s in subset], k - 1)
            return p.evaluate(0)
        except UnsolvableConstraints:
            continue
    raise NoQuorum("no solvable qualifying subset")


def refresh_deltas(k: int, n: int, from_epoch: int, rng, modulus: int
                   ) -> List[RefreshDelta]:
    """Evaluations of a random degree k-1 polynomial with Q(0)=0; adding
    them to same-position shares re-randomizes without moving the secret."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n >= modulus:
        raise ValueError("n must be below the field modulus")
    columns = split_ints([0], k - 1, n, modulus, rng)
    return [RefreshDelta(x, FieldElement(y, modulus), from_epoch)
            for x, (y,) in enumerate(columns, start=1)]


def apply_refresh(share: FlatShare, delta: RefreshDelta) -> FlatShare:
    if share.x != delta.x:
        raise ValueError("delta position does not match share")
    if share.epoch != delta.from_epoch:
        raise ValueError("delta epoch does not match share")
    return replace(share, y=share.y + delta.delta, epoch=share.epoch + 1)
