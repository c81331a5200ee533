"""Flat and two-rank (value / derivative) sharing and refresh, on the int
routines the protocol deals with: split_ints, hierarchical_split_ints,
lagrange_zero_weights and per-coefficient Birkhoff solves."""

import itertools
from collections import Counter

import pytest

from multishare.errors import CorruptData, EpochMismatch
from multishare.field import (DEFAULT_MODULUS, deterministic_rng,
                              express_over_rows)
from multishare.poly import (birkhoff_matrix_row, evaluate_columns, horner,
                             hierarchical_split_ints, split_ints)
from multishare.protocol import (LinkKind, NetworkSpec, NodeRefresh,
                                 NodeShare, Topology, apply_node_refresh,
                                 check_share_set, reconstruct, refresh)
from test_poly import birkhoff_coeffs, interpolate_zero


def split(secret, k, n, q, rng):
    """[(x, P(x))] for x in 1..n, P random of degree k-1 with P(0) =
    secret."""
    columns = split_ints([secret], k - 1, n, q, rng)
    return [(x, y) for x, (y,) in enumerate(columns, start=1)]


def hier_split(secret, k, managers, employees, q, rng):
    """(x, order, value) constraints: P(1..managers) at order 0, then
    P'(1..employees) at order 1."""
    values, slopes = hierarchical_split_ints([secret], k - 1, managers,
                                             employees, q, rng)
    return ([(x, 0, y) for x, (y,) in enumerate(values, start=1)]
            + [(x, 1, y) for x, (y,) in enumerate(slopes, start=1)])


def hier_secret(constraints, k, q):
    """P(0) from k constraints, or None when they leave it undetermined."""
    coeffs = birkhoff_coeffs(constraints, k - 1, q)
    return None if coeffs is None else coeffs[0]


def one_network(q, n=3, degree=1):
    """A mother of n nodes and inner degree `degree`, beside one
    single-node daughter, outer degree 1."""
    return Topology(q, (NetworkSpec("m", n, degree, LinkKind.ITS),
                        NetworkSpec("d1", 1, 0, LinkKind.CLASSICAL)), 0, 1)


class TestSplit:
    def test_k1_every_share_is_secret(self):
        shares = split(4, 1, 3, 7, deterministic_rng(0))
        assert all(y == 4 for _, y in shares)

    def test_forced_polynomial(self):
        columns = [[3], [2]]  # P = 3 + 2X over F_7
        assert [evaluate_columns(columns, x, 7) for x in (1, 2, 3)] == [
            [5], [0], [2]]

    def test_shape(self):
        columns = split_ints([2, 5], 2, 5, 7, deterministic_rng(1))
        assert len(columns) == 5
        assert all(len(col) == 2 for col in columns)

    def test_bad_params(self):
        # A quorum above the node count, and node count >= q.
        with pytest.raises(ValueError):
            one_network(7, n=3, degree=3)
        with pytest.raises(ValueError):
            one_network(7, n=7, degree=1)


class TestReconstruct:
    def test_hand_example(self):
        shares = [(1, 5), (2, 0), (3, 2)]  # P = 3 + 2X over F_7
        assert interpolate_zero(shares[:2], 7) == 3
        assert interpolate_zero(shares, 7) == 3  # overdetermined

    def test_insufficient(self):
        # One share of a degree-1 polynomial leaves P(0) undetermined.
        rows = [birkhoff_matrix_row(1, 0, 1, 7)]
        assert express_over_rows(rows, [1, 0], 7) is None

    def test_epoch_mix_rejected(self):
        topo = one_network(7)
        with pytest.raises(EpochMismatch):
            check_share_set([NodeShare("m", 1, 0, (5,)),
                             NodeShare("m", 2, 1, (0,))], topo)

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            interpolate_zero([(1, 5), (1, 5)], 7)

    def test_verify_flags_corruption(self):
        # reconstruct checks every share beyond the quorum against the
        # quorum's polynomial.
        topo = one_network(7)
        daughter = [NodeShare("d1", 1, 0, (1,))]
        good = [NodeShare("m", x, 0, (y,))
                for x, y in ((1, 5), (2, 0), (3, 2))]
        assert reconstruct({"m": good, "d1": daughter}, topo) == (
            reconstruct({"m": good[:2], "d1": daughter}, topo))
        bad = good[:2] + [NodeShare("m", 3, 0, (6,))]
        with pytest.raises(CorruptData, match="network m: .* node 3"):
            reconstruct({"m": bad, "d1": daughter}, topo)

    def test_round_trip_exhaustive_q7(self):
        rng = deterministic_rng(11)
        for n in range(1, 6):
            for k in range(1, n + 1):
                for secret in range(7):
                    shares = split(secret, k, n, 7, rng)
                    for subset in itertools.combinations(shares, k):
                        assert interpolate_zero(subset, 7) == secret

    def test_round_trip_big_field(self):
        rng = deterministic_rng(12)
        q = DEFAULT_MODULUS
        for _ in range(5):
            secret = rng.getrandbits(126) % q
            shares = split(secret, 3, 5, q, rng)
            for subset in itertools.combinations(shares, 3):
                assert interpolate_zero(subset, q) == secret


class TestPerfectSecrecy:
    def test_exact_histograms_q7(self):
        # Over all polynomials with a given constant term (any degree up
        # to k-1), any k-1 share positions have a secret-independent
        # joint distribution -- exactly.
        q = 7
        for k in (2, 3):
            n = 4
            positions = list(itertools.combinations(range(1, n + 1), k - 1))
            for pos in positions:
                hists = []
                for secret in range(q):
                    counter = Counter()
                    for tail in itertools.product(range(q), repeat=k - 1):
                        coeffs = [secret, *tail]
                        counter[tuple(horner(coeffs, x, q) for x in pos)] += 1
                    hists.append(counter)
                assert all(h == hists[0] for h in hists)


class TestHierarchical:
    def test_degree1_derivative_constant(self):
        # With forced P = 4 + 3X over F_11 every employee holds 3.
        q = 11
        columns = [[4], [3]]
        manager = (1, 0, evaluate_columns(columns, 1, q)[0])
        employees = [(x, 1, evaluate_columns(columns, x, q, order=1)[0])
                     for x in (1, 2, 3)]
        assert manager[2] == 7
        assert all(y == 3 for _, _, y in employees)
        assert hier_secret([manager, employees[0]], 2, q) == 4

    def test_shape(self):
        values, slopes = hierarchical_split_ints([1], 2, 2, 4, 11,
                                                 deterministic_rng(0))
        assert (len(values), len(slopes)) == (2, 4)
        assert all(len(col) == 1 for col in values + slopes)

    def test_employees_only_no_quorum(self):
        shares = hier_split(5, 2, 1, 4, 11, deterministic_rng(2))
        employees = [s for s in shares if s[1] == 1]
        for subset in itertools.combinations(employees, 2):
            assert hier_secret(subset, 2, 11) is None

    def test_too_few_shares(self):
        shares = hier_split(5, 3, 1, 4, 11, deterministic_rng(2))
        assert hier_secret(shares[:2], 3, 11) is None

    def test_duplicate_rejected(self):
        # A share given twice counts once: degree 1 stays undetermined.
        s = hier_split(5, 2, 1, 2, 11, deterministic_rng(2))[0]
        assert hier_secret([s, s], 2, 11) is None

    @pytest.mark.parametrize("k,m,e", [(2, 1, 3), (3, 2, 4), (4, 1, 5)])
    def test_round_trip_any_quorum(self, k, m, e):
        q = 11
        rng = deterministic_rng(k * 100 + m)
        shares = hier_split(6, k, m, e, q, rng)
        for subset in itertools.combinations(shares, k):
            if not any(order == 0 for _, order, _ in subset):
                continue
            got = hier_secret(subset, k, q)
            if got is None:
                continue
            assert got == 6

    def test_manager_heavy_selection(self):
        # Three managers and one employee over-determine degree 2; the
        # secret comes out of all four at once.
        q = 11
        rng = deterministic_rng(9)
        shares = hier_split(8, 3, 3, 1, q, rng)
        rows = [birkhoff_matrix_row(x, order, 2, q) for x, order, _ in shares]
        weights = express_over_rows(rows, [1, 0, 0], q)
        assert sum(w * y for w, (_, _, y) in zip(weights, shares)) % q == 8


class TestRefresh:
    def test_deltas_reconstruct_to_zero(self):
        deltas = split(0, 2, 3, 7, deterministic_rng(4))
        for subset in itertools.combinations(deltas, 2):
            assert interpolate_zero(subset, 7) == 0

    def test_forced_polynomial(self):
        expected = [horner([0, 5], x, 7) for x in (1, 2, 3)]
        assert expected == [5, 3, 1]

    def test_shape(self):
        topo = one_network(7, n=4)
        deltas = refresh(topo, 1, 3, deterministic_rng(4))
        assert len(deltas["m"]) == 4
        assert all(d.from_epoch == 3 for d in deltas["m"])

    def test_apply(self):
        share = NodeShare("m", 1, 0, (5,))
        out = apply_node_refresh(share, NodeRefresh("m", 1, 0, (5,)), 7)
        assert (out.values, out.epoch) == ((3,), 1)  # 10 mod 7

    def test_apply_zero_delta(self):
        share = NodeShare("m", 1, 0, (5,))
        out = apply_node_refresh(share, NodeRefresh("m", 1, 0, (0,)), 7)
        assert (out.values, out.epoch) == ((5,), 1)

    def test_apply_mismatches(self):
        share = NodeShare("m", 1, 0, (5,))
        with pytest.raises(ValueError):
            apply_node_refresh(share, NodeRefresh("m", 2, 0, (0,)), 7)
        with pytest.raises(ValueError):
            apply_node_refresh(share, NodeRefresh("m", 1, 1, (0,)), 7)

    def test_secret_preserved_across_rounds(self):
        rng = deterministic_rng(21)
        shares = split(4, 2, 4, 7, rng)
        for _ in range(4):
            deltas = split(0, 2, 4, 7, rng)
            shares = [(x, (y + d) % 7)
                      for (x, y), (_, d) in zip(shares, deltas)]
            for subset in itertools.combinations(shares, 2):
                assert interpolate_zero(subset, 7) == 4

    def test_post_refresh_value_uniform_q7(self):
        # Exhaustive over refresh polynomials with Q(0)=0 (any degree
        # below k): each position's post-refresh value is uniform.
        q, k = 7, 3
        y0 = 5
        for x in (1, 2, 3):
            counter = Counter()
            for tail in itertools.product(range(q), repeat=k - 1):
                delta = horner([0, *tail], x, q)
                counter[(y0 + delta) % q] += 1
            assert set(counter) == set(range(q))
            assert len(set(counter.values())) == 1
