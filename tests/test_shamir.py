"""Flat and two-rank (value / derivative) sharing and refresh: through
deal and refresh, and on polynomials drawn by random_ints and evaluated
by the reference's horner, recovered with lagrange_zero_weights and
per-coefficient Birkhoff solves."""

import itertools
from collections import Counter

import pytest

from multishare.errors import CorruptData, EpochMismatch
from multishare.field import (DEFAULT_MODULUS, deterministic_rng,
                              express_over_rows, random_ints)
from multishare.protocol import (NetworkRefresh, NodeShare,
                                 apply_node_refresh, birkhoff_matrix_row,
                                 check_shares, deal, reconstruct, refresh)
from reference import (birkhoff_coeffs, chained, derivative_coeffs, horner,
                       interpolate_zero)
from support import ScriptedRng, make_topology


def random_poly(secret, degree, q, rng):
    """The coefficients of a random polynomial of degree at most `degree`
    with constant term `secret`."""
    return [secret, *(random_ints(q, 1, rng)[0] for _ in range(degree))]


def split(secret, k, n, q, rng):
    """[(x, P(x))] for x in 1..n, P random of degree k-1 with P(0) =
    secret."""
    coeffs = random_poly(secret, k - 1, q, rng)
    return [(x, horner(coeffs, x, q)) for x in range(1, n + 1)]


def hier_split(secret, k, managers, employees, q, rng):
    """(x, order, value) constraints: P(1..managers) at order 0, then
    P'(1..employees) at order 1."""
    coeffs = random_poly(secret, k - 1, q, rng)
    slopes = derivative_coeffs(coeffs, q)
    return ([(x, 0, horner(coeffs, x, q)) for x in range(1, managers + 1)]
            + [(x, 1, horner(slopes, x, q))
               for x in range(1, employees + 1)])


def hier_secret(constraints, k, q):
    """P(0) from k constraints, or None when they leave it undetermined."""
    coeffs = birkhoff_coeffs(constraints, k - 1, q)
    return None if coeffs is None else coeffs[0]


def one_column(delta, network="m", epoch=0):
    """A refresh round of a three-node network over F_7, one chunk, whose
    single coefficient column gives node 1 the delta `delta`."""
    return NetworkRefresh(network, epoch, 3, 1, 7, ([delta],))


class TestSplit:
    def test_k1_every_share_is_secret(self):
        shares = split(4, 1, 3, 7, deterministic_rng(0))
        assert all(y == 4 for _, y in shares)

    def test_forced_polynomial(self):
        # P = 3 + 2X over F_7 at nodes 1..3, through the node evaluation
        # that deal and refresh share: 3 as the constant, 2 as X's column.
        share = NodeShare("m", 1, 0, (3,))
        assert [apply_node_refresh(share._replace(node_index=x),
                                   one_column(2)).values
                for x in (1, 2, 3)] == [(5,), (0,), (2,)]

    def test_shape(self):
        dealt = deal([2, 5], make_topology(7, [(5, 2), (1, 0)]),
                     deterministic_rng(1))
        assert [s.node_index for s in dealt["m"]] == [1, 2, 3, 4, 5]
        assert all(len(s.values) == 2 for s in dealt["m"])

    def test_bad_params(self):
        # A quorum above the node count, and node count >= q.
        with pytest.raises(ValueError):
            make_topology(7, [(3, 3), (1, 0)])
        with pytest.raises(ValueError):
            make_topology(7, [(7, 1), (1, 0)])


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
        topo = make_topology(7, [(3, 1), (1, 0)])
        with pytest.raises(EpochMismatch):
            check_shares([NodeShare("m", 1, 0, (5,)),
                          NodeShare("m", 2, 1, (0,))], topo)

    def test_shares_grouped_by_network(self):
        # The networks in the order their first share appears, each
        # network's shares in node-index order.
        topo = make_topology(7, [(3, 1), (1, 0)])
        m1, m3, d1 = (NodeShare("m", 1, 2, (4,)), NodeShare("m", 3, 2, (5,)),
                      NodeShare("d1", 1, 2, (1,)))
        epoch, count, held = check_shares([d1, m3, m1], topo)
        assert (epoch, count, list(held.items())) == (
            2, 1, [("d1", [d1]), ("m", [m1, m3])])
        assert check_shares([], topo) == (0, 0, {})

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            interpolate_zero([(1, 5), (1, 5)], 7)

    def test_verify_flags_corruption(self):
        # reconstruct checks every share beyond the quorum against the
        # quorum's polynomial.
        topo = make_topology(7, [(3, 1), (1, 0)])
        daughter = [NodeShare("d1", 1, 0, (1,))]
        good = [NodeShare("m", x, 0, (y,))
                for x, y in ((1, 5), (2, 0), (3, 2))]
        assert reconstruct(chained({"m": good, "d1": daughter}), topo) == (
            reconstruct(chained({"m": good[:2], "d1": daughter}), topo))
        bad = good[:2] + [NodeShare("m", 3, 0, (6,))]
        with pytest.raises(CorruptData, match="network m: .* node 3"):
            reconstruct(chained({"m": bad, "d1": daughter}), topo)

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
        # With forced P = 4 + 3X over F_11 deal gives the mother P(1) = 7
        # and every daughter P'(a) = 3; with inner degree 0 everywhere a
        # share is its network's inner secret.
        q = 11
        t = make_topology(q, [(1, 0)] * 4)
        dealt = deal([4], t, ScriptedRng([3], q))
        assert {nid: s.values for nid, (s,) in dealt.items()} == {
            "m": (7,), "d1": (3,), "d2": (3,), "d3": (3,)}
        assert hier_secret([(1, 0, 7), (1, 1, 3)], 2, q) == 4

    def test_shape(self):
        # One share per node, in topology order, each holding every chunk.
        t = make_topology(11, [(2, 1), (2, 1), (4, 2)], 2, mother=1)
        dealt = deal([1, 2, 3], t, deterministic_rng(0))
        assert {nid: [s.node_index for s in lst]
                for nid, lst in dealt.items()} == {
            "d1": [1, 2], "m": [1, 2], "d2": [1, 2, 3, 4]}
        assert list(dealt) == ["d1", "m", "d2"]
        assert all(len(s.values) == 3 for lst in dealt.values() for s in lst)

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
        deltas = refresh(make_topology(7, [(3, 1), (1, 0)]), 1, 0,
                         deterministic_rng(4))["m"]
        points = [(x, deltas.delta(x)[0]) for x in (1, 2, 3)]
        for subset in itertools.combinations(points, 2):
            assert interpolate_zero(subset, 7) == 0

    def test_forced_polynomial(self):
        expected = [horner([0, 5], x, 7) for x in (1, 2, 3)]
        assert expected == [5, 3, 1]
        assert [one_column(5).delta(x) for x in (1, 2, 3)] == [
            (5,), (3,), (1,)]

    def test_shape(self):
        topo = make_topology(7, [(4, 1), (1, 0)])
        deltas = refresh(topo, 1, 3, deterministic_rng(4))
        assert deltas["m"].node_count == 4
        assert deltas["m"].from_epoch == 3

    def test_apply(self):
        share = NodeShare("m", 1, 0, (5,))
        out = apply_node_refresh(share, one_column(5))
        assert (out.values, out.epoch) == ((3,), 1)  # 10 mod 7

    def test_apply_zero_delta(self):
        share = NodeShare("m", 1, 0, (5,))
        out = apply_node_refresh(share, one_column(0))
        assert (out.values, out.epoch) == ((5,), 1)

    def test_apply_mismatches(self):
        share = NodeShare("m", 1, 0, (5,))
        with pytest.raises(ValueError):
            apply_node_refresh(share, one_column(0, network="d1"))
        with pytest.raises(ValueError):
            apply_node_refresh(NodeShare("m", 4, 0, (5,)), one_column(0))
        with pytest.raises(ValueError):
            apply_node_refresh(share, one_column(0, epoch=1))

    def test_secret_preserved_across_rounds(self):
        # Every quorum of the mother keeps its inner secret, and the
        # vault its secret, through four rounds.
        rng = deterministic_rng(21)
        t = make_topology(7, [(4, 1), (1, 0)])
        dealt = deal([4], t, rng)
        points = [(s.node_index, s.values[0]) for s in dealt["m"]]
        inner = interpolate_zero(points[:2], 7)
        for epoch in range(4):
            deltas = refresh(t, 1, epoch, rng)
            dealt = {nid: [apply_node_refresh(s, deltas[nid]) for s in lst]
                     for nid, lst in dealt.items()}
            points = [(s.node_index, s.values[0]) for s in dealt["m"]]
            for subset in itertools.combinations(points, 2):
                assert interpolate_zero(subset, 7) == inner
            assert reconstruct(chained(dealt), t) == [4]

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
