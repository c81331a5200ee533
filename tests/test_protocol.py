import functools
import io
import itertools
import json
import operator
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import (birkhoff_coeffs, chained, derivative_coeffs, horner,
                       interpolate_zero)
from multishare.errors import (CapacityError, CorruptData, EpochMismatch,
                               Infeasible)
from multishare import field, formats, protocol
from multishare.field import (BLOCK_WORDS, DEFAULT_MODULUS,
                              deterministic_rng, express_over_rows,
                              is_probable_prime)
from multishare.protocol import (Access, LinkKind, NetworkRefresh,
                                 NetworkSpec, NodeShare, Thresholds,
                                 Topology, access_oracle, apply_node_refresh,
                                 birkhoff_matrix_row, check_shares,
                                 compute_thresholds_exhaustive,
                                 compute_thresholds_formula, deal,
                                 decode_secret, encode_secret,
                                 lagrange_zero_weights, reconstruct, refresh)
from support import (ScriptedRng, all_nodes, enumerate_specs,
                     enumerated_held_sets, make_topology)


def dense_sample():
    """The seeded sample of small topologies (at q = 257) on which the
    exhaustive thresholds are checked against the dense reference."""
    return [make_topology(257, nets, outer) for outer, nets
            in random.Random(4).sample(list(enumerate_specs()), 150)]


def count_vector_sets(topology):
    """(counts, held) for every count vector: held is the first counts[i]
    nodes of each network."""
    nets = topology.networks
    for counts in itertools.product(*(range(net.node_count + 1)
                                      for net in nets)):
        yield counts, [(net.id, j) for net, c in zip(nets, counts)
                       for j in range(1, c + 1)]


@functools.lru_cache(maxsize=None)
def dense_verdicts(topology):
    """(counts, held, verdict) for every count vector of `topology`, the
    verdict the dense reference oracle's. Both the threshold and the
    oracle differentials check against these, so each topology's are
    computed once per session."""
    return tuple((counts, held, reference.access_oracle(held, topology))
                 for counts, held in count_vector_sets(topology))


def dense_thresholds(topology):
    """Reference for compute_thresholds_exhaustive: the dense reference
    oracle on every count vector's held set, and each threshold taken from
    its definition."""
    ns = [net.node_count for net in topology.networks]
    mother = topology.mother_index
    ok, bad = [], []
    for counts, _, verdict in dense_verdicts(topology):
        (ok if verdict is Access.RECONSTRUCTS else bad).append(counts)

    def disabled(counts):
        return sum(ns) - sum(counts)

    def daughters_full(counts):
        return all(c == n for i, (c, n) in enumerate(zip(counts, ns))
                   if i != mother)

    return Thresholds(
        t_networks=min(sum(map(bool, c)) for c in ok),
        t_nodes=min(map(sum, ok)),
        t_fail=min(map(disabled, bad)),
        t_f0=min(disabled(c) for c in bad if daughters_full(c)),
        t_f1=min(disabled(c) for c in bad if c[mother] == ns[mother]))


@functools.lru_cache(maxsize=1 << 16)
def spans_secret(q, outer_degree, rows):
    """Whether the constant functionals `rows` span the secret's, by its
    own express_over_rows solve from scratch. Memoized on the rows, so
    each distinct set of rows is solved once per session."""
    return field.express_over_rows(list(rows), [1] + [0] * outer_degree,
                                   q) is not None


def plain_walk_thresholds(topology):
    """Reference for compute_thresholds_exhaustive's pruned walk: every
    one of the 2^L sets of known networks, each decided by an outer solve
    over its rows from the topology's own constant_functional
    (spans_secret), with each network's quorum found by feeding the
    oracle its first nodes until the network is known."""
    nets = topology.networks
    know = protocol.AdversaryKnowledge(topology)
    quorums = []
    for net in nets:
        held = 0
        while net.id not in know.known_networks():
            held += 1
            know.add("share", net.id, held, 0, ())
        quorums.append(held)
    kill = [net.node_count - need + 1 for net, need in zip(nets, quorums)]
    rows = [tuple(protocol.constant_functional(topology, net.id))
            for net in nets]
    ok, bad = [], []
    for known in range(1 << len(nets)):
        inside = [i for i in range(len(nets)) if known >> i & 1]
        if spans_secret(topology.modulus, topology.outer_degree,
                        tuple(rows[i] for i in inside)):
            ok.append(inside)
        else:
            bad.append((set(inside), sum(kill) - sum(kill[i]
                                                     for i in inside)))
    mother = topology.mother_index
    daughters = set(range(len(nets))) - {mother}
    return Thresholds(
        t_networks=min(map(len, ok)),
        t_nodes=min(sum(quorums[i] for i in inside) for inside in ok),
        t_fail=min(cost for _, cost in bad),
        t_f0=min(cost for inside, cost in bad if daughters <= inside),
        t_f1=min(cost for inside, cost in bad if mother in inside))


def walked_thresholds(topology):
    """The thresholds as sums over _walk's family for the topology's
    shape, certified or not: each threshold from its definition over the
    family's reconstructing sets and the rest."""
    order = [topology.mother, *topology.daughters()]
    family = protocol._walk(topology.modulus, topology.outer_degree,
                            len(order))
    kill = [net.kill_cost for net in order]
    reached = [known for known, ok in family if ok]
    t_f1 = min(sum(kill) - sum(kill[i] for i in known)
               for known, ok in family if not ok)
    return Thresholds(
        t_networks=min(map(len, reached)),
        t_nodes=min(sum(order[i].quorum for i in known) for known in reached),
        t_f0=kill[0], t_f1=t_f1, t_fail=min(kill[0], t_f1))


def twelve_networks(outer, q=DEFAULT_MODULUS):
    """12 networks of 12 nodes and inner degree 3: the exhaustive bound."""
    return make_topology(q, [(12, 3)] * 12, outer)


def value_and_slopes(coeffs, q, d, values=1):
    """The constraints P(1..values) and P'(1..d) of the polynomial
    `coeffs`."""
    dp = derivative_coeffs(coeffs, q)
    return ([(x, 0, horner(coeffs, x, q)) for x in range(1, values + 1)]
            + [(i, 1, horner(dp, i, q)) for i in range(1, d + 1)])


def one_column(delta, network="m", epoch=0):
    """A refresh round of a three-node network over F_7, one chunk, whose
    single coefficient column gives node 1 the delta `delta`."""
    return NetworkRefresh(network, epoch, 3, 1, 7, ([delta],))


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

    def test_round_trip_big_field(self):
        # Any 3 of 5 evaluations of a degree-2 polynomial at 2^127 - 1.
        rng = deterministic_rng(12)
        q = DEFAULT_MODULUS
        for _ in range(5):
            coeffs = [rng.randrange(q) for _ in range(3)]
            pts = [(x, horner(coeffs, x, q)) for x in range(1, 6)]
            for subset in itertools.combinations(pts, 3):
                assert interpolate_zero(subset, q) == coeffs[0]


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

    def test_insufficient(self):
        # One share of a degree-1 polynomial leaves P(0) undetermined.
        rows = [birkhoff_matrix_row(1, 0, 1, 7)]
        assert express_over_rows(rows, [1, 0], 7) is None

    def test_employees_only_no_quorum(self):
        # Any two of the slopes P'(1..4) of a degree-1 polynomial.
        slopes = value_and_slopes([5, 3], 11, 4)[1:]
        for subset in itertools.combinations(slopes, 2):
            assert birkhoff_coeffs(subset, 1, 11) is None

    def test_too_few_shares(self):
        # P(1) and P'(1) of a degree-2 polynomial.
        cons = value_and_slopes([5, 3, 8], 11, 1)
        assert birkhoff_coeffs(cons, 2, 11) is None

    def test_share_given_twice_counts_once(self):
        # The same P(1) twice: degree 1 stays undetermined.
        value = value_and_slopes([5, 3], 11, 0)[0]
        assert birkhoff_coeffs([value, value], 1, 11) is None

    @pytest.mark.parametrize("k,m,e", [(2, 1, 3), (3, 2, 4), (4, 1, 5)])
    def test_round_trip_any_quorum(self, k, m, e):
        # Every k of the values P(1..m) and the slopes P'(1..e) of a
        # polynomial of degree k - 1 give it back or leave it undetermined.
        q = 11
        rng = deterministic_rng(k * 100 + m)
        coeffs = [6, *(rng.randrange(q) for _ in range(k - 1))]
        for subset in itertools.combinations(
                value_and_slopes(coeffs, q, e, m), k):
            assert birkhoff_coeffs(subset, k - 1, q) in (None, coeffs)

    def test_manager_heavy_selection(self):
        # P(1..3) and P'(1) over-determine degree 2; P(0) comes out of all
        # four at once.
        q = 11
        cons = value_and_slopes([8, 4, 9], q, 1, 3)
        rows = [birkhoff_matrix_row(x, order, 2, q) for x, order, _ in cons]
        weights = express_over_rows(rows, [1, 0, 0], q)
        assert sum(w * y for w, (_, _, y) in zip(weights, cons)) % q == 8

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


class TestTopology:
    def test_valid(self):
        t = make_topology(11)
        assert t.mother.id == "m"
        assert [n.id for n in t.daughters()] == ["d1", "d2"]
        assert [n.id for n in t.positions()] == ["m", "d1", "d2"]
        t = make_topology(11, mother=1)
        assert [n.id for n in t.networks] == ["d1", "m", "d2"]
        assert [n.id for n in t.positions()] == ["m", "d1", "d2"]

    def test_needs_two_networks(self):
        with pytest.raises(ValueError):
            make_topology(11, [(3, 1)])

    def test_outer_degree_bounds(self):
        with pytest.raises(ValueError):
            make_topology(11, [(3, 1)] * 2, outer=2)
        with pytest.raises(ValueError):
            make_topology(11, [(3, 1)] * 2, outer=0)

    def test_quorum_must_fit(self):
        with pytest.raises(ValueError):
            make_topology(11, [(2, 2), (3, 1)])

    def test_bad_params(self):
        # A quorum above the node count, and node count >= q.
        with pytest.raises(ValueError):
            make_topology(7, [(3, 3), (1, 0)])
        with pytest.raises(ValueError):
            make_topology(7, [(7, 1), (1, 0)])

    @pytest.mark.parametrize("q", [5, 7, 11, 257])
    def test_daughter_count_below_modulus(self, q):
        # Daughter a's point is a mod q: daughter q's would be 0, and
        # daughter a > q's that of daughter a - q.
        assert len(make_topology(q, [(1, 0)] * q).daughters()) == q - 1
        with pytest.raises(ValueError,
                           match="daughter count must be below modulus"):
            make_topology(q, [(1, 0)] * (q + 1))

    def test_link_kinds_enforced(self):
        nets = (NetworkSpec("m", 3, 1, LinkKind.CLASSICAL),
                NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL))
        with pytest.raises(ValueError):
            Topology(11, nets, 0, 1)

    def test_modulus_must_be_prime(self):
        with pytest.raises(ValueError):
            make_topology(15, [(3, 1)] * 2)

    def test_replace_and_make_check_too(self):
        # _replace and _make build through the constructor's check.
        t = make_topology(11)
        with pytest.raises(ValueError, match="outer degree"):
            t._replace(outer_degree=len(t.networks))
        with pytest.raises(ValueError, match="mother index"):
            Topology._make([11, t.networks, 3, 1])
        assert t._replace(outer_degree=2) == make_topology(11, outer=2)
        assert Topology._make(t) == t

    def test_default_modulus_skips_primality_test(self, monkeypatch):
        # 2^127 - 1 is a proven prime, so Topology accepts it without
        # Miller-Rabin; every other modulus still goes through the test.
        assert is_probable_prime(DEFAULT_MODULUS)
        tested = []

        def probe(n):
            tested.append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(protocol, "is_probable_prime", probe)
        assert make_topology(DEFAULT_MODULUS).modulus == DEFAULT_MODULUS
        assert tested == []
        make_topology(257)
        for composite in (561, 2**127 + 1, (2**61 - 1) * (2**31 - 1)):
            with pytest.raises(ValueError):
                make_topology(composite)
        assert tested == [257, 561, 2**127 + 1, (2**61 - 1) * (2**31 - 1)]


class TestQuorumPlansFullRank:
    """Topology keeps node indices 1..n and daughter points 1..L-1
    distinct nonzero residues, so every plan that reconstruct builds over
    a full quorum finds its weights and checks every further member: a
    further member's changed value, and only it, is flagged. Every
    choice of quorum, at every size that Topology takes."""

    @staticmethod
    def _check_plan(rows, size, q, rng):
        plan = protocol._QuorumPlan(rows, size, q)
        assert plan.weights is not None
        assert None not in plan.further
        coefficients = [rng.randrange(q) for _ in rows[0]]
        columns = [[sum(r * c for r, c in zip(row, coefficients)) % q]
                   for row in rows]
        assert plan.check(columns) == ([coefficients[0]], [])
        for i in range(size, len(rows)):
            changed = columns[:i] + [[(columns[i][0] + 1) % q]] \
                + columns[i + 1:]
            assert plan.check(changed)[1] == [i]

    @pytest.mark.parametrize("q", [5, 7, 11])
    def test_outer_plans(self, q):
        rng = random.Random(q)
        for l in range(2, q + 1):
            for d in range(1, l):
                t = make_topology(q, [(1, 0)] * l, d)
                rows = [protocol.constant_functional(t, net.id)
                        for net in t.networks]
                for chosen in itertools.combinations(range(1, l), d):
                    rest = [a for a in range(1, l) if a not in chosen]
                    self._check_plan([rows[0], *(rows[a] for a in chosen),
                                      *(rows[a] for a in rest)], d + 1, q,
                                     rng)

    @pytest.mark.parametrize("q", [5, 7, 11])
    def test_inner_plans(self, q):
        rng = random.Random(q)
        for n in range(1, q):
            for k in range(n):
                rows = {j: protocol.birkhoff_matrix_row(j, 0, k, q)
                        for j in range(1, n + 1)}
                for quorum in itertools.combinations(rows, k + 1):
                    self._check_plan(
                        [rows[j] for j in quorum]
                        + [rows[j] for j in rows if j not in quorum],
                        k + 1, q, rng)


class TestDeal:
    def test_worked_example(self):
        # Forced P=4+3X, Q0=7+2X, Q1=3+5X, Q2=3+X over F_11.
        t = make_topology(11)
        rng = ScriptedRng([3, 2, 5, 1], 11)
        dealt = deal([4], t, rng)
        values = {nid: [s.values[0] for s in shares]
                  for nid, shares in dealt.items()}
        assert values == {"m": [9, 0, 2], "d1": [8, 2, 7], "d2": [4, 5, 6]}

    def test_shape(self):
        t = make_topology(11)
        dealt = deal([4, 5], t,
                     deterministic_rng(0))
        assert sum(len(v) for v in dealt.values()) == 9
        for shares in dealt.values():
            for s in shares:
                assert s.epoch == 0 and len(s.values) == 2

    def test_shape_mother_not_first(self):
        # One share per node, in topology order, each holding every chunk.
        t = make_topology(11, [(2, 1), (2, 1), (4, 2)], 2, mother=1)
        dealt = deal([1, 2, 3], t, deterministic_rng(0))
        assert [(nid, [s.node_index for s in lst])
                for nid, lst in dealt.items()] == [
            ("d1", [1, 2]), ("m", [1, 2]), ("d2", [1, 2, 3, 4])]
        assert all(len(s.values) == 3 for lst in dealt.values() for s in lst)

    @pytest.mark.parametrize("q,nets,want", [
        (11, [(1, 0)] * 4, {"m": [7], "d1": [3], "d2": [3], "d3": [3]}),
        (7, [(3, 0), (2, 0)], {"m": [0, 0, 0], "d1": [3, 3]})],
        ids=["degree1_derivative_constant", "k1_every_share_is_secret"])
    def test_inner_degree_zero(self, q, nets, want):
        # Forced P = 4 + 3X: with inner degree 0 every node holds its
        # network's inner secret, P(1) for the mother and P'(a) = 3 for
        # each daughter.
        dealt = deal([4], make_topology(q, nets), ScriptedRng([3], q))
        assert {nid: [s.values[0] for s in lst]
                for nid, lst in dealt.items()} == want

    def test_degenerate_two_networks(self):
        # deg(P)=1: the single daughter holds shares of the constant P'.
        t = make_topology(11, [(2, 1), (2, 0)])
        dealt = deal([4], t, deterministic_rng(3))
        d1 = dealt["d1"]
        assert d1[0].values[0] == d1[1].values[0]

    def test_chunk_modulus_checked(self):
        with pytest.raises(ValueError):
            deal([11], make_topology(11), deterministic_rng(0))
        # Checked where its block of chunks is packed, in any block.
        with pytest.raises(ValueError):
            deal([0] * BLOCK_WORDS + [-1], make_topology(11), deterministic_rng(0))

    def test_scripted_rejections_skipped(self):
        # The worked example's draws, with rejected words in between:
        # words at or above q = 11, and a word whose bits above
        # bit_length(11) = 4 are masked off (0xf3 -> 3).
        rng = ScriptedRng([12, 11, 0xf3, 14, 2, 5, 13, 15, 1], 11)
        dealt = deal([4], make_topology(11), rng)
        values = {nid: [s.values[0] for s in shares]
                  for nid, shares in dealt.items()}
        assert values == {"m": [9, 0, 2], "d1": [8, 2, 7], "d2": [4, 5, 6]}
        assert rng.values == []

    def test_rejected_words_topped_up_in_order(self):
        # Two chunks: each column is one block of two words, and only
        # the rejected words are drawn again. A zero is a coefficient like
        # any other.
        t = make_topology(11)
        rng = ScriptedRng([3, 11, 13, 6,           # p_1: 3, 6
                           12, 2, 7,               # m: 2, 7
                           5, 14, 4,               # d1: 5, 4
                           0, 1], 11)              # d2: 0, 1
        dealt = deal([4, 0], t, rng)
        assert rng.values == []
        assert dealt["m"][0].values == ((4 + 3 + 2) % 11, (0 + 6 + 7) % 11)
        assert dealt["d1"][1].values == ((3 + 2 * 5) % 11, (6 + 2 * 4) % 11)
        assert reconstruct(chained(dealt), t) == [4, 0]

    @pytest.mark.parametrize("q", [257, DEFAULT_MODULUS],
                             ids=["q257", "q2^127-1"])
    def test_columns_match_per_chunk_horner(self, q):
        # Multi-chunk deal and refresh against the per-chunk horner
        # reference, on a topology whose mother is not first, then a
        # reconstruct of the refreshed shares.
        t = make_topology(q, [(3, 1), (4, 2), (4, 0), (5, 3)], 2, mother=1)
        chunks = [deterministic_rng(c).randrange(q) for c in range(40)]
        m = len(chunks)
        dealt = deal(chunks, t, deterministic_rng(11))
        assert dealt == reference.deal(chunks, t, deterministic_rng(11))
        deltas = refresh(t, m, 0, deterministic_rng(12))
        want = reference.refresh(t, m, 0, deterministic_rng(12))
        for net in t.networks:
            assert [s.node_index for s in dealt[net.id]] == list(
                range(1, net.node_count + 1))
            assert [deltas[net.id].delta(d.node_index)
                    for d in want[net.id]] == [d.values for d in want[net.id]]
        refreshed = {nid: [apply_node_refresh(s, deltas[nid]) for s in lst]
                     for nid, lst in dealt.items()}
        assert reconstruct(chained(refreshed), t) == chunks
        assert reconstruct(chained(dealt), t) == chunks


class TestReconstruct:
    def _dealt_example(self):
        t = make_topology(11)
        dealt = deal([4], t, ScriptedRng([3, 2, 5, 1], 11))
        return t, dealt

    def test_quorum_exact_subset(self):
        t, dealt = self._dealt_example()
        subset = {"m": dealt["m"][:2], "d1": [dealt["d1"][0], dealt["d1"][2]]}
        assert reconstruct(chained(subset), t)[0] == 4

    def test_maximal_set(self):
        t, dealt = self._dealt_example()
        assert reconstruct(chained(dealt), t)[0] == 4

    def test_missing_mother_infeasible(self):
        t, dealt = self._dealt_example()
        with pytest.raises(Infeasible) as err:
            reconstruct(chained({"d1": dealt["d1"], "d2": dealt["d2"]}), t)
        assert "mother" in str(err.value)

    def test_missing_daughters_infeasible(self):
        t, dealt = self._dealt_example()
        with pytest.raises(Infeasible) as err:
            reconstruct(chained({"m": dealt["m"]}), t)
        assert "daughter" in str(err.value)

    @pytest.mark.parametrize("network_id, node_index", [
        ("m", 0), ("m", 4), ("m", 12), ("d9", 1)])
    def test_share_not_a_node_rejected(self, network_id, node_index):
        # Node 12 is node 1 modulo 11; d9 is not a network of the topology.
        t, dealt = self._dealt_example()
        stray = dealt["m"][1]._replace(network_id=network_id,
                                       node_index=node_index)
        with pytest.raises(CorruptData, match="not a node"):
            reconstruct(chained({"m": [dealt["m"][0], stray],
                                 "d1": dealt["d1"]}), t)

    def test_epoch_mix_rejected(self):
        t, dealt = self._dealt_example()
        moved = [NodeShare("d1", s.node_index, 1, s.values)
                 for s in dealt["d1"]]
        with pytest.raises(EpochMismatch):
            reconstruct(chained({"m": dealt["m"], "d1": moved}), t)

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

    def test_verify_flags_corruption(self):
        # reconstruct checks every share beyond the quorum against the
        # quorum's polynomial, here P = 3 + 2X over F_7.
        topo = make_topology(7, [(3, 1), (1, 0)])
        daughter = [NodeShare("d1", 1, 0, (1,))]
        good = [NodeShare("m", x, 0, (y,))
                for x, y in ((1, 5), (2, 0), (3, 2))]
        assert reconstruct(chained({"m": good, "d1": daughter}), topo) == (
            reconstruct(chained({"m": good[:2], "d1": daughter}), topo))
        bad = good[:2] + [NodeShare("m", 3, 0, (6,))]
        with pytest.raises(CorruptData, match="network m: .* node 3"):
            reconstruct(chained({"m": bad, "d1": daughter}), topo)

    def _foreign_d2(self):
        """make_topology(11) dealt, with d2's shares, consistent with one another,
        raised by 1: m and d1 determine another inner secret for d2."""
        t = make_topology(11)
        dealt = deal([4, 5], t, deterministic_rng(2))
        dealt["d2"] = [s._replace(values=tuple((v + 1) % 11
                                               for v in s.values))
                       for s in dealt["d2"]]
        return t, dealt

    def test_daughter_disagreement_raised_last(self):
        # Checked early, d2's disagreement still yields to a later share
        # fault and to Infeasible, as when it was checked last.
        t, dealt = self._foreign_d2()
        bad = dealt["m"][2]._replace(values=(0, 0))
        with pytest.raises(CorruptData, match="network m: the share of "
                                              "node 3"):
            reconstruct(chained({**dealt, "m": [*dealt["m"][:2], bad]}), t)
        with pytest.raises(Infeasible, match="mother"):
            reconstruct(chained({**dealt, "m": dealt["m"][:1]}), t)
        # Without d1, d2 is the chosen daughter.
        assert reconstruct(chained({"d2": dealt["d2"], "m": dealt["m"]}),
                           t) != [4, 5]
        assert reconstruct(chained({"d1": dealt["d1"], "m": dealt["m"]}),
                           t) == [4, 5]

    def test_round_trip_random_topologies(self):
        rng = deterministic_rng(31)
        q = 257
        for _ in range(15):
            l = rng.randrange(2, 5)
            nets = []
            for _ in range(l):
                n = rng.randrange(1, 5)
                nets.append((n, rng.randrange(0, min(3, n))))
            outer = rng.randrange(1, l)
            t = make_topology(q, nets, outer)
            chunks = [rng.randrange(q) for _ in range(3)]
            dealt = deal(chunks, t, rng)
            # quorum-exact subset: mother + the first `outer` daughters
            subset = {"m": dealt["m"][:t.mother.inner_degree + 1]}
            for net in t.daughters()[:outer]:
                subset[net.id] = dealt[net.id][:net.inner_degree + 1]
            assert reconstruct(chained(subset), t) == chunks


class TestThresholdFormulas:
    def test_worked_example(self):
        got = compute_thresholds_formula(make_topology(11))
        assert (got.t_networks, got.t_nodes, got.t_f0, got.t_f1,
                got.t_fail) == (2, 4, 2, 2, 2)

    def test_single_node_networks(self):
        got = compute_thresholds_formula(make_topology(11, [(1, 0)] * 3))
        assert got.t_f0 == 1

    def test_minimal_two_networks(self):
        got = compute_thresholds_formula(make_topology(11, [(2, 1)] * 2))
        assert got.t_networks == 2


# Moduli, each with the most networks up to which its certified shapes
# are checked against the walk.
CERTIFIED_UP_TO = [(5, 9), (7, 9), (11, 9), (13, 9), (257, 9), (65537, 12),
                   (DEFAULT_MODULUS, 12)]
# (D, L, the bound by hand): lcm(1..D) * (L-D+1)...(L-1), as
# docs/thresholds.md states it.
CERTIFICATE_BOUNDS = [(1, 2, 1), (2, 13, 2 * 12), (3, 13, 6 * 11 * 12),
                      (4, 7, 12 * 4 * 5 * 6), (6, 7, 60 * 2 * 3 * 4 * 5 * 6)]


@pytest.mark.parametrize("outer,networks,bound", CERTIFICATE_BOUNDS)
def test_certificate_is_the_stated_bound(outer, networks, bound):
    # Every modulus above the bound, and none at it. A stricter bound
    # would still be sound, so the checks against the walk miss it.
    assert not protocol.closed_form_certified(bound, outer, networks)
    assert protocol.closed_form_certified(bound + 1, outer, networks)


class TestThresholdExhaustive:
    def test_worked_example(self):
        got = compute_thresholds_exhaustive(make_topology(11))
        assert (got.t_networks, got.t_nodes, got.t_fail) == (2, 4, 2)
        # The closed form sums over one daughter; actually denying via
        # daughters requires killing two daughters' quorums.
        assert got.t_f1 == 4
        assert compute_thresholds_formula(make_topology(11)).t_f1 == 2

    def test_all_degree_zero(self):
        t = make_topology(11, [(2, 0)] * 3, 2)
        got = compute_thresholds_exhaustive(t)
        # One node per required network suffices.
        assert got.t_nodes == 3
        assert got.t_networks == 3

    def test_matches_dense_reference(self):
        # All five fields, t_fail included, on a seeded sample of the
        # enumerated small topologies at q = 257.
        for t in dense_sample():
            assert compute_thresholds_exhaustive(t) == dense_thresholds(t), t

    @pytest.mark.parametrize("q", [257, 5, 7, 11, 13])
    def test_matches_plain_walk(self, q):
        # Every enumerated small topology that is valid at q (all 5,346
        # at 257), with the mother at each index in turn, over fields
        # small enough for derivative points to collide.
        checked = 0
        for outer, nets in enumerate_specs():
            for mother in range(len(nets)):
                # The mother's spec, nets[0], moves to index `mother`.
                rotated = nets[-mother:] + nets[:-mother]
                try:
                    t = make_topology(q, rotated, outer, mother)
                except ValueError:
                    continue
                assert compute_thresholds_exhaustive(t) == \
                    plain_walk_thresholds(t), (q, mother, outer, nets)
                checked += mother == 0
        assert checked == 5346 if q == 257 else checked > 0

    @pytest.mark.parametrize("outer", [1, 3, 6, 11])
    def test_matches_plain_walk_at_network_bound(self, outer):
        # Certified at 2^127 - 1; walked at 257, but for outer degree 1,
        # which every modulus certifies.
        for q in (DEFAULT_MODULUS, 257):
            t = twelve_networks(outer, q)
            assert len(t.networks) == protocol.EXHAUSTIVE_NETWORK_BOUND
            assert (compute_thresholds_exhaustive(t)
                    == plain_walk_thresholds(t)), q

    @pytest.mark.parametrize("outer", [1, 6, 11])
    def test_work_bound(self, monkeypatch, outer):
        # A certified shape, of 12 networks or 20, is neither walked nor
        # eliminated: each at 2^127 - 1, and outer degree 1 at q = 257 too,
        # as at every modulus. On an uncertified one, 12 networks at 257,
        # eliminations stay within 3 per set of known networks that holds
        # the mother, the only sets walked; one outer solve per set of all
        # 2^12 would take 28,720. The walk is solved once per process:
        # another topology of the same shape makes none.
        protocol._walk.cache_clear()
        calls = 0
        real = field.echelon_reduce

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(field, "echelon_reduce", counting)
        monkeypatch.setattr(protocol, "echelon_reduce", counting)
        compute_thresholds_exhaustive(twelve_networks(outer))
        compute_thresholds_exhaustive(make_topology(
            DEFAULT_MODULUS, [(n, 3) for n in range(4, 24)], outer))
        assert (calls, protocol._walk.cache_info().misses) == (0, 0)
        compute_thresholds_exhaustive(twelve_networks(outer, 257))
        if outer == 1:
            assert calls == 0
        else:
            assert 0 < calls <= 3 * 2**11
        calls = 0
        compute_thresholds_exhaustive(make_topology(
            257, [(n, 3) for n in range(4, 16)], outer))
        assert calls == 0

    @pytest.mark.parametrize("order", [(7, 23), (23, 7)])
    def test_shapes_are_keyed_by_modulus(self, monkeypatch, order):
        # Outer degree 3 on 4 networks is certified at neither modulus
        # (above 6 * 2 * 3 only). At q = 23 the mother with the second
        # and third daughters reconstructs (the moment criterion:
        # 23 divides 6 * the integral of (x - 2)(x - 3) over [0, 1],
        # 23/6), at 7 it does not: a cache that dropped the modulus would
        # hand one field's sets to the other, whichever came first.
        nets = [(2, 1), (1, 0), (3, 2), (4, 0)]

        def thresholds(q):
            # As enumerated, and with the mother moved to index 2.
            moved = make_topology(q, nets[1:3] + nets[:1] + nets[3:], 3, 2)
            return [compute_thresholds_exhaustive(t)
                    for t in (make_topology(q, nets, 3), moved)]

        protocol._walk.cache_clear()
        cached = {q: thresholds(q) for q in order}
        monkeypatch.setattr(protocol, "_walk", protocol._walk.__wrapped__)
        for q in order:
            assert cached[q] == thresholds(q)
        assert all(a != b for a, b in zip(cached[7], cached[23]))

    def test_family_is_the_closed_forms(self):
        # At the default modulus, up to the network bound, a walked set
        # reconstructs iff it holds the mother and at least outer_degree
        # daughters: the access structure the closed form assumes.
        for l in range(2, protocol.EXHAUSTIVE_NETWORK_BOUND + 1):
            for outer in range(1, l):
                for known, ok in protocol._walk(DEFAULT_MODULUS, outer, l):
                    assert known[0] == 0 and ok == (len(known) > outer), (
                        l, outer, known)

    @pytest.mark.parametrize("q,most", CERTIFIED_UP_TO)
    def test_certified_shapes_are_the_closed_forms(self, q, most):
        # The certificate is sound: wherever it holds, up to `most`
        # networks (fewer than q daughters), a walked set reconstructs iff
        # it holds the mother and at least outer_degree daughters.
        certified = 0
        for l in range(2, min(most, q) + 1):
            for outer in range(1, l):
                if not protocol.closed_form_certified(q, outer, l):
                    continue
                certified += 1
                for known, ok in protocol._walk(q, outer, l):
                    assert known[0] == 0 and ok == (len(known) > outer), (
                        q, l, outer, known)
        assert certified

    @pytest.mark.parametrize("q,most", CERTIFIED_UP_TO)
    def test_certified_thresholds_are_the_walks(self, q, most):
        # On every certified shape up to `most` networks, the sums over
        # sorted lists that answer for it are the sums over the walk's
        # family, on topologies of mixed quorums and kill costs.
        rng = random.Random(q)
        for l in range(2, min(most, q) + 1):
            for outer in range(1, l):
                if not protocol.closed_form_certified(q, outer, l):
                    continue
                for _ in range(3):
                    nets = [(n, rng.randrange(n)) for n in (
                        rng.randint(1, min(q - 1, 6)) for _ in range(l))]
                    topology = make_topology(q, nets, outer)
                    assert (protocol._sorted_thresholds(topology,
                                                        l - outer)
                            == walked_thresholds(topology)), (
                        q, outer, nets)

    @pytest.mark.parametrize("q", [5, 7, 11, 13, 257])
    def test_walk_is_the_moment_criterion(self, q):
        # Every set of known networks that holds the mother, up to 10
        # networks (fewer than q daughters): the walk lists it, or a
        # prefix of it that reconstructs, and its verdict is the moment
        # criterion's, computed over exact rationals.
        for l in range(2, min(10, q) + 1):
            for outer in range(1, l):
                family = dict(protocol._walk(q, outer, l))
                for size in range(l):
                    for points in itertools.combinations(range(1, l), size):
                        known = (0, *points)
                        walked = next(
                            family[known[:i]] for i in range(1, size + 2)
                            if family[known[:i]] or i == size + 1)
                        assert walked == reference.moment_reconstructs(
                            q, outer, points), (q, l, outer, known)

    def test_capacity_bound(self):
        # One network more than the subset walk's bound, of a shape that
        # is not certified at q = 257 for D = 3 (257 < 6 * 11 * 12); for D
        # = 1 it is, and the thresholds are answered.
        many = [(2, 1)] * (protocol.EXHAUSTIVE_NETWORK_BOUND + 1)
        with pytest.raises(CapacityError):
            compute_thresholds_exhaustive(make_topology(257, many, 3))
        assert compute_thresholds_exhaustive(make_topology(257, many)) == (
            Thresholds(t_networks=2, t_nodes=4, t_fail=1, t_f0=1, t_f1=12))

    @pytest.mark.parametrize("degree", [101, 150])
    def test_any_inner_degree(self, degree):
        # A network's quorum is its inner degree plus one at any degree,
        # as the oracle finds it one node at a time.
        t = make_topology(257, [(2, 1), (degree + 1, degree)])
        assert compute_thresholds_exhaustive(t) == plain_walk_thresholds(t)

    def test_large_topology_matches_corrected_closed_form(self):
        # 10 networks and 120 nodes, far beyond a count-vector
        # enumeration. Criterion 5's corrected closed form: t_f1 disables
        # one more daughter than the formula, and t_fail follows it.
        sizes = [(30, 1), (12, 3), (8, 0), (11, 2), (9, 4), (13, 9),
                 (7, 1), (10, 5), (6, 2), (14, 6)]
        assert sum(n for n, _ in sizes) == 120
        t = make_topology(DEFAULT_MODULUS, sizes, 8)
        formula = compute_thresholds_formula(t)
        kill = sorted(n.node_count - n.inner_degree for n in t.daughters())
        t_f1 = sum(kill[:len(t.networks) - t.outer_degree])
        assert compute_thresholds_exhaustive(t) == formula._replace(
            t_f1=t_f1, t_fail=min(formula.t_f0, t_f1))


class TestWeakerShapeWitness:
    @pytest.mark.parametrize("q", [65537, DEFAULT_MODULUS],
                             ids=["65537", "2^127-1"])
    def test_every_walked_shape_deals(self, q):
        bound = protocol.EXHAUSTIVE_NETWORK_BOUND
        assert [(l, d) for l in range(2, bound + 1) for d in range(1, l)
                if protocol.weaker_shape_witness(q, d, l) is not None] == []

    @pytest.mark.parametrize("q", [257, 65551])
    def test_witness_reconstructs(self, q):
        # Each witness is a smallest reconstructing set of the walk's
        # family, of at most D networks, and the oracle finds that a
        # quorum of each of its networks reconstructs.
        found = {}
        for l in range(2, protocol.EXHAUSTIVE_NETWORK_BOUND + 1):
            for d in range(1, l):
                witness = protocol.weaker_shape_witness(q, d, l)
                if witness is None:
                    continue
                found[l, d] = witness
                assert len(witness) == min(
                    len(known) for known, reconstructs
                    in protocol._walk(q, d, l) if reconstructs) <= d
                t = make_topology(q, [(3, 1)] * l, d)
                order = [t.mother, *t.daughters()]
                held = [(order[i].id, j) for i in witness for j in (1, 2)]
                assert access_oracle(held, t) is Access.RECONSTRUCTS
        assert len(found) == 14 if q == 257 else found == {
            (12, 6): (0, 3, 5, 6, 7, 11)}

    def test_beyond_the_walk(self):
        # 13 networks: certified at D = 3, not at D = 6.
        assert protocol.weaker_shape_witness(65537, 3, 13) is None
        with pytest.raises(CapacityError, match="cannot be checked"):
            protocol.weaker_shape_witness(65537, 6, 13)


class TestAccessOracle:
    def test_empty_set(self):
        assert access_oracle([], make_topology(11)) is Access.NO_INFORMATION

    def test_matches_dense_reference(self):
        # Every input the dense reference oracle decides in the other
        # tests: each count vector of the threshold reference's sample,
        # and each held set of the simulator oracle's enumerated check.
        for t in dense_sample():
            for _, held, verdict in dense_verdicts(t):
                assert access_oracle(held, t) is verdict, (t, held)
        for t, held in enumerated_held_sets():
            assert (access_oracle(held, t)
                    is reference.access_oracle(held, t)), (t, held)

    @pytest.mark.parametrize("held", [
        [("m", 0), ("d1", 0)],
        [("m", 99), ("m", 1), ("d1", 4), ("d1", 1)],
        [("d3", 1), ("m", 1), ("m", 2), ("d1", 1), ("d1", 2)],
        [("m", 1, -1), ("d1", 1, -1)],
    ], ids=["node0", "node_above_count", "unknown_network",
            "negative_epoch"])
    def test_rejects_what_the_topology_lacks(self, held):
        # Node 99 is x = 0 at q = 11, as node 0 is: either holds its
        # network's inner secret outright.
        with pytest.raises(ValueError):
            access_oracle(held, make_topology(11))

    def test_knowledge_rejects_delta_of_round_zero(self):
        knowledge = protocol.AdversaryKnowledge(make_topology(11))
        with pytest.raises(ValueError):
            knowledge.add("delta", "d1", 1, 0, ())
        knowledge.add("delta", "d1", 1, 1, ())

    @pytest.mark.parametrize("q", [5, 7, 11, 13, 257, 65537,
                                   DEFAULT_MODULUS],
                             ids=lambda q: "2^127-1" if q > 2**64 else q)
    def test_network_known_at_inner_degree_plus_one(self, q):
        # The quorum the thresholds take, k + 1 for inner degree k: fed
        # distinct nodes in index order, in reverse and in a seeded random
        # order, the oracle first knows the network at the (k + 1)-th.
        rng = random.Random(q)
        for k in range(min(q - 2, 30) + 1):
            n = min(q - 1, k + 4)
            t = make_topology(q, [(n, k), (1, 0)])
            nodes = list(range(1, n + 1))
            for order in (nodes, nodes[::-1], rng.sample(nodes, n)):
                knowledge = protocol.AdversaryKnowledge(t)
                for held, j in enumerate(order, start=1):
                    knowledge.add("share", "m", j, 0, ())
                    assert (knowledge.known_networks() == ["m"]) == \
                        (held > k), (q, k, order, held)

    def test_all_nodes(self):
        t = make_topology(11)
        assert access_oracle(all_nodes(t), t) is Access.RECONSTRUCTS

    def test_single_daughter_network(self):
        t = make_topology(11)
        for nid in ("d1", "d2"):
            held = [(nid, j) for j in (1, 2, 3)]
            assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_mother_only(self):
        t = make_topology(11)
        held = [("m", j) for j in (1, 2, 3)]
        assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_rows_match_dealt_values(self):
        # The functional rows evaluate to the actually dealt values on
        # the concrete randomness vector [S, p1, q0, q1, q2].
        t = make_topology(11)
        dealt = deal([4], t, ScriptedRng([3, 2, 5, 1], 11))
        randomness = [4, 3, 2, 5, 1]
        space = reference.FunctionalSpace(t)
        for nid, shares in dealt.items():
            for s in shares:
                row = space.share_row(nid, s.node_index)
                got = sum(a * b for a, b in zip(row, randomness)) % 11
                assert got == s.values[0]

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_rows_match_dealt_values_random(self, data):
        # Differential check of deal/refresh against the linear model:
        # on a random small topology, with every draw scripted, each
        # dealt, delta and refreshed value is its functional row dotted
        # with [secret, deal draws, refresh draws] in draw order.
        q = data.draw(st.sampled_from([257, 65537]))
        l = data.draw(st.integers(2, 4))
        mother = data.draw(st.integers(0, l - 1))
        nets = []
        for _ in range(l):
            n = data.draw(st.integers(1, 4))
            nets.append((n, data.draw(st.integers(0, min(2, n - 1)))))
        t = make_topology(q, nets, data.draw(st.integers(1, l - 1)), mother)
        secret = None
        if q > 2**16:
            secret = data.draw(st.binary(max_size=5))
            chunks = encode_secret(secret, q)
        else:
            chunks = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                        max_size=3))
        rounds = data.draw(st.integers(0, 3))
        inner = sum(net.inner_degree for net in t.networks)
        per_chunk = t.outer_degree + inner
        # Draws in 0..q-1 are all accepted.
        draws = data.draw(st.lists(
            st.integers(0, q - 1),
            min_size=len(chunks) * (per_chunk + rounds * inner),
            max_size=len(chunks) * (per_chunk + rounds * inner)))
        rng = ScriptedRng(draws, q)
        shares = deal(chunks, t, rng)
        history = [shares]
        all_deltas = []
        for epoch in range(rounds):
            deltas = refresh(t, len(chunks), epoch, rng)
            shares = {nid: [apply_node_refresh(s, deltas[nid])
                            for s in lst]
                      for nid, lst in shares.items()}
            all_deltas.append(deltas)
            history.append(shares)
        assert rng.values == []

        # Draws come in coefficient columns across all chunks: deal draws
        # the outer columns, then each network's inner columns; each
        # refresh round draws each network's columns. Chunk c's vector
        # takes entry c of every column, in draw order.
        m = len(chunks)
        vectors = [[chunk] for chunk in chunks]
        pos = 0
        for k in ([t.outer_degree] + [net.inner_degree for net in t.networks]
                  + rounds * [net.inner_degree for net in t.networks]):
            columns = [draws[pos + i * m:pos + (i + 1) * m] for i in range(k)]
            pos += k * m
            for c, vec in enumerate(vectors):
                vec += [col[c] for col in columns]
        space = reference.FunctionalSpace(t, rounds)

        def dot(row, vec):
            return sum(a * b for a, b in zip(row, vec)) % q

        for epoch, dealt in enumerate(history):
            for nid, lst in dealt.items():
                for s in lst:
                    row = space.share_row(nid, s.node_index, epoch)
                    assert list(s.values) == [dot(row, v) for v in vectors]
        for round_no, deltas in enumerate(all_deltas, start=1):
            for nid, network_refresh in deltas.items():
                for j in range(1, network_refresh.node_count + 1):
                    row = space.delta_row(nid, j, round_no)
                    assert list(network_refresh.delta(j)) == [
                        dot(row, v) for v in vectors]
        got = reconstruct(chained(shares), t)
        assert got == chunks
        if secret is not None:
            assert decode_secret(got, q) == secret

    def test_dichotomy_small_exhaustive(self):
        # Reconstruction succeeds exactly where the oracle says it does.
        t = make_topology(11, [(2, 1), (2, 1), (2, 0)])
        chunks = [9]
        dealt = deal(chunks, t, deterministic_rng(5))
        nodes = all_nodes(t)
        for bits in range(2 ** len(nodes)):
            held = [nodes[i] for i in range(len(nodes)) if bits >> i & 1]
            subset = {}
            for nid, j in held:
                subset.setdefault(nid, []).append(
                    next(s for s in dealt[nid] if s.node_index == j))
            try:
                ok = reconstruct(chained(subset), t) == chunks
            except Infeasible:
                ok = False
            verdict = access_oracle(held, t)
            assert ok == (verdict is Access.RECONSTRUCTS)


class TestRefresh:
    def test_preserves_secret(self):
        t = make_topology(11)
        rng = deterministic_rng(8)
        chunks = [4, 9]
        dealt = deal(chunks, t, rng)
        for epoch in range(3):
            deltas = refresh(t, 2, epoch, rng)
            dealt = {nid: [apply_node_refresh(s, deltas[nid])
                           for s in shares]
                     for nid, shares in dealt.items()}
            assert reconstruct(chained(dealt), t) == chunks

    def test_shapes(self):
        t = make_topology(11)
        deltas = refresh(t, 1, 0, deterministic_rng(0))
        assert {nid: v.node_count for nid, v in deltas.items()} == \
            {"m": 3, "d1": 3, "d2": 3}
        assert all(v.from_epoch == 0 for v in deltas.values())

    def test_shape_from_a_later_epoch(self):
        deltas = refresh(make_topology(7, [(4, 1), (1, 0)]), 1, 3,
                         deterministic_rng(4))
        assert (deltas["m"].node_count, deltas["m"].from_epoch) == (4, 3)

    def test_deltas_reconstruct_to_zero(self):
        deltas = refresh(make_topology(7, [(3, 1), (1, 0)]), 1, 0,
                         deterministic_rng(4))["m"]
        points = [(x, deltas.delta(x)[0]) for x in (1, 2, 3)]
        for subset in itertools.combinations(points, 2):
            assert interpolate_zero(subset, 7) == 0

    @pytest.mark.parametrize("value,slope,want", [
        (3, 2, [5, 0, 2]), (0, 5, [5, 3, 1]), (5, 5, [3, 1, 6]),
        (5, 0, [5, 5, 5])],
        ids=["forced_polynomial", "forced_delta", "delta", "zero_delta"])
    def test_apply(self, value, slope, want):
        # Node x of a three-node network over F_7 holding `value` (one
        # chunk) moves to epoch 1 with value + slope * x: the node
        # evaluation that deal and refresh share. Its delta is slope * x.
        for x, new in zip((1, 2, 3), want):
            out = apply_node_refresh(NodeShare("m", x, 0, (value,)),
                                     one_column(slope))
            assert (out.values, out.epoch) == ((new,), 1)
            assert one_column(slope).delta(x) == ((new - value) % 7,)

    def test_apply_mismatches(self):
        share = NodeShare("m", 1, 0, (5,))
        with pytest.raises(ValueError):
            apply_node_refresh(share, one_column(0, network="d1"))
        with pytest.raises(ValueError):
            apply_node_refresh(NodeShare("m", 4, 0, (5,)), one_column(0))
        with pytest.raises(ValueError):
            apply_node_refresh(share, one_column(0, epoch=1))

    def test_mixed_epoch_reconstruct_rejected(self):
        t = make_topology(11)
        rng = deterministic_rng(8)
        dealt = deal([4], t, rng)
        deltas = refresh(t, 1, 0, rng)
        mixed = dict(dealt)
        mixed["d1"] = [apply_node_refresh(s, deltas["d1"])
                       for s in dealt["d1"]]
        with pytest.raises(EpochMismatch):
            reconstruct(chained(mixed), t)

    def test_cross_epoch_capture_no_information(self):
        # One node before refresh plus a different node after refresh,
        # below quorum in each epoch, reveals nothing.
        t = make_topology(11)
        held = [("m", 1, 0), ("m", 2, 1), ("d1", 1, 0), ("d1", 2, 1),
                ("d2", 1, 0), ("d2", 2, 1)]
        assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_same_node_across_epochs_still_capped(self):
        # Same node pre+post refresh is one node's worth of information.
        t = make_topology(11)
        held = [("m", 1, 0), ("m", 1, 1), ("d1", 1, 0), ("d1", 1, 1)]
        assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_known_draws_carry_a_share_across_epochs(self):
        # Why `refresh` takes no seed. The oracle assumes fresh, uniform
        # refresh draws, and calls m/1 at epoch 0 with m/2 at epoch 1 no
        # information. But whoever knows the draws (deterministic_rng(7)
        # here, as `refresh --seed 7` drew them) moves m/1's share to
        # epoch 1, and with m/2's it gives the mother's inner secret, the
        # deal's own draws from the operating system notwithstanding.
        t = formats.topology_from_dict(json.loads(
            (Path(__file__).resolve().parent.parent / "docs" / "examples"
             / "topology.json").read_text()))
        q = t.modulus
        chunks = encode_secret(bytes(range(256)) * 4, q)
        dealt = deal(chunks, t, field.crypto_rng())
        deltas = refresh(t, len(chunks), 0, deterministic_rng(7))
        m1, m2, m3 = (apply_node_refresh(s, deltas["m"]) for s in dealt["m"])
        known = refresh(t, len(chunks), 0, deterministic_rng(7))
        carried = apply_node_refresh(dealt["m"][0], known["m"])
        assert carried == m1

        def inner(a, b):
            return list(field.weighted_column_sum(
                lagrange_zero_weights([a.node_index, b.node_index], q),
                [a.values, b.values], q))

        assert inner(carried, m2) == inner(m2, m3)
        assert access_oracle([("m", 1, 0), ("m", 2, 1)], t) is \
            Access.NO_INFORMATION


class TestSecrecyEnumeration:
    def test_no_information_sets_have_flat_distributions(self):
        # Reduced instance (l=2, two nodes each, inner degree 1, outer 1)
        # at q=7: enumerate all dealer randomness; every NoInformation
        # subset sees a secret-independent joint distribution.
        q = 7
        t = make_topology(q, [(2, 1)] * 2)
        nodes = all_nodes(t)

        def node_value(nid, j, secret, p1, q0, q1):
            if nid == "m":
                return ((secret + p1) + q0 * j) % q
            return (p1 + q1 * j) % q

        for bits in range(1, 2 ** len(nodes)):
            held = [nodes[i] for i in range(len(nodes)) if bits >> i & 1]
            verdict = access_oracle(held, t)
            hists = []
            for secret in range(q):
                c = Counter()
                for p1, q0, q1 in itertools.product(range(q), repeat=3):
                    c[tuple(node_value(nid, j, secret, p1, q0, q1)
                            for nid, j in held)] += 1
                hists.append(c)
            flat = all(h == hists[0] for h in hists)
            assert flat == (verdict is Access.NO_INFORMATION)

    def test_dealt_and_refreshed_values_match_the_oracle(self):
        # The library itself, not a model of it: deal and then one refresh
        # replay every in-range word sequence, at q = 5 on a mother and
        # one daughter of two nodes each, inner and outer degree 1 (deal
        # draws p_1 and each network's c_1, refresh each network's c_1).
        # A held set is the shares of epochs 0 and 1 and the deltas of
        # round 1 it names. Its values must be distributed independently
        # of the secret exactly when the oracle finds no information.
        q = 5
        t = make_topology(q, [(2, 1)] * 2)
        nodes = all_nodes(t)
        items = [(kind, nid, j, epoch)
                 for kind, epoch in (("share", 0), ("share", 1),
                                     ("delta", 1))
                 for nid, j in nodes]

        def run(rng_words, call, *args):
            rng = ScriptedRng(rng_words, q)
            result = call(*args, rng)
            assert rng.values == []  # every word drawn is kept
            return result

        rounds = [run(words, refresh, t, 1, 0)
                  for words in itertools.product(range(q), repeat=2)]
        # views[s]: one int per word sequence for secret s, 3 bits per
        # item in the order of `items`.
        views = []
        for secret in range(q):
            views.append(packed := [])
            for words in itertools.product(range(q), repeat=3):
                dealt = run(words, deal, [secret], t)
                shares = [dealt[nid][j - 1] for nid, j in nodes]
                for deltas in rounds:
                    values = [s.values[0] for s in shares]
                    values += [apply_node_refresh(s, deltas[s.network_id])
                               .values[0] for s in shares]
                    values += [deltas[nid].delta(j)[0] for nid, j in nodes]
                    packed.append(sum(v << 3 * i
                                      for i, v in enumerate(values)))

        def no_information(bits):
            know = protocol.AdversaryKnowledge(t)
            held = [item for i, item in enumerate(items) if bits >> i & 1]
            for item in held:
                know.add(*item, ())
            verdict = know.recover() is None
            if all(kind == "share" for kind, *_ in held):
                assert verdict == (access_oracle(
                    [(nid, j, epoch) for _, nid, j, epoch in held], t)
                    is Access.NO_INFORMATION)
            return verdict

        def secret_free(bits):
            mask = sum(7 << 3 * i for i in range(len(items)) if bits >> i & 1)
            hists = [Counter(map(operator.and_, view, itertools.repeat(mask)))
                     for view in views]
            return all(h == hists[0] for h in hists[1:])

        n = len(items)
        free = [no_information(bits) for bits in range(1 << n)]
        # A view's part is secret-independent when the view is, and a view
        # holding a secret-dependent part is secret-dependent. So checking
        # the largest NoInformation sets and the smallest Reconstructs
        # sets checks every set: each NoInformation set lies in a largest
        # one, and each Reconstructs set holds a smallest one.
        largest = [b for b in range(1 << n) if free[b] and not any(
            free[b | 1 << i] for i in range(n) if not b >> i & 1)]
        smallest = [b for b in range(1 << n) if not free[b] and all(
            free[b & ~(1 << i)] for i in range(n) if b >> i & 1)]
        for bits in largest + smallest:
            assert secret_free(bits) == free[bits], [
                item for i, item in enumerate(items) if bits >> i & 1]

        def verdict(*held):
            return free[sum(1 << items.index(item) for item in held)]

        m0 = [("share", "m", j, 0) for j in (1, 2)]
        d0 = [("share", "d1", j, 0) for j in (1, 2)]
        hndl = d0 + [("delta", "d1", j, 1) for j in (1, 2)]
        cross = [("share", "m", 1, 0), ("share", "m", 2, 1)]
        # The whole mother, at either epoch; every classical payload (the
        # daughter's shares and deltas) with one mother node; mother nodes
        # from two epochs with the whole daughter, which the mother node's
        # delta of round 1 turns into the whole mother at epoch 0.
        assert verdict(*m0)
        assert verdict(*[("share", "m", j, 1) for j in (1, 2)])
        assert verdict(*hndl, ("share", "m", 1, 1))
        assert verdict(*cross, *d0)
        assert not verdict(*cross, *d0, ("delta", "m", 2, 1))
        assert not verdict(*m0, ("share", "d1", 1, 0),
                           ("share", "d1", 2, 1), ("delta", "d1", 2, 1))


class TestAvailability:
    def test_fail_witness_blocks_and_smaller_do_not(self):
        t = make_topology(11)
        oracle = compute_thresholds_exhaustive(t)
        nodes = all_nodes(t)
        # Disabling fewer than t_fail nodes always leaves a qualifying set.
        for disabled in itertools.combinations(nodes, oracle.t_fail - 1):
            alive = [n for n in nodes if n not in disabled]
            assert access_oracle(alive, t) is Access.RECONSTRUCTS
        # Killing the mother quorum (a witness of size t_fail) blocks.
        witness = [("m", 1), ("m", 2)]
        assert len(witness) == oracle.t_fail
        alive = [n for n in nodes if n not in witness]
        assert access_oracle(alive, t) is Access.NO_INFORMATION


class TestChunking:
    def test_empty_message(self):
        chunks = encode_secret(b"", 2**127 - 1)
        assert len(chunks) == 1  # header-only
        assert decode_secret(chunks, 2**127 - 1) == b""

    def test_sixteen_bytes_two_chunks(self):
        chunks = encode_secret(b"\xaa" * 16, 2**127 - 1)
        assert len(chunks) == 2  # 20 bytes with header, 15-byte blocks
        assert decode_secret(chunks, 2**127 - 1) == b"\xaa" * 16

    def test_round_trip_random(self):
        rng = deterministic_rng(77)
        for _ in range(20):
            data = rng.randbytes(rng.randrange(0, 4097))
            chunks = encode_secret(data, DEFAULT_MODULUS)
            assert decode_secret(chunks, DEFAULT_MODULUS) == data

    def test_small_field_round_trip(self):
        data = b"hi there"
        assert decode_secret(encode_secret(data, 65537), 65537) == data

    def test_modulus_too_small(self):
        with pytest.raises(ValueError):
            encode_secret(b"x", 257)

    def test_size_limit_of_the_length_header(self):
        # Checked once, by chunk_count, which secret_blocks calls before
        # it reads a byte.
        q = DEFAULT_MODULUS
        assert protocol.chunk_count(256**4 - 1, q) == -(-(256**4 + 3) // 15)
        for blocks in (lambda: protocol.chunk_count(256**4, q),
                       lambda: next(protocol.secret_blocks(
                           pytest.fail, 256**4, q))):
            with pytest.raises(CapacityError, match="length header holds "
                                                    "at most 4294967295"):
                blocks()

    def test_out_of_range_chunk_rejected(self):
        q = 2**127 - 1
        with pytest.raises(CorruptData):
            decode_secret([2**126], q)

    def test_truncated_rejected(self):
        with pytest.raises(CorruptData):
            decode_secret([], 2**127 - 1)
        with pytest.raises(CorruptData, match="no chunks"):
            protocol.SecretDecoder(2**127 - 1).close()
        # A secret file that shrinks between its stat and its read.
        with pytest.raises(CorruptData, match="shorter than its size"):
            list(protocol.secret_blocks(io.BytesIO(b"ab").read, 3,
                                        2**127 - 1))


def _outcome(f, *args):
    """f(*args), or the CorruptData it raises, as a comparable value."""
    try:
        return f(*args)
    except CorruptData as exc:
        return ("CorruptData", str(exc))


class TestChunkingMatchesReference:
    """encode_secret / decode_secret, one struct.unpack_from or one joined
    map per BLOCK_WORDS chunks, against the per-chunk loops they replaced
    (tests/reference.py)."""

    @pytest.mark.parametrize("q", [65537, 2**61 - 1, DEFAULT_MODULUS])
    def test_round_trip_at_block_edges(self, q):
        block = protocol.chunk_size(q)
        rng = deterministic_rng(12)
        for chunks in (3, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1):
            # The shortest and the longest secret of that many chunks.
            for size in (block * (chunks - 1) - protocol.LENGTH_HEADER + 1,
                         block * chunks - protocol.LENGTH_HEADER):
                data = rng.randbytes(size)
                got = encode_secret(data, q)
                assert got == reference.encode_secret(data, q)
                assert len(got) == chunks
                assert decode_secret(got, q) == data
                assert reference.decode_secret(got, q) == data

    def test_empty_secret(self):
        q = DEFAULT_MODULUS
        assert encode_secret(b"", q) == reference.encode_secret(b"", q) == [0]
        assert decode_secret([0], q) == b""

    @pytest.mark.parametrize("at", [0, 1, BLOCK_WORDS - 1, BLOCK_WORDS,
                                    BLOCK_WORDS + 1])
    def test_out_of_range_chunk(self, at):
        q = DEFAULT_MODULUS
        chunks = encode_secret(bytes(15 * (BLOCK_WORDS + 1)), q)
        for bad in (2**120, 2**127 - 2, -1):
            corrupt = chunks[:at] + [bad] + chunks[at + 1:]
            with pytest.raises(CorruptData, match="out of range"):
                decode_secret(corrupt, q)
            assert (_outcome(decode_secret, corrupt, q)
                    == _outcome(reference.decode_secret, corrupt, q))

    def test_malformed_streams(self):
        # Every kind of bad chunk stream fails as the reference does.
        q = 65537
        good = encode_secret(b"abcdefg", q)
        streams = [[], [0], [1], [0, 3], [0, 2, 0x6162, 0], [0, 1, 0x6162],
                   [0, 1, 0x6100], [0, 0, 1], good, good + [0], good + [1],
                   good[:-1]]
        for chunks in streams:
            assert (_outcome(decode_secret, chunks, q)
                    == _outcome(reference.decode_secret, chunks, q)), chunks


def _error_or(f, *args):
    """f(*args), or the kind and message of the protocol error it raises,
    as a comparable value."""
    try:
        return f(*args)
    except (CorruptData, EpochMismatch, Infeasible) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def small_vaults(draw):
    """A small topology (mother anywhere), its secret chunks and a seed."""
    q = draw(st.sampled_from([257, DEFAULT_MODULUS]))
    l = draw(st.integers(2, 4))
    mother = draw(st.integers(0, l - 1))
    nets = []
    for _ in range(l):
        n = draw(st.integers(1, 4))
        nets.append((n, draw(st.integers(0, min(2, n - 1)))))
    t = make_topology(q, nets, draw(st.integers(1, l - 1)), mother)
    chunks = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5))
    return t, chunks, draw(st.integers(0, 2**32))


class TestVaultMatchesReference:
    """deal, refresh, apply_node_refresh and reconstruct, which hold one
    network's columns and one share at a time, against tests/reference.py:
    deal and refresh against per-chunk, per-polynomial references that
    share none of the column kernel, reconstruct against the eager body it
    replaced. The same draws, shares, deltas and errors."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(small_vaults(), st.integers(0, 3))
    def test_deal_and_refresh(self, vault, epoch):
        t, chunks, seed = vault
        q = t.modulus
        want = reference.deal(chunks, t, deterministic_rng(seed))
        assert deal(chunks, t, deterministic_rng(seed)) == want

        got = refresh(t, len(chunks), epoch, deterministic_rng(seed + 1))
        deltas = reference.refresh(t, len(chunks), epoch,
                                   deterministic_rng(seed + 1))
        assert list(got) == list(deltas)
        for nid, lst in deltas.items():
            assert (got[nid].node_count, got[nid].from_epoch) == (
                len(lst), epoch)
            for share, delta in zip(want[nid], lst):
                assert got[nid].delta(delta.node_index) == delta.values
                share = share._replace(epoch=epoch)
                assert (apply_node_refresh(share, got[nid])
                        == reference.apply_node_refresh(share, delta, q))

    @staticmethod
    def check_deal_sink(t, chunks, seed):
        """deal with a sink hands out, block by block, network by network
        in topology order and node by node, each node's share of the
        block that deal returns, and draws what deal draws."""
        rng, sink_rng = deterministic_rng(seed), deterministic_rng(seed)
        want = deal(chunks, t, rng)
        got = []
        assert deal(chunks, t, sink_rng, sink=got.append) == {}
        assert sink_rng.getstate() == rng.getstate()
        assert [(s.network_id, s.node_index, s.epoch, len(s.values))
                for s in got] == [
            (net.id, j, 0, len(chunks[i:i + BLOCK_WORDS]))
            for i in range(0, len(chunks), BLOCK_WORDS)
            for net in t.networks for j in range(1, net.node_count + 1)]
        joined = {nid: [NodeShare(nid, j, 0, ()) for j in
                        range(1, t.spec(nid).node_count + 1)]
                  for nid in want}
        for s in got:
            node = joined[s.network_id][s.node_index - 1]
            joined[s.network_id][s.node_index - 1] = node._replace(
                values=node.values + tuple(s.values))
        assert joined == want

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(small_vaults())
    def test_deal_sink(self, vault):
        self.check_deal_sink(*vault)

    def test_apply_rejects_what_does_not_fit(self):
        t = make_topology(11)
        share = deal([4, 5], t, deterministic_rng(0))["d1"][1]
        deltas = refresh(t, 2, 0, deterministic_rng(1))
        for bad in (deltas["m"], refresh(t, 2, 1, deterministic_rng(1))["d1"],
                    refresh(t, 1, 0, deterministic_rng(1))["d1"]):
            with pytest.raises(ValueError):
                apply_node_refresh(share, bad)
        with pytest.raises(ValueError):
            apply_node_refresh(share._replace(node_index=4), deltas["d1"])
        for j in (0, 4):
            with pytest.raises(ValueError):
                deltas["d1"].delta(j)

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(small_vaults(), st.data())
    def test_reconstruct(self, vault, data):
        # A random subset of the shares, perhaps with one network's inner
        # secret shifted (a constant added to each of its values, so that
        # only the outer check can see it), a corrupted value and a share
        # of another epoch, given network by network and as one stream in
        # a random order: the outcome is the reference's, errors included,
        # as a failed check decides over any disagreement.
        t, chunks, seed = vault
        q = t.modulus
        dealt = reference.deal(chunks, t, deterministic_rng(seed))
        shares = [s for lst in dealt.values() for s in lst
                  if data.draw(st.booleans())]
        if shares and data.draw(st.booleans()):
            nid = data.draw(st.sampled_from([s.network_id for s in shares]))
            c = data.draw(st.integers(1, q - 1))
            shares = [s._replace(values=tuple((v + c) % q for v in s.values))
                      if s.network_id == nid else s for s in shares]
        if shares and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(shares) - 1))
            c = data.draw(st.integers(0, len(chunks) - 1))
            values = list(shares[i].values)
            values[c] = (values[c] + 1) % q
            shares[i] = shares[i]._replace(values=tuple(values))
        if shares and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(shares) - 1))
            shares[i] = shares[i]._replace(epoch=1)
        grouped = {}
        for s in shares:
            grouped.setdefault(s.network_id, []).append(s)
        want = _error_or(reference.reconstruct, grouped, t)
        assert _error_or(reconstruct, chained(grouped), t) == want
        stream = data.draw(st.permutations(shares))
        assert _error_or(reconstruct, iter(stream), t) == want


class TestEndToEnd:
    def test_message_round_trip_random_topologies(self):
        rng = deterministic_rng(41)
        q = DEFAULT_MODULUS
        for _ in range(5):
            l = rng.randrange(2, 5)
            nets = []
            for _ in range(l):
                n = rng.randrange(1, 5)
                nets.append((n, rng.randrange(0, min(3, n))))
            t = make_topology(q, nets, rng.randrange(1, l))
            msg = rng.randbytes(rng.randrange(1, 200))
            dealt = deal(encode_secret(msg, q), t, rng)
            assert decode_secret(reconstruct(chained(dealt), t), q) == msg
