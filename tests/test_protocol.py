import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from multishare.errors import (CapacityError, CorruptData, EpochMismatch,
                               Infeasible)
from multishare import field, protocol
from multishare.field import (DEFAULT_MODULUS, deterministic_rng,
                              is_probable_prime)
from multishare.poly import derivative_coeffs, horner, random_coeff_columns
from multishare.protocol import (Access, FunctionalSpace, LinkKind,
                                 NetworkSpec, NodeShare, Thresholds, Topology,
                                 access_oracle, apply_node_refresh,
                                 compute_thresholds_exhaustive,
                                 compute_thresholds_formula, deal,
                                 decode_secret, encode_secret, reconstruct,
                                 refresh)
from test_acceptance import build_topology, enumerate_specs


class ScriptedRng:
    """Feeds randbytes from a fixed list of values (for forced
    polynomials), each as one ceil(bits/8)-byte little-endian word for a
    field of this modulus, the width the field's sampler reads."""

    def __init__(self, values, modulus):
        self.values = list(values)
        self.width = (modulus.bit_length() + 7) // 8

    def randbytes(self, n):
        assert n % self.width == 0
        words = [self.values.pop(0) for _ in range(n // self.width)]
        return b"".join(v.to_bytes(self.width, "little") for v in words)


def topo3(q=11, n=3, inner=1, outer=1):
    nets = (NetworkSpec("m", n, inner, LinkKind.ITS),
            NetworkSpec("d1", n, inner, LinkKind.CLASSICAL),
            NetworkSpec("d2", n, inner, LinkKind.CLASSICAL))
    return Topology(q, nets, 0, outer)


def all_nodes(topology):
    return [(net.id, j) for net in topology.networks
            for j in range(1, net.node_count + 1)]


def dense_thresholds(topology):
    """Reference for compute_thresholds_exhaustive: the dense
    access_oracle on the first counts[i] nodes of each network, for every
    count vector, and each threshold taken from its definition."""
    nets = topology.networks
    ns = [net.node_count for net in nets]
    mother = topology.mother_index
    ok, bad = [], []
    for counts in itertools.product(*(range(n + 1) for n in ns)):
        held = [(net.id, j) for net, c in zip(nets, counts)
                for j in range(1, c + 1)]
        verdict = access_oracle(held, topology)
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


def plain_walk_thresholds(topology):
    """Reference for compute_thresholds_exhaustive's pruned walk: every
    one of the 2^L sets of known networks, each decided by its own outer
    solve, with the quorums found as the walk finds them."""
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
    rows = [protocol.constant_functional(topology, net.id) for net in nets]
    ok, bad = [], []
    for known in range(1 << len(nets)):
        inside = [i for i in range(len(nets)) if known >> i & 1]
        if protocol._outer_weights(topology,
                                   [rows[i] for i in inside]) is not None:
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


def twelve_networks(outer):
    """12 networks of 12 nodes and inner degree 3: the exhaustive bound."""
    return build_topology(outer, [(12, 3)] * 12, q=DEFAULT_MODULUS)


class TestTopology:
    def test_valid(self):
        t = topo3()
        assert t.mother.id == "m"
        assert [n.id for n in t.daughters()] == ["d1", "d2"]
        assert t.derivative_point("d1") == 1
        assert t.derivative_point("d2") == 2
        assert t.total_nodes() == 9

    def test_needs_two_networks(self):
        with pytest.raises(ValueError):
            Topology(11, (NetworkSpec("m", 3, 1, LinkKind.ITS),), 0, 1)

    def test_outer_degree_bounds(self):
        nets = (NetworkSpec("m", 3, 1, LinkKind.ITS),
                NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL))
        with pytest.raises(ValueError):
            Topology(11, nets, 0, 2)
        with pytest.raises(ValueError):
            Topology(11, nets, 0, 0)

    def test_quorum_must_fit(self):
        nets = (NetworkSpec("m", 2, 2, LinkKind.ITS),
                NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL))
        with pytest.raises(ValueError):
            Topology(11, nets, 0, 1)

    def test_link_kinds_enforced(self):
        nets = (NetworkSpec("m", 3, 1, LinkKind.CLASSICAL),
                NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL))
        with pytest.raises(ValueError):
            Topology(11, nets, 0, 1)

    def test_modulus_must_be_prime(self):
        nets = (NetworkSpec("m", 3, 1, LinkKind.ITS),
                NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL))
        with pytest.raises(ValueError):
            Topology(15, nets, 0, 1)

    def test_default_modulus_skips_primality_test(self, monkeypatch):
        # 2^127 - 1 is a proven prime, so Topology accepts it without
        # Miller-Rabin; every other modulus still goes through the test.
        assert is_probable_prime(DEFAULT_MODULUS)
        tested = []

        def probe(n):
            tested.append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(protocol, "is_probable_prime", probe)
        assert topo3(q=DEFAULT_MODULUS).modulus == DEFAULT_MODULUS
        assert tested == []
        topo3(q=257)
        for composite in (561, 2**127 + 1, (2**61 - 1) * (2**31 - 1)):
            with pytest.raises(ValueError):
                topo3(q=composite)
        assert tested == [257, 561, 2**127 + 1, (2**61 - 1) * (2**31 - 1)]


class TestDeal:
    def test_worked_example(self):
        # Forced P=4+3X, Q0=7+2X, Q1=3+5X, Q2=3+X over F_11.
        t = topo3()
        rng = ScriptedRng([3, 2, 5, 1], 11)
        dealt = deal([4], t, rng)
        values = {nid: [s.values[0] for s in shares]
                  for nid, shares in dealt.items()}
        assert values == {"m": [9, 0, 2], "d1": [8, 2, 7], "d2": [4, 5, 6]}

    def test_shape(self):
        t = topo3()
        dealt = deal([4, 5], t,
                     deterministic_rng(0))
        assert sum(len(v) for v in dealt.values()) == 9
        for shares in dealt.values():
            for s in shares:
                assert s.epoch == 0 and len(s.values) == 2

    def test_degenerate_two_networks(self):
        # deg(P)=1: the single daughter holds shares of the constant P'.
        nets = (NetworkSpec("m", 2, 1, LinkKind.ITS),
                NetworkSpec("d1", 2, 0, LinkKind.CLASSICAL))
        t = Topology(11, nets, 0, 1)
        dealt = deal([4], t, deterministic_rng(3))
        d1 = dealt["d1"]
        assert d1[0].values[0] == d1[1].values[0]

    def test_chunk_modulus_checked(self):
        with pytest.raises(ValueError):
            deal([11], topo3(), deterministic_rng(0))

    def test_scripted_rejections_skipped(self):
        # The worked example's draws, with rejected words in between: a
        # zero leading coefficient, words at or above q = 11, and a word
        # whose bits above bit_length(11) = 4 are masked off (0xf3 -> 3).
        rng = ScriptedRng([0, 11, 0xf3, 14, 2, 5, 0, 15, 1], 11)
        dealt = deal([4], topo3(), rng)
        values = {nid: [s.values[0] for s in shares]
                  for nid, shares in dealt.items()}
        assert values == {"m": [9, 0, 2], "d1": [8, 2, 7], "d2": [4, 5, 6]}
        assert rng.values == []

    def test_rejected_words_topped_up_in_order(self):
        # Two chunks: each column is one block of two words, and only
        # the rejected words are drawn again.
        t = topo3()
        rng = ScriptedRng([3, 11, 0, 6,            # p_1: 3, 6
                           12, 2, 7,               # m: 2, 7
                           5, 0, 4,                # d1: 5, 4
                           1, 1], 11)              # d2: 1, 1
        dealt = deal([4, 0], t, rng)
        assert rng.values == []
        assert dealt["m"][0].values == ((4 + 3 + 2) % 11, (0 + 6 + 7) % 11)
        assert dealt["d1"][1].values == ((3 + 2 * 5) % 11, (6 + 2 * 4) % 11)
        assert reconstruct(dealt, t) == [4, 0]

    @pytest.mark.parametrize("q", [257, DEFAULT_MODULUS],
                             ids=["q257", "q2^127-1"])
    def test_columns_match_per_chunk_horner(self, q):
        # Multi-chunk deal and refresh against scalar horner, chunk by
        # chunk, on the same drawn coefficients (replayed from the seed),
        # then a reconstruct of the refreshed shares.
        nets = (NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL),
                NetworkSpec("m", 4, 2, LinkKind.ITS),
                NetworkSpec("d2", 4, 0, LinkKind.CLASSICAL),
                NetworkSpec("d3", 5, 3, LinkKind.CLASSICAL))
        t = Topology(q, nets, 1, 2)
        chunks = [deterministic_rng(c).randrange(q) for c in range(40)]
        m = len(chunks)
        dealt = deal(chunks, t, deterministic_rng(11))
        deltas = refresh(t, m, 0, deterministic_rng(12))

        replay = deterministic_rng(11)
        outer = random_coeff_columns(t.outer_degree, chunks, q, replay)
        assert all(outer[-1])
        polys = [[col[c] for col in outer] for c in range(m)]
        inner_secrets = {
            net.id: ([horner(p, 1, q) for p in polys] if net.id == "m"
                     else [horner(derivative_coeffs(p, q),
                                  t.derivative_point(net.id), q)
                           for p in polys])
            for net in nets}
        refresh_replay = deterministic_rng(12)
        for net in nets:
            for got, secrets, rng in ((dealt, inner_secrets[net.id], replay),
                                      (deltas, [0] * m, refresh_replay)):
                cols = random_coeff_columns(net.inner_degree, secrets, q,
                                            rng)
                assert net.inner_degree == 0 or all(cols[-1])
                for j, item in enumerate(got[net.id], start=1):
                    assert item.node_index == j
                    assert list(item.values) == [
                        horner([col[c] for col in cols], j, q)
                        for c in range(m)]
        refreshed = {nid: [apply_node_refresh(s, deltas[nid][s.node_index - 1],
                                              q) for s in lst]
                     for nid, lst in dealt.items()}
        assert reconstruct(refreshed, t) == chunks
        assert reconstruct(dealt, t) == chunks


class TestReconstruct:
    def _dealt_example(self):
        t = topo3()
        dealt = deal([4], t, ScriptedRng([3, 2, 5, 1], 11))
        return t, dealt

    def test_quorum_exact_subset(self):
        t, dealt = self._dealt_example()
        subset = {"m": dealt["m"][:2], "d1": [dealt["d1"][0], dealt["d1"][2]]}
        assert reconstruct(subset, t)[0] == 4

    def test_maximal_set(self):
        t, dealt = self._dealt_example()
        assert reconstruct(dealt, t)[0] == 4

    def test_missing_mother_infeasible(self):
        t, dealt = self._dealt_example()
        with pytest.raises(Infeasible) as err:
            reconstruct({"d1": dealt["d1"], "d2": dealt["d2"]}, t)
        assert "mother" in str(err.value)

    def test_missing_daughters_infeasible(self):
        t, dealt = self._dealt_example()
        with pytest.raises(Infeasible) as err:
            reconstruct({"m": dealt["m"]}, t)
        assert "daughter" in str(err.value)

    @pytest.mark.parametrize("network_id, node_index", [
        ("m", 0), ("m", 4), ("m", 12), ("d9", 1)])
    def test_share_not_a_node_rejected(self, network_id, node_index):
        # Node 12 is node 1 modulo 11; d9 is not a network of the topology.
        t, dealt = self._dealt_example()
        stray = replace(dealt["m"][1], network_id=network_id,
                        node_index=node_index)
        with pytest.raises(CorruptData, match="not a node"):
            reconstruct({"m": [dealt["m"][0], stray], "d1": dealt["d1"]}, t)

    def test_epoch_mix_rejected(self):
        t, dealt = self._dealt_example()
        moved = [NodeShare("d1", s.node_index, 1, s.values)
                 for s in dealt["d1"]]
        with pytest.raises(EpochMismatch):
            reconstruct({"m": dealt["m"], "d1": moved}, t)

    def test_round_trip_random_topologies(self):
        rng = deterministic_rng(31)
        q = 257
        for _ in range(15):
            l = rng.randrange(2, 5)
            nets = []
            for i in range(l):
                n = rng.randrange(1, 5)
                d = rng.randrange(0, min(3, n))
                kind = LinkKind.ITS if i == 0 else LinkKind.CLASSICAL
                nets.append(NetworkSpec(f"n{i}", n, d, kind))
            outer = rng.randrange(1, l)
            t = Topology(q, tuple(nets), 0, outer)
            chunks = [rng.randrange(q) for _ in range(3)]
            dealt = deal(chunks, t, rng)
            # quorum-exact subset: mother + the first `outer` daughters
            subset = {"n0": dealt["n0"][:nets[0].inner_degree + 1]}
            for net in t.daughters()[:outer]:
                subset[net.id] = dealt[net.id][:net.inner_degree + 1]
            assert reconstruct(subset, t) == chunks


class TestThresholdFormulas:
    def test_worked_example(self):
        got = compute_thresholds_formula(topo3())
        assert (got.t_networks, got.t_nodes, got.t_f0, got.t_f1,
                got.t_fail) == (2, 4, 2, 2, 2)

    def test_single_node_networks(self):
        nets = (NetworkSpec("m", 1, 0, LinkKind.ITS),
                NetworkSpec("d1", 1, 0, LinkKind.CLASSICAL),
                NetworkSpec("d2", 1, 0, LinkKind.CLASSICAL))
        got = compute_thresholds_formula(Topology(11, nets, 0, 1))
        assert got.t_f0 == 1

    def test_minimal_two_networks(self):
        nets = (NetworkSpec("m", 2, 1, LinkKind.ITS),
                NetworkSpec("d1", 2, 1, LinkKind.CLASSICAL))
        got = compute_thresholds_formula(Topology(11, nets, 0, 1))
        assert got.t_networks == 2


class TestThresholdExhaustive:
    def test_worked_example(self):
        got = compute_thresholds_exhaustive(topo3())
        assert (got.t_networks, got.t_nodes, got.t_fail) == (2, 4, 2)
        # The closed form sums over one daughter; actually denying via
        # daughters requires killing two daughters' quorums.
        assert got.t_f1 == 4
        assert compute_thresholds_formula(topo3()).t_f1 == 2

    def test_all_degree_zero(self):
        nets = (NetworkSpec("m", 2, 0, LinkKind.ITS),
                NetworkSpec("d1", 2, 0, LinkKind.CLASSICAL),
                NetworkSpec("d2", 2, 0, LinkKind.CLASSICAL))
        t = Topology(11, nets, 0, 2)
        got = compute_thresholds_exhaustive(t)
        # One node per required network suffices.
        assert got.t_nodes == 3
        assert got.t_networks == 3

    def test_matches_dense_reference(self):
        # All five fields, t_fail included, on a seeded sample of the
        # enumerated small topologies at q = 257.
        specs = random.Random(4).sample(list(enumerate_specs()), 150)
        for outer, nets in specs:
            t = build_topology(outer, nets)
            assert compute_thresholds_exhaustive(t) == dense_thresholds(t), (
                outer, nets)

    @pytest.mark.parametrize("q", [257, 5, 7, 11, 13])
    def test_matches_plain_walk(self, q):
        # Every enumerated small topology that is valid at q (all 5,346
        # at 257), over fields small enough for derivative points to
        # collide.
        checked = 0
        for outer, nets in enumerate_specs():
            try:
                t = build_topology(outer, nets, q)
            except ValueError:
                continue
            assert compute_thresholds_exhaustive(t) == \
                plain_walk_thresholds(t), (q, outer, nets)
            checked += 1
        assert checked == 5346 if q == 257 else checked > 0

    @pytest.mark.parametrize("outer", [1, 3, 6, 11])
    def test_matches_plain_walk_at_network_bound(self, outer):
        t = twelve_networks(outer)
        assert len(t.networks) == protocol.EXHAUSTIVE_NETWORK_BOUND
        assert compute_thresholds_exhaustive(t) == plain_walk_thresholds(t)

    @pytest.mark.parametrize("outer", [1, 6, 11])
    def test_work_bound(self, monkeypatch, outer):
        # Eliminations, quorum discovery included, stay within 3 per set
        # of known networks; one outer solve per set would take 28,720.
        calls = 0
        real = field.echelon_reduce

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(field, "echelon_reduce", counting)
        monkeypatch.setattr(protocol, "echelon_reduce", counting)
        compute_thresholds_exhaustive(twelve_networks(outer))
        assert 0 < calls <= 3 * 2**12

    def test_capacity_bound(self):
        # One network more than the subset walk's bound, and an inner
        # degree above the quorum search's.
        many = [(2, 1)] * (protocol.EXHAUSTIVE_NETWORK_BOUND + 1)
        degree = protocol.EXHAUSTIVE_DEGREE_BOUND + 1
        for nets in (many, [(2, 1), (degree + 1, degree)]):
            with pytest.raises(CapacityError):
                compute_thresholds_exhaustive(build_topology(1, nets))

    def test_large_topology_matches_corrected_closed_form(self):
        # 10 networks and 120 nodes, far beyond a count-vector
        # enumeration. Criterion 5's corrected closed form: t_f1 disables
        # one more daughter than the formula, and t_fail follows it.
        sizes = [(30, 1), (12, 3), (8, 0), (11, 2), (9, 4), (13, 9),
                 (7, 1), (10, 5), (6, 2), (14, 6)]
        assert sum(n for n, _ in sizes) == 120
        t = build_topology(8, sizes, q=DEFAULT_MODULUS)
        formula = compute_thresholds_formula(t)
        kill = sorted(n.node_count - n.inner_degree for n in t.daughters())
        t_f1 = sum(kill[:len(t.networks) - t.outer_degree])
        assert compute_thresholds_exhaustive(t) == replace(
            formula, t_f1=t_f1, t_fail=min(formula.t_f0, t_f1))


class TestAccessOracle:
    def test_empty_set(self):
        assert access_oracle([], topo3()) is Access.NO_INFORMATION

    def test_all_nodes(self):
        t = topo3()
        assert access_oracle(all_nodes(t), t) is Access.RECONSTRUCTS

    def test_single_daughter_network(self):
        t = topo3()
        for nid in ("d1", "d2"):
            held = [(nid, j) for j in (1, 2, 3)]
            assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_mother_only(self):
        t = topo3()
        held = [("m", j) for j in (1, 2, 3)]
        assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_rows_match_dealt_values(self):
        # The functional rows evaluate to the actually dealt values on
        # the concrete randomness vector [S, p1, q0, q1, q2].
        t = topo3()
        dealt = deal([4], t, ScriptedRng([3, 2, 5, 1], 11))
        randomness = [4, 3, 2, 5, 1]
        space = FunctionalSpace(t)
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
        for i in range(l):
            n = data.draw(st.integers(1, 4))
            d = data.draw(st.integers(0, min(2, n - 1)))
            kind = LinkKind.ITS if i == mother else LinkKind.CLASSICAL
            nets.append(NetworkSpec(f"n{i}", n, d, kind))
        t = Topology(q, tuple(nets), mother, data.draw(st.integers(1, l - 1)))
        secret = None
        if q > 2**16:
            secret = data.draw(st.binary(max_size=5))
            chunks = encode_secret(secret, q)
        else:
            chunks = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                        max_size=3))
        rounds = data.draw(st.integers(0, 3))
        inner = sum(net.inner_degree for net in nets)
        per_chunk = t.outer_degree + inner
        # Draws in 1..q-1 are all accepted, leading coefficients included.
        draws = data.draw(st.lists(
            st.integers(1, q - 1),
            min_size=len(chunks) * (per_chunk + rounds * inner),
            max_size=len(chunks) * (per_chunk + rounds * inner)))
        rng = ScriptedRng(draws, q)
        shares = deal(chunks, t, rng)
        history = [shares]
        all_deltas = []
        for epoch in range(rounds):
            deltas = refresh(t, len(chunks), epoch, rng)
            shares = {nid: [apply_node_refresh(
                                s, deltas[nid][s.node_index - 1], q)
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
        for k in ([t.outer_degree] + [net.inner_degree for net in nets]
                  + rounds * [net.inner_degree for net in nets]):
            columns = [draws[pos + i * m:pos + (i + 1) * m] for i in range(k)]
            pos += k * m
            for c, vec in enumerate(vectors):
                vec += [col[c] for col in columns]
        space = FunctionalSpace(t, rounds)

        def dot(row, vec):
            return sum(a * b for a, b in zip(row, vec)) % q

        for epoch, dealt in enumerate(history):
            for nid, lst in dealt.items():
                for s in lst:
                    row = space.share_row(nid, s.node_index, epoch)
                    assert list(s.values) == [dot(row, v) for v in vectors]
        for round_no, deltas in enumerate(all_deltas, start=1):
            for nid, lst in deltas.items():
                for d in lst:
                    row = space.delta_row(nid, d.node_index, round_no)
                    assert list(d.values) == [dot(row, v) for v in vectors]
        got = reconstruct(shares, t)
        assert got == chunks
        if secret is not None:
            assert decode_secret(got, q) == secret

    def test_dichotomy_small_exhaustive(self):
        # Reconstruction succeeds exactly where the oracle says it does.
        q = 11
        nets = (NetworkSpec("m", 2, 1, LinkKind.ITS),
                NetworkSpec("d1", 2, 1, LinkKind.CLASSICAL),
                NetworkSpec("d2", 2, 0, LinkKind.CLASSICAL))
        t = Topology(q, nets, 0, 1)
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
                ok = reconstruct(subset, t) == chunks
            except Infeasible:
                ok = False
            verdict = access_oracle(held, t)
            assert ok == (verdict is Access.RECONSTRUCTS)


class TestRefresh:
    def test_preserves_secret(self):
        t = topo3()
        rng = deterministic_rng(8)
        chunks = [4, 9]
        dealt = deal(chunks, t, rng)
        for epoch in range(3):
            deltas = refresh(t, 2, epoch, rng)
            dealt = {nid: [apply_node_refresh(
                               s, deltas[nid][s.node_index - 1], 11)
                           for s in shares]
                     for nid, shares in dealt.items()}
            assert reconstruct(dealt, t) == chunks

    def test_shapes(self):
        t = topo3()
        deltas = refresh(t, 1, 0, deterministic_rng(0))
        assert {nid: len(v) for nid, v in deltas.items()} == \
            {"m": 3, "d1": 3, "d2": 3}
        assert all(d.from_epoch == 0
                   for v in deltas.values() for d in v)

    def test_mixed_epoch_reconstruct_rejected(self):
        t = topo3()
        rng = deterministic_rng(8)
        dealt = deal([4], t, rng)
        deltas = refresh(t, 1, 0, rng)
        mixed = dict(dealt)
        mixed["d1"] = [apply_node_refresh(s, deltas["d1"][s.node_index - 1],
                                          11)
                       for s in dealt["d1"]]
        with pytest.raises(EpochMismatch):
            reconstruct(mixed, t)

    def test_cross_epoch_capture_no_information(self):
        # One node before refresh plus a different node after refresh,
        # below quorum in each epoch, reveals nothing.
        t = topo3()
        held = [("m", 1, 0), ("m", 2, 1), ("d1", 1, 0), ("d1", 2, 1),
                ("d2", 1, 0), ("d2", 2, 1)]
        assert access_oracle(held, t) is Access.NO_INFORMATION

    def test_same_node_across_epochs_still_capped(self):
        # Same node pre+post refresh is one node's worth of information.
        t = topo3()
        held = [("m", 1, 0), ("m", 1, 1), ("d1", 1, 0), ("d1", 1, 1)]
        assert access_oracle(held, t) is Access.NO_INFORMATION


class TestSecrecyEnumeration:
    def test_no_information_sets_have_flat_distributions(self):
        # Reduced instance (l=2, two nodes each, inner degree 1, outer 1)
        # at q=7: enumerate all dealer randomness; every NoInformation
        # subset sees a secret-independent joint distribution.
        q = 7
        nets = (NetworkSpec("m", 2, 1, LinkKind.ITS),
                NetworkSpec("d1", 2, 1, LinkKind.CLASSICAL))
        t = Topology(q, nets, 0, 1)
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


class TestAvailability:
    def test_fail_witness_blocks_and_smaller_do_not(self):
        t = topo3()
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

    def test_out_of_range_chunk_rejected(self):
        q = 2**127 - 1
        with pytest.raises(CorruptData):
            decode_secret([2**126], q)

    def test_truncated_rejected(self):
        with pytest.raises(CorruptData):
            decode_secret([], 2**127 - 1)


class TestEndToEnd:
    def test_message_round_trip_random_topologies(self):
        rng = deterministic_rng(41)
        q = DEFAULT_MODULUS
        for _ in range(5):
            l = rng.randrange(2, 5)
            nets = []
            for i in range(l):
                n = rng.randrange(1, 5)
                d = rng.randrange(0, min(3, n))
                kind = LinkKind.ITS if i == 0 else LinkKind.CLASSICAL
                nets.append(NetworkSpec(f"n{i}", n, d, kind))
            t = Topology(q, tuple(nets), 0, rng.randrange(1, l))
            msg = rng.randbytes(rng.randrange(1, 200))
            dealt = deal(encode_secret(msg, q), t, rng)
            assert decode_secret(reconstruct(dealt, t), q) == msg
