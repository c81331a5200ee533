import json
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from multishare.errors import Infeasible, StateError
from multishare.field import DEFAULT_MODULUS, express_over_rows
from multishare.formats import canonical_json, topology_to_dict
from multishare.protocol import Access, AdversaryKnowledge, decode_secret
from multishare.simnet import Scenario, Simulation, load_state, run_scenario
from support import all_nodes, enumerated_held_sets, make_topology


def scenario(schedule, secret=b"attack at dawn", q=65537):
    return Scenario.from_dict({
        "topology": topology_to_dict(make_topology(q)),
        "secret_hex": secret.hex(),
        "schedule": schedule,
    })


class TestScenarioParsing:
    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            scenario([{"event": "nuke_everything"}])

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"schedule": []})

    @pytest.mark.parametrize("event", [
        {"event": "compromise_node", "network": "d1", "node": 4},
        {"event": "compromise_node", "network": "d1", "node": 0},
        {"event": "release_node", "network": "d3", "node": 1},
        {"event": "fail_node", "network": "m"},
        {"event": "fail_node", "network": "m", "node": "one"},
        {"event": "compromise_network", "network": "d9"},
        {"event": "compromise_network"},
    ])
    def test_event_target_outside_topology_rejected(self, event):
        with pytest.raises(ValueError):
            scenario([{"event": "deal"}, event])

    @pytest.mark.parametrize("actor", ["owner ", "Adversary", 7, []],
                             ids=["space", "case", "int", "list"])
    def test_unknown_actor_rejected(self, actor):
        # Any actor but "owner" once ran as the adversary.
        with pytest.raises(ValueError, match="actor"):
            scenario([{"event": "deal"},
                      {"event": "attempt_reconstruct", "actor": actor}])

    @pytest.mark.parametrize("event", [
        {"event": "compromise_node", "network": "d1", "node": 1,
         "nodes": [2]},
        {"event": "attempt_reconstruct", "actr": "adversary"},
        {"event": "compromise_network", "network": "m", "node": 1},
    ], ids=["nodes", "actr", "node-on-network"])
    def test_field_the_kind_does_not_take_rejected(self, event):
        with pytest.raises(ValueError, match="takes no field"):
            scenario([{"event": "deal"}, event])

    def test_second_deal_rejected(self):
        with pytest.raises(ValueError, match="dealt once"):
            scenario([{"event": "deal"}, {"event": "refresh"},
                      {"event": "deal"}])

    def test_owner_deals_once(self):
        sim = Simulation(make_topology(65537), b"secret", seed=1)
        sim.owner_store()
        with pytest.raises(ValueError):
            sim.owner_store()

    def test_owner_refreshes_only_after_the_deal(self):
        # check_deal_order refuses a schedule, or a state's history, that
        # refreshes first; a caller of the method itself gets Infeasible.
        sim = Simulation(make_topology(65537), b"secret", seed=1)
        with pytest.raises(Infeasible, match="nothing dealt yet"):
            sim.owner_refresh()


def recorded(sim, network_id, kind="share"):
    """The nodes and epochs (or rounds) of the transcript's payloads of
    one kind on one network's link."""
    return [(node, epoch) for k, nid, node, epoch, _ in sim.transcript
            if (k, nid) == (kind, network_id)]


def held(sim):
    """What the adversary holds, without the values."""
    return {capture[:4] for capture in sim.adversary_rows()}


class TestDelivery:
    def test_mother_transcript_empty(self):
        sim = Simulation(make_topology(65537), b"secret", seed=1)
        sim.owner_store()
        assert recorded(sim, "m") == []

    def test_daughter_transcripts_record_each_share(self):
        sim = Simulation(make_topology(65537), b"secret", seed=1)
        log = sim.owner_store()
        assert log["delivered"] == 9
        for nid in ("d1", "d2"):
            assert recorded(sim, nid) == [(1, 0), (2, 0), (3, 0)]
        assert sim.captures == []

    def test_refresh_recorded_on_classical_only(self):
        sim = Simulation(make_topology(65537), b"secret", seed=1)
        sim.owner_store()
        sim.owner_refresh()
        assert recorded(sim, "m") == recorded(sim, "m", "delta") == []
        assert recorded(sim, "d1", "delta") == [(1, 1), (2, 1), (3, 1)]


class TestOwner:
    def test_reconstruct_all_alive(self):
        sim = Simulation(make_topology(65537), b"payload", seed=2)
        sim.owner_store()
        assert sim.owner_reconstruct() == b"payload"

    def test_reconstruct_after_refresh(self):
        sim = Simulation(make_topology(65537), b"payload", seed=2)
        sim.owner_store()
        for _ in range(3):
            sim.owner_refresh()
        assert sim.owner_reconstruct() == b"payload"

    def test_dead_node_goes_stale(self):
        sim = Simulation(make_topology(65537), b"payload", seed=2)
        sim.owner_store()
        sim.fail_node("d1", 2)
        out = sim.owner_refresh()
        assert out["stale"] == ["d1/2"]
        assert sim.nodes[("d1", 2)].store.epoch < sim.epoch
        assert sim.owner_reconstruct() == b"payload"

    def test_undealt_report_says_what_is_missing(self):
        # The final owner_detail once read "mismatch" here.
        report = run_scenario(scenario([{"event": "attempt_reconstruct"}]))
        missing = "nothing dealt yet"
        assert report["events"][0]["outcome"] == {
            "actor": "owner", "result": "infeasible", "missing": missing}
        assert report["owner_available"] is False
        assert report["owner_detail"] == missing

    def test_fail_witness_blocks(self):
        sim = Simulation(make_topology(65537), b"payload", seed=2)
        sim.owner_store()
        sim.fail_node("m", 1)
        sim.fail_node("m", 2)
        with pytest.raises(Infeasible):
            sim.owner_reconstruct()

    def test_infeasible_counts_every_usable_share(self):
        # Once only the chosen quorums were counted: (m: 0/2, d1: 2/2,
        # d2: 0/2).
        sim = Simulation(make_topology(65537), b"payload", seed=2)
        sim.owner_store()
        sim.fail_node("m", 1)
        sim.fail_node("m", 2)
        with pytest.raises(Infeasible, match=re.escape(
                "mother quorum not met (m: 1/2, d1: 2/2, d2: 2/2)")):
            sim.owner_reconstruct()

    def test_explicit_selection_below_quorum(self):
        # Only m/1 and d1/1 are left alive: one share of each.
        sim = Simulation(make_topology(65537), b"payload", seed=2)
        sim.owner_store()
        for nid, j in sim.nodes:
            if (nid, j) not in {("m", 1), ("d1", 1)}:
                sim.fail_node(nid, j)
        with pytest.raises(Infeasible):
            sim.owner_reconstruct()


class TestAdversary:
    def test_single_network_compromise_no_information(self):
        report = run_scenario(scenario([
            {"event": "deal"},
            {"event": "compromise_network", "network": "d1"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ]), seed=7)
        assert report["adversary_verdict"] == "NoInformation"

    def test_hndl_only_no_information(self):
        report = run_scenario(scenario([
            {"event": "deal"},
            {"event": "hndl_decrypt_classical"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ]), seed=7)
        assert report["adversary_verdict"] == "NoInformation"

    def test_mother_only_no_information(self):
        report = run_scenario(scenario([
            {"event": "deal"},
            {"event": "compromise_network", "network": "m"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ]), seed=7)
        assert report["adversary_verdict"] == "NoInformation"

    def test_combined_adversary_reconstructs_exact_secret(self):
        report = run_scenario(scenario([
            {"event": "deal"},
            {"event": "hndl_decrypt_classical"},
            {"event": "compromise_network", "network": "m"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ]), seed=7)
        assert report["adversary_verdict"] == "Reconstructs"
        assert report["adversary_recovered_secret"] is True

    @pytest.mark.parametrize("released", [False, True])
    def test_compromise_before_the_deal_leaks_the_dealt_share(self,
                                                              released):
        # A node compromised before the deal leaks the share dealt to it;
        # one released before the deal leaks nothing.
        held_nodes = [("m", 1), ("m", 2), ("d1", 1), ("d1", 2)]
        schedule = [{"event": "compromise_node", "network": nid, "node": j}
                    for nid, j in held_nodes]
        if released:
            schedule.append({"event": "release_node", "network": "m",
                             "node": 1})
            held_nodes.remove(("m", 1))
        report = run_scenario(scenario(schedule + [
            {"event": "deal"},
            {"event": "attempt_reconstruct", "actor": "adversary"}]),
            seed=7)
        assert report["epoch"] == 0
        assert report["adversary_verdict"] == reference.access_oracle(
            held_nodes, make_topology(65537)).value
        assert report["adversary_verdict"] == ("NoInformation" if released
                                               else "Reconstructs")
        assert report["adversary_recovered_secret"] is (None if released
                                                        else True)

    def test_sticky_compromise_leaks_refresh_writes(self):
        sim = Simulation(make_topology(65537), b"payload", seed=3)
        sim.owner_store()
        sim.compromise_node("d1", 1)
        before = held(sim)
        sim.owner_refresh()
        after = held(sim)
        assert ("share", "d1", 1, 1) in after - before

    def test_slow_node_capture_across_epochs_no_information(self):
        # Below quorum within each single epoch: refresh defeats it.
        first = [("m", 1), ("d1", 1), ("d2", 1)]
        then = [("m", 2), ("d1", 2), ("d2", 2)]
        report = run_scenario(scenario(
            [{"event": "deal"}]
            + [{"event": "compromise_node", "network": n, "node": j}
               for n, j in first]
            # stop leaking from these nodes, then take others post-refresh
            + [{"event": "release_node", "network": n, "node": j}
               for n, j in first]
            + [{"event": "refresh"}]
            + [{"event": "compromise_node", "network": n, "node": j}
               for n, j in then],
            secret=b"payload"), seed=3)
        assert report["adversary_verdict"] == "NoInformation"

    @pytest.mark.xfail(strict=True, reason=(
        "refresh leaves the outer polynomial as it is, so a network's inner "
        "secret is the same in every epoch and quorums of two networks "
        "taken in different epochs combine; ROADMAP item 5 (two-level "
        "refresh)"))
    def test_slow_capture_across_networks_no_information(self):
        # Never more than two nodes held at once, and never two networks'
        # quorums in one epoch: the mother's before the refresh, a
        # daughter's after it.
        example = json.loads((Path(__file__).resolve().parent.parent / "docs"
                              / "examples" / "scenario.json").read_text())
        mother = [("m", 1), ("m", 2)]
        daughter = [("d1", 1), ("d1", 2)]
        example["schedule"] = (
            [{"event": "deal"}]
            + [{"event": "compromise_node", "network": n, "node": j}
               for n, j in mother]
            + [{"event": "release_node", "network": n, "node": j}
               for n, j in mother]
            + [{"event": "refresh"}]
            + [{"event": "compromise_node", "network": n, "node": j}
               for n, j in daughter]
            + [{"event": "attempt_reconstruct", "actor": "adversary"}])
        report = run_scenario(Scenario.from_dict(example), seed=3)
        assert report["adversary_verdict"] == "NoInformation"

    def test_hndl_replays_the_transcript_once(self):
        sim = Simulation(make_topology(65537), b"payload", seed=3)
        sim.owner_store()
        sim.decrypt_classical()
        assert sim.captures == sim.transcript
        sim.decrypt_classical()
        sim.owner_refresh()
        # A second switch adds nothing; a later send is captured as it is
        # sent.
        assert sim.captures == sim.transcript
        assert len(sim.transcript) == 12

    def test_release_keeps_captures_and_stops_leaks(self):
        sim = Simulation(make_topology(65537), b"payload", seed=3)
        run_scenario(scenario([
            {"event": "deal"},
            {"event": "compromise_node", "network": "d1", "node": 1},
            {"event": "release_node", "network": "d1", "node": 1},
            {"event": "refresh"},
        ]), seed=3, sim=sim)
        assert held(sim) == {("share", "d1", 1, 0)}
        assert not sim.nodes[("d1", 1)].compromised

    def test_monotonic_view_growth(self):
        base = [
            {"event": "deal"},
            {"event": "compromise_node", "network": "d1", "node": 1},
        ]
        extra = base + [
            {"event": "refresh"},
            {"event": "compromise_node", "network": "d1", "node": 2},
        ]
        sim1 = Simulation(make_topology(65537), b"x", seed=5)
        run_scenario(scenario(base), seed=5, sim=sim1)
        sim2 = Simulation(make_topology(65537), b"x", seed=5)
        run_scenario(scenario(extra), seed=5, sim=sim2)
        assert held(sim1) <= held(sim2)


class TestDeterminism:
    SCHEDULE = [
        {"event": "deal"},
        {"event": "refresh"},
        {"event": "compromise_node", "network": "d2", "node": 3},
        {"event": "fail_node", "network": "d1", "node": 1},
        {"event": "attempt_reconstruct", "actor": "owner"},
        {"event": "attempt_reconstruct", "actor": "adversary"},
    ]

    def test_same_seed_identical_reports(self):
        a = run_scenario(scenario(self.SCHEDULE), seed=123)
        b = run_scenario(scenario(self.SCHEDULE), seed=123)
        assert canonical_json(a) == canonical_json(b)

    def test_different_seed_differs_in_shares(self):
        sim1 = Simulation(make_topology(65537), b"x", seed=1)
        sim2 = Simulation(make_topology(65537), b"x", seed=2)
        sim1.owner_store()
        sim2.owner_store()
        assert sim1.nodes[("m", 1)].store != sim2.nodes[("m", 1)].store


class TestPersistence:
    def _sim(self):
        sim = Simulation(make_topology(65537), b"stored state", seed=9)
        sim.owner_store()
        sim.owner_refresh()
        sim.compromise_node("d1", 2)
        sim.fail_node("d2", 1)
        return sim

    def test_save_load_save_identical(self, tmp_path):
        sim = self._sim()
        p1, p2 = tmp_path / "a.state", tmp_path / "b.state"
        sim.save_state(p1)
        load_state(p1).save_state(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_sim_behaves_identically(self, tmp_path):
        sim = self._sim()
        path = tmp_path / "s.state"
        sim.save_state(path)
        other = load_state(path)
        assert other.owner_reconstruct() == sim.owner_reconstruct()
        assert other.adversary_verdict() == sim.adversary_verdict()
        # continued runs stay deterministic: same rng state
        sim.owner_refresh()
        other.owner_refresh()
        assert sim.nodes[("m", 1)].store == other.nodes[("m", 1)].store

    def test_truncated_file_rejected(self, tmp_path):
        sim = self._sim()
        path = tmp_path / "s.state"
        sim.save_state(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(StateError):
            load_state(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "s.state"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(StateError):
            load_state(path)

    def test_deeply_nested_payload_rejected(self, tmp_path):
        path = tmp_path / "s.state"
        payload = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(b"MSS1" + struct.pack(">Q", len(payload)) + payload)
        with pytest.raises(StateError):
            load_state(path)

    def test_bad_version_rejected(self, tmp_path):
        sim = self._sim()
        path = tmp_path / "s.state"
        sim.save_state(path)
        state = sim.to_state()
        state["version"] = 99
        with pytest.raises(StateError):
            Simulation.from_state(state)


def dense_verdict(topology, captures):
    """The reference oracle: one elimination over the dense rows of every
    capture."""
    q = topology.modulus
    space = reference.FunctionalSpace(
        topology, rounds=max((c[3] for c in captures), default=0))
    rows = [(space.share_row if kind == "share" else space.delta_row)(
                nid, idx, epoch)
            for kind, nid, idx, epoch, _ in captures]
    combo = express_over_rows(rows, space.secret_functional(), q)
    if combo is None:
        return Access.NO_INFORMATION, None
    chunks = [sum(c * vals[i] for c, (*_, vals) in zip(combo, captures)) % q
              for i in range(len(captures[0][4]))]
    return Access.RECONSTRUCTS, decode_secret(chunks, q)


def knowledge_verdict(topology, captures):
    """A fresh AdversaryKnowledge fed the captures, as adversary_verdict
    reports it."""
    knowledge = AdversaryKnowledge(topology)
    for capture in captures:
        knowledge.add(*capture)
    chunks = knowledge.recover()
    if chunks is None:
        return Access.NO_INFORMATION, None
    return Access.RECONSTRUCTS, decode_secret(chunks, topology.modulus)


@st.composite
def worlds(draw):
    """A small topology at q = 2^127 - 1, a secret, a seed and a schedule
    of owner and adversary events following one deal."""
    nets = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 4))
        nets.append((n, draw(st.integers(0, min(2, n - 1)))))
    topology = make_topology(DEFAULT_MODULUS, nets,
                             draw(st.integers(1, len(nets) - 1)))
    nodes = all_nodes(topology)

    def targeted(kinds, targets):
        return st.builds(lambda kind, node: {"event": kind,
                                             "network": node[0],
                                             "node": node[1]},
                         st.sampled_from(kinds), st.sampled_from(targets))

    # Compromises come often and lean to the mother, whose quorum the
    # adversary needs in every case, so that many schedules reconstruct.
    mother = [node for node in nodes if node[0] == "m"]
    capture = targeted(["compromise_node"], nodes + 2 * mother)
    event = st.one_of(st.just({"event": "refresh"}),
                      st.just({"event": "hndl_decrypt_classical"}),
                      targeted(["release_node", "fail_node"], nodes),
                      capture, capture, capture)
    schedule = draw(st.lists(event, min_size=6, max_size=16))
    reload_at = draw(st.integers(0, len(schedule)))
    return (topology, draw(st.binary(max_size=40)),
            draw(st.integers(0, 2**32)), schedule, reload_at)


class TestDecomposedOracle:
    """The incremental per-network oracle behind adversary_verdict agrees
    with the dense reference."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(worlds())
    def test_matches_dense_after_every_event(self, world):
        topology, secret, seed, schedule, reload_at = world
        sim = Simulation(topology, secret, seed)
        for i, ev in enumerate([{"event": "deal"}] + schedule):
            if i == reload_at:
                # A loaded state rebuilds the oracle by its replay.
                sim = Simulation.from_state(sim.to_state())
            run_scenario(Scenario(topology, secret, (ev,)), seed, sim=sim)
            verdict = sim.adversary_verdict()
            assert verdict == dense_verdict(topology, sim.adversary_rows())
            assert verdict[1] in (None, secret)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(worlds(), st.integers(0, 2**32))
    def test_matches_dense_on_partial_captures(self, world, subset_seed):
        # Every daughter's epoch-0 shares cross its recorded link, so a
        # full harvest makes refresh deltas redundant. A random part of
        # the captures and of the whole transcript is a view where deltas
        # bridge epochs.
        topology, secret, seed, schedule, _ = world
        sim = Simulation(topology, secret, seed)
        run_scenario(Scenario(topology, secret,
                              tuple([{"event": "deal"}] + schedule)),
                     seed, sim=sim)
        rng = random.Random(subset_seed)
        part = [c for c in sim.captures if rng.random() < 0.5]
        part += [c for c in sim.transcript
                 if rng.random() < (0.8 if c[0] == "delta" else 0.4)]
        verdict = knowledge_verdict(topology, part)
        assert verdict == dense_verdict(topology, part)
        assert verdict[1] in (None, secret)

    def test_matches_access_oracle_on_enumerated_topologies(self):
        for t, held in enumerated_held_sets():
            knowledge = AdversaryKnowledge(t)
            for nid, j in held:
                knowledge.add("share", nid, j, 0, ())
            assert ((knowledge.recover() is not None) == (
                reference.access_oracle(held, t) is Access.RECONSTRUCTS))
