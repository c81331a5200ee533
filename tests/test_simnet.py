import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from multishare.errors import Infeasible, StateError
from multishare.field import DEFAULT_MODULUS, express_over_rows
from multishare.formats import canonical_json, topology_to_dict
from multishare.protocol import (Access, AdversaryKnowledge, FunctionalSpace,
                                 LinkKind, NetworkSpec, Topology,
                                 access_oracle, decode_secret)
from multishare.simnet import Scenario, Simulation, load_state, run_scenario
from test_acceptance import build_topology, enumerate_specs


def topo(q=65537):
    nets = (NetworkSpec("m", 3, 1, LinkKind.ITS),
            NetworkSpec("d1", 3, 1, LinkKind.CLASSICAL),
            NetworkSpec("d2", 3, 1, LinkKind.CLASSICAL))
    return Topology(q, nets, 0, 1)


def scenario(schedule, secret=b"attack at dawn", q=65537):
    return Scenario.from_dict({
        "topology": topology_to_dict(topo(q)),
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

    def test_second_deal_rejected(self):
        with pytest.raises(ValueError, match="dealt once"):
            scenario([{"event": "deal"}, {"event": "refresh"},
                      {"event": "deal"}])

    def test_owner_deals_once(self):
        sim = Simulation(topo(), b"secret", seed=1)
        sim.owner_store()
        with pytest.raises(ValueError):
            sim.owner_store()


class TestDelivery:
    def test_mother_transcript_empty(self):
        sim = Simulation(topo(), b"secret", seed=1)
        sim.owner_store()
        assert sim.transcripts["m"] == []

    def test_daughter_transcripts_record_each_share(self):
        sim = Simulation(topo(), b"secret", seed=1)
        log = sim.owner_store()
        assert log["delivered"] == 9
        for nid in ("d1", "d2"):
            assert len(sim.transcripts[nid]) == 3

    def test_refresh_recorded_on_classical_only(self):
        sim = Simulation(topo(), b"secret", seed=1)
        sim.owner_store()
        sim.owner_refresh()
        assert sim.transcripts["m"] == []
        assert sum(1 for e in sim.transcripts["d1"]
                   if e["kind"] == "delta") == 3


class TestOwner:
    def test_reconstruct_all_alive(self):
        sim = Simulation(topo(), b"payload", seed=2)
        sim.owner_store()
        assert sim.owner_reconstruct() == b"payload"

    def test_reconstruct_after_refresh(self):
        sim = Simulation(topo(), b"payload", seed=2)
        sim.owner_store()
        for _ in range(3):
            sim.owner_refresh()
        assert sim.owner_reconstruct() == b"payload"

    def test_dead_node_goes_stale(self):
        sim = Simulation(topo(), b"payload", seed=2)
        sim.owner_store()
        sim.fail_node("d1", 2)
        out = sim.owner_refresh()
        assert out["stale"] == ["d1/2"]
        assert sim.nodes[("d1", 2)].stale
        assert sim.owner_reconstruct() == b"payload"

    def test_fail_witness_blocks(self):
        sim = Simulation(topo(), b"payload", seed=2)
        sim.owner_store()
        sim.fail_node("m", 1)
        sim.fail_node("m", 2)
        with pytest.raises(Infeasible):
            sim.owner_reconstruct()

    def test_explicit_selection_below_quorum(self):
        sim = Simulation(topo(), b"payload", seed=2)
        sim.owner_store()
        with pytest.raises(Infeasible):
            sim.owner_reconstruct(selection=[("m", 1), ("d1", 1)])


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

    def test_sticky_compromise_leaks_refresh_writes(self):
        sim = Simulation(topo(), b"payload", seed=3)
        sim.owner_store()
        sim.compromise_node("d1", 1)
        before = set(sim.adversary)
        sim.owner_refresh()
        after = set(sim.adversary)
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

    def test_release_keeps_captures_and_stops_leaks(self):
        sim = Simulation(topo(), b"payload", seed=3)
        run_scenario(scenario([
            {"event": "deal"},
            {"event": "compromise_node", "network": "d1", "node": 1},
            {"event": "release_node", "network": "d1", "node": 1},
            {"event": "refresh"},
        ]), seed=3, sim=sim)
        assert set(sim.adversary) == {("share", "d1", 1, 0)}
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
        sim1 = Simulation(topo(), b"x", seed=5)
        run_scenario(scenario(base), seed=5, sim=sim1)
        sim2 = Simulation(topo(), b"x", seed=5)
        run_scenario(scenario(extra), seed=5, sim=sim2)
        assert set(sim1.adversary) <= set(sim2.adversary)


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
        sim1 = Simulation(topo(), b"x", seed=1)
        sim2 = Simulation(topo(), b"x", seed=2)
        sim1.owner_store()
        sim2.owner_store()
        assert sim1.nodes[("m", 1)].store != sim2.nodes[("m", 1)].store


class TestPersistence:
    def _sim(self):
        sim = Simulation(topo(), b"stored state", seed=9)
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


def dense_verdict(sim):
    """The reference oracle: one elimination over every captured row in
    the full functional space."""
    if not sim.dealt:
        return Access.NO_INFORMATION, None
    q = sim.topology.modulus
    entries = sim.adversary_rows()
    combo = express_over_rows(
        [row for _, row, _ in entries],
        FunctionalSpace(sim.topology, rounds=sim.epoch).secret_functional(),
        q)
    if combo is None:
        return Access.NO_INFORMATION, None
    chunks = [sum(c * vals[i] for c, (_, _, vals) in zip(combo, entries)) % q
              for i in range(sim.chunk_count)]
    return Access.RECONSTRUCTS, decode_secret(chunks, q)


@st.composite
def worlds(draw):
    """A small topology at q = 2^127 - 1, a secret, a seed and a schedule
    of owner and adversary events following one deal."""
    specs = []
    for i in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 4))
        specs.append(NetworkSpec("m" if i == 0 else f"d{i}", n,
                                 draw(st.integers(0, min(2, n - 1))),
                                 LinkKind.ITS if i == 0
                                 else LinkKind.CLASSICAL))
    topology = Topology(DEFAULT_MODULUS, tuple(specs), 0,
                        draw(st.integers(1, len(specs) - 1)))
    nodes = [(net.id, j) for net in specs
             for j in range(1, net.node_count + 1)]

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
                # A loaded state rebuilds the oracle at its first verdict.
                sim = Simulation.from_state(sim.to_state())
            run_scenario(Scenario(topology, secret, (ev,)), seed, sim=sim)
            verdict = sim.adversary_verdict()
            assert verdict == dense_verdict(sim)
            assert verdict[1] in (None, secret)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(worlds(), st.integers(0, 2**32))
    def test_matches_dense_on_partial_captures(self, world, subset_seed):
        # Every daughter's epoch-0 shares cross its recorded link, so a
        # full harvest makes refresh deltas redundant. A state holding a
        # random part of the captures and transcripts is one where deltas
        # bridge epochs.
        topology, secret, seed, schedule, _ = world
        sim = Simulation(topology, secret, seed)
        run_scenario(Scenario(topology, secret,
                              tuple([{"event": "deal"}] + schedule)),
                     seed, sim=sim)
        rng = random.Random(subset_seed)
        state = sim.to_state()
        state["hndl"] = True
        state["adversary"] = [rec for rec in state["adversary"]
                              if rng.random() < 0.5]
        state["transcripts"] = {
            nid: [e for e in entries
                  if rng.random() < (0.8 if e["kind"] == "delta" else 0.4)]
            for nid, entries in state["transcripts"].items()}
        part = Simulation.from_state(state)
        verdict = part.adversary_verdict()
        assert verdict == dense_verdict(part)
        assert verdict[1] in (None, secret)

    def test_matches_access_oracle_on_enumerated_topologies(self):
        rng = random.Random(2024)
        for outer, nets in rng.sample(list(enumerate_specs()), 600):
            t = build_topology(outer, nets)
            nodes = [(net.id, j) for net in t.networks
                     for j in range(1, net.node_count + 1)]
            held = [node for node in nodes if rng.random() < 0.6]
            knowledge = AdversaryKnowledge(t)
            for nid, j in held:
                knowledge.add("share", nid, j, 0, ())
            assert ((knowledge.recover() is not None)
                    == (access_oracle(held, t) is Access.RECONSTRUCTS))
