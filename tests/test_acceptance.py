"""Acceptance suite: one test per release criterion, each printing a
pass line with its runtime (run with -s to see them on success)."""

import itertools
import json
import time
from collections import Counter

import pytest

from multishare.cli import main as cli_main
from multishare.errors import EpochMismatch, Infeasible
from multishare.field import DEFAULT_MODULUS, deterministic_rng
from multishare.formats import canonical_json, topology_to_dict
from multishare.protocol import (Access, access_oracle, apply_node_refresh,
                                 compute_thresholds_exhaustive,
                                 compute_thresholds_formula, deal,
                                 decode_secret, encode_secret, reconstruct,
                                 refresh)
from multishare.simnet import Scenario, run_scenario
from reference import (birkhoff_coeffs, chained, derivative_coeffs, horner,
                       interpolate_zero)
from support import all_nodes, enumerate_specs, make_topology


def report(number, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s)")


def enumerate_topologies(q=257, **bounds):
    for outer, nets in enumerate_specs(**bounds):
        yield make_topology(q, nets, outer)


def test_criterion_1_shamir_exhaustive():
    # Every quorum of a dealt network interpolates to its inner secret: the
    # mother's P(1) = secret + p_1 beside a one-node daughter holding
    # P'(1) = p_1, at every size, quorum and secret over F_7.
    started = time.monotonic()
    q = 7
    rng = deterministic_rng(1)
    for n in range(1, 6):
        for k in range(1, n + 1):
            t = make_topology(q, ((n, k - 1), (1, 0)))
            for secret in range(q):
                dealt = deal([secret], t, rng)
                (slope,) = dealt["d1"][0].values
                shares = [(s.node_index, s.values[0]) for s in dealt["m"]]
                for subset in itertools.combinations(shares, k):
                    assert interpolate_zero(subset, q) == (
                        secret + slope) % q
    report(1, "shamir exhaustive correctness", started, 10)


def test_criterion_2_exact_perfect_secrecy():
    started = time.monotonic()
    q, n = 7, 5
    for k in (2, 3):
        for pos in itertools.combinations(range(1, n + 1), k - 1):
            hists = []
            for secret in range(q):
                counter = Counter()
                for tail in itertools.product(range(q), repeat=k - 1):
                    coeffs = [secret, *tail]
                    counter[tuple(horner(coeffs, x, q) for x in pos)] += 1
                hists.append(counter)
            assert all(h == hists[0] for h in hists)  # exact, no tolerance
    report(2, "exact perfect secrecy", started, 60)


def test_criterion_3_birkhoff_reconstruction():
    started = time.monotonic()
    q = 11
    rng = deterministic_rng(3)
    for _ in range(1000):
        d = rng.randrange(1, 4)
        p = ([rng.randrange(q) for _ in range(d)]
             + [rng.randrange(1, q)])
        dp = derivative_coeffs(p, q)
        cons = [(1, 0, horner(p, 1, q))]
        cons += [(i, 1, horner(dp, i, q)) for i in range(1, d + 1)]
        assert birkhoff_coeffs(cons, d, q) == p
    report(3, "birkhoff reconstruction", started, 5)


def test_criterion_4_access_dichotomy():
    started = time.monotonic()
    # Part A: l=3, three nodes per network, all degrees 1 -- all 512
    # subsets; actual reconstruction agrees with the rank verdict.
    t = make_topology(11)
    chunks = [6]
    dealt = deal(chunks, t, deterministic_rng(4))
    nodes = all_nodes(t)
    for bits in range(2 ** 9):
        held = [nodes[i] for i in range(9) if bits >> i & 1]
        subset = {}
        for nid, j in held:
            subset.setdefault(nid, []).append(
                next(s for s in dealt[nid] if s.node_index == j))
        try:
            ok = reconstruct(chained(subset), t) == chunks
        except Infeasible:
            ok = False
        assert ok == (access_oracle(held, t) is Access.RECONSTRUCTS)

    # Part B: reduced l=2, two nodes each, at q=7 -- every NoInformation
    # subset has an exactly secret-independent joint distribution under
    # exhaustive dealer-randomness enumeration.
    q = 7
    t = make_topology(q, ((2, 1),) * 2)
    nodes = [("m", 1), ("m", 2), ("d1", 1), ("d1", 2)]

    def value(nid, j, secret, p1, q0, q1):
        inner0 = (secret + p1) % q  # mother inner secret P(1)
        inner1 = p1                 # daughter inner secret P'(1)
        return ((inner0 + q0 * j) if nid == "m" else
                (inner1 + q1 * j)) % q

    for bits in range(2 ** 4):
        held = [nodes[i] for i in range(4) if bits >> i & 1]
        if access_oracle(held, t) is not Access.NO_INFORMATION:
            continue
        hists = []
        for secret in range(q):
            c = Counter()
            for p1, q0, q1 in itertools.product(range(q), repeat=3):
                c[tuple(value(nid, j, secret, p1, q0, q1)
                        for nid, j in held)] += 1
            hists.append(c)
        assert all(h == hists[0] for h in hists)
    report(4, "access dichotomy", started, 300)


def test_criterion_5_threshold_agreement():
    started = time.monotonic()
    checked = 0
    discrepancies = 0
    for t in enumerate_topologies():
        formula = compute_thresholds_formula(t)
        oracle = compute_thresholds_exhaustive(t)
        assert formula.t_networks == oracle.t_networks
        assert formula.t_nodes == oracle.t_nodes
        assert formula.t_f0 == oracle.t_f0
        # The closed form sums daughter-kill costs over l - T(P)
        # daughters; the exhaustive search needs exactly one more.
        t_p = t.outer_degree + 1
        kill = sorted(n.node_count - n.inner_degree for n in t.daughters())
        corrected = sum(kill[:len(t.networks) - t_p + 1])
        assert oracle.t_f1 == corrected
        if formula.t_f1 != oracle.t_f1:
            discrepancies += 1
            assert corrected == formula.t_f1 + kill[
                len(t.networks) - t_p]  # exactly one extra daughter
        checked += 1
    assert checked == 5346
    assert discrepancies > 0
    report(5, f"threshold agreement ({checked} topologies)", started, 120)


def test_criterion_6_whole_network_compromise():
    started = time.monotonic()
    for t in enumerate_topologies():
        assert compute_thresholds_formula(t).t_networks >= 2
        for net in t.networks:
            held = [(net.id, j) for j in range(1, net.node_count + 1)]
            assert access_oracle(held, t) is Access.NO_INFORMATION
    report(6, "whole-network compromise safety", started, 60)


def _scenario(schedule):
    return Scenario.from_dict({
        "topology": topology_to_dict(make_topology(65537)),
        "secret_hex": b"long-term secret".hex(),
        "schedule": schedule,
    })


def test_criterion_7_adversary_incompatibility():
    started = time.monotonic()
    hndl_only = _scenario([
        {"event": "deal"},
        {"event": "refresh"},
        {"event": "hndl_decrypt_classical"},
        {"event": "attempt_reconstruct", "actor": "adversary"},
    ])
    mother_only = _scenario([
        {"event": "deal"},
        {"event": "compromise_network", "network": "m"},
        {"event": "attempt_reconstruct", "actor": "adversary"},
    ])
    combined = _scenario([
        {"event": "deal"},
        {"event": "hndl_decrypt_classical"},
        {"event": "compromise_network", "network": "m"},
        {"event": "attempt_reconstruct", "actor": "adversary"},
    ])
    for seed in (1, 2, 3):
        assert run_scenario(hndl_only, seed)[
            "adversary_verdict"] == "NoInformation"
        assert run_scenario(mother_only, seed)[
            "adversary_verdict"] == "NoInformation"
        won = run_scenario(combined, seed)
        assert won["adversary_verdict"] == "Reconstructs"
        assert won["adversary_recovered_secret"] is True
        # deterministic under a fixed seed, byte for byte
        assert canonical_json(run_scenario(combined, seed)) == \
            canonical_json(won)
    report(7, "HNDL and incompatibility claims", started, 10)


def test_criterion_8_refresh_suite():
    started = time.monotonic()
    # Secret preserved across 5 refresh rounds (protocol level).
    q = 65537
    t = make_topology(q)
    rng = deterministic_rng(8)
    msg = b"refresh me"
    chunks = encode_secret(msg, q)
    dealt = deal(chunks, t, rng)
    for epoch in range(5):
        deltas = refresh(t, len(chunks), epoch, rng)
        dealt = {nid: [apply_node_refresh(s, deltas[nid]) for s in shares]
                 for nid, shares in dealt.items()}
        assert decode_secret(reconstruct(chained(dealt), t), q) == msg
    # Cross-epoch mixing rejected.
    stale = deal(chunks, t, rng)
    mixed = dict(dealt)
    mixed["d1"] = stale["d1"]
    with pytest.raises(EpochMismatch):
        reconstruct(chained(mixed), t)
    # Post-refresh share value exactly uniform at q=7 under exhaustive
    # refresh-randomness enumeration (all polynomials with R(0)=0).
    q7, k = 7, 3
    for y0 in range(q7):
        for x in (1, 2, 3):
            counter = Counter()
            for tail in itertools.product(range(q7), repeat=k - 1):
                delta = horner([0, *tail], x, q7)
                counter[(y0 + delta) % q7] += 1
            assert set(counter) == set(range(q7))
            assert len(set(counter.values())) == 1
    report(8, "refresh suite", started, 30)


def test_criterion_9_cli_round_trip_1mib(tmp_path):
    started = time.monotonic()
    topo = make_topology(DEFAULT_MODULUS)
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(json.dumps(topology_to_dict(topo)))
    data = deterministic_rng(9).randbytes(1 << 20)
    secret = tmp_path / "secret.bin"
    secret.write_bytes(data)
    out = tmp_path / "shares"
    assert cli_main(["deal", "--topology", str(topo_path),
                     "--secret", str(secret), "--out", str(out),
                     "--seed", "1"]) == 0
    assert cli_main(["refresh", "--topology", str(topo_path),
                     "--shares", str(out)]) == 0
    dest = tmp_path / "recovered.bin"
    assert cli_main(["reconstruct", "--topology", str(topo_path),
                     "--shares", str(out), "--out", str(dest)]) == 0
    assert dest.read_bytes() == data
    report(9, "CLI 1 MiB round trip", started, 30)


def test_mobile_adversary_100_rounds_hndl(tmp_path):
    """The benchmark's slow mobile adversary over 100 refresh rounds:
    harvest-now-decrypt-later from the start, mother node 1 held
    throughout, one more daughter node captured per round, then mother
    nodes 2 and 3. Only the third mother node reveals the secret."""
    started = time.monotonic()
    topo = make_topology(DEFAULT_MODULUS, ((5, 2),) * 4, 2)
    daughters = [(f"d{i}", j) for j in range(1, 6) for i in range(1, 4)]
    schedule = [{"event": "deal"}, {"event": "hndl_decrypt_classical"},
                {"event": "compromise_node", "network": "m", "node": 1}]
    for r in range(1, 101):
        net, node = daughters[(r - 1) % len(daughters)]
        schedule += [{"event": "refresh"},
                     {"event": "compromise_node", "network": net,
                      "node": node}]
        if r % 5 == 0:
            schedule += [{"event": "attempt_reconstruct",
                          "actor": "adversary"},
                         {"event": "attempt_reconstruct", "actor": "owner"}]
    for node in (2, 3):
        schedule += [{"event": "compromise_node", "network": "m",
                      "node": node},
                     {"event": "attempt_reconstruct", "actor": "adversary"}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "topology": topology_to_dict(topo),
        "secret_hex": deterministic_rng(1).randbytes(64).hex(),
        "schedule": schedule}))
    out = tmp_path / "report.json"
    assert cli_main(["simulate", "--scenario", str(path), "--seed", "1",
                     "--report", str(out)]) == 0
    result = json.loads(out.read_text())
    verdicts = [e["outcome"]["verdict"] for e in result["events"]
                if e["outcome"].get("actor") == "adversary"]
    assert verdicts == ["NoInformation"] * 21 + ["Reconstructs"]
    assert result["adversary_recovered_secret"] is True
    assert result["owner_available"] is True and result["epoch"] == 100
    elapsed = time.monotonic() - started
    assert elapsed < 5, f"100-round simulate over budget: {elapsed:.1f}s"
