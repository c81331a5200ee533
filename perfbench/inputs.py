"""Seeded inputs for the three workloads.

Everything the program sees is generated here from the benchmark seed and
written as files: a topology, a secret, a scenario, or a list of sweep
topologies. The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict

MODULUS = 2**127 - 1

# Sizes per scale. "full" is what the benchmark measures; "tiny" lets the
# self-test run every workload in seconds.
VAULT_SECRET_BYTES = {"full": 1 << 20, "tiny": 4096}
ADVERSARY_ROUNDS = {"full": 27, "tiny": 5}
ADVERSARY_SECRET_BYTES = 64
SWEEP_FRACTION = 8  # keep about 1/N of each stratum
SWEEP_TINY_COUNT = 12


def topology_doc(outer_degree, nets):
    """Topology file for nets = [(node_count, inner_degree), ...]; the
    first network is the mother."""
    return {
        "format_version": 1,
        "modulus": format(MODULUS, "x"),
        "outer_degree": outer_degree,
        "networks": [
            {"id": "m" if i == 0 else f"d{i}", "node_count": n,
             "inner_degree": d, "link": "ITS" if i == 0 else "Classical",
             "mother": i == 0}
            for i, (n, d) in enumerate(nets)],
    }


VAULT_TOPOLOGY = (1, ((3, 1), (3, 1), (3, 1)))
ADVERSARY_TOPOLOGY = (2, ((5, 2), (5, 2), (5, 2), (5, 2)))
# The largest system of the sweep enumeration; the sweep's set-up probe.
SWEEP_TOPOLOGY = (3, ((4, 2), (4, 2), (4, 2), (4, 2)))


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def vault_secret(seed, scale):
    return random.Random(seed).randbytes(VAULT_SECRET_BYTES[scale])


def adversary_scenario(seed, scale):
    """Slow mobile adversary over many refresh epochs.

    Harvest-now-decrypt-later is on from the start and mother node 1 is
    held for the whole run; every round captures one more daughter node,
    node 1 of each daughter in turn, then node 2, and so on. Mother nodes 2
    and 3 fall only at the end: with two mother shares the secret is still
    hidden, with three it is recovered.

    The seed draws the secret (and the simulation's seed) but not the
    capture order: the oracle's elimination work depends on the order (by
    up to 25% between seeds), and the benchmark compares runs of one
    schedule.
    """
    rng = random.Random(seed)
    outer, nets = ADVERSARY_TOPOLOGY
    daughters = [(f"d{i}", j) for j in range(1, nets[1][0] + 1)
                 for i in range(1, len(nets))]
    rounds = ADVERSARY_ROUNDS[scale]
    schedule = [{"event": "deal"}, {"event": "hndl_decrypt_classical"},
                {"event": "compromise_node", "network": "m", "node": 1}]
    for r in range(1, rounds + 1):
        net, node = daughters[(r - 1) % len(daughters)]
        schedule.append({"event": "refresh"})
        schedule.append({"event": "compromise_node", "network": net,
                         "node": node})
        if r % 5 == 0:
            schedule.append({"event": "attempt_reconstruct",
                             "actor": "adversary"})
            schedule.append({"event": "attempt_reconstruct",
                             "actor": "owner"})
    for node in (2, 3):
        schedule.append({"event": "compromise_node", "network": "m",
                         "node": node})
        schedule.append({"event": "attempt_reconstruct",
                         "actor": "adversary"})
    return {
        "topology": topology_doc(outer, nets),
        "secret_hex": rng.randbytes(ADVERSARY_SECRET_BYTES).hex(),
        "schedule": schedule,
    }


def enumerate_topologies(max_networks=4, max_nodes=4, max_degree=2):
    """(outer_degree, nets) in the order of the acceptance suite's
    enumeration: 5,346 systems, mother first."""
    specs = [(n, d) for n in range(1, max_nodes + 1)
             for d in range(0, max_degree + 1) if d + 1 <= n]
    for l in range(2, max_networks + 1):
        for mother in specs:
            for daughters in itertools.combinations_with_replacement(
                    specs, l - 1):
                for outer in range(1, l):
                    yield outer, (mother,) + daughters


def sweep_sample(seed, scale):
    """A seeded 1/N sample of the enumeration, stratified by network count
    and by the number of count vectors the exhaustive search visits, so
    every seed carries the same amount of work."""
    strata = defaultdict(list)
    for outer, nets in enumerate_topologies():
        size = 1
        for n, _ in nets:
            size *= n + 1
        strata[(len(nets), size)].append((outer, nets))
    rng = random.Random(seed)
    sample = []
    for key in sorted(strata):
        group = strata[key]
        take = (len(group) + SWEEP_FRACTION // 2) // SWEEP_FRACTION
        sample += rng.sample(group, take)
    rng.shuffle(sample)
    if scale == "tiny":
        sample = sample[:SWEEP_TINY_COUNT]
    return [[outer, [list(n) for n in nets]] for outer, nets in sample]


def expected_formula(outer, nets):
    """The closed-form thresholds, computed independently of the program:
    (t_networks, t_nodes, t_f0, t_f1) and the daughter kill costs."""
    t_p = outer + 1
    (mn, md), daughters = nets[0], nets[1:]
    inner_t = sorted(d + 1 for _, d in daughters)
    kill = sorted(n - d for n, d in daughters)
    return {
        "t_networks": t_p,
        "t_nodes": (md + 1) + sum(inner_t[:t_p - 1]),
        "t_f0": mn - md,
        "t_f1": sum(kill[:len(nets) - t_p]),
    }, kill
