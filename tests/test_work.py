"""The work each command does, counted at the kernels and pinned exactly:
a perf signal with no noise.

Each command runs through cli.main in process on the documented topology
(docs/examples/topology.json: three networks of three nodes, inner
degree 1, outer degree 1, q = 2^127 - 1), each vault command on secrets
of 1, 2 and 3 full blocks of BLOCK_WORDS chunks. Wrappers count, where
`protocol` looks them up, the weighted_column_sum calls and the columns
they sum and the values random_ints draws; and the echelon_reduce calls
under field's name (express_over_rows and echelon_insert call it there)
and under protocol's (_walk). Timing on a shared host varies up to 2x
between runs; these counts do not. A change that moves a count updates
its pin and says why, as it would a golden digest."""

from collections import Counter
from pathlib import Path

import pytest

from multishare import field, protocol
from multishare.field import BLOCK_WORDS
from multishare.protocol import LENGTH_HEADER, chunk_size
from support import run

ROOT = Path(__file__).resolve().parent.parent
TOPOLOGY = ROOT / "docs" / "examples" / "topology.json"
SCENARIO = ROOT / "docs" / "examples" / "scenario.json"
BLOCKS = (1, 2, 3)

# Per vault command: (counts per block, counts once per command).
PER_BLOCK = {
    "deal": ({"random_ints values": 16_384, "weighted_column_sum calls": 12,
              "weighted_column_sum columns": 24}, {}),
    "refresh": ({"random_ints values": 12_288,
                 "weighted_column_sum calls": 9,
                 "weighted_column_sum columns": 18}, {}),
    "reconstruct --shares": ({"weighted_column_sum calls": 8,
                              "weighted_column_sum columns": 16},
                             {"field.echelon_reduce calls": 24}),
    "reconstruct m/1 m/2 d1/1 d1/2": ({"weighted_column_sum calls": 3,
                                       "weighted_column_sum columns": 6},
                                      {"field.echelon_reduce calls": 9}),
}


@pytest.fixture
def counted(monkeypatch):
    """The counts of the kernels' work since the test began."""
    counts = Counter()

    def wrap(module, name, **measures):
        """Count each call of module.name: counts[key] grows by
        measure(args) for each key=measure."""
        real = getattr(module, name)

        def call(*args):
            for key, measure in measures.items():
                counts[key] += measure(args)
            return real(*args)
        monkeypatch.setattr(module, name, call)

    def once(args):
        return 1

    wrap(protocol, "weighted_column_sum",
         **{"weighted_column_sum calls": once,
            "weighted_column_sum columns": lambda args: len(args[1])})
    wrap(protocol, "random_ints",
         **{"random_ints values": lambda args: args[1]})
    wrap(field, "echelon_reduce", **{"field.echelon_reduce calls": once})
    wrap(protocol, "echelon_reduce",
         **{"protocol.echelon_reduce calls": once})
    return counts


def work(counts: Counter, argv) -> dict:
    """The nonzero counts that running `argv` adds."""
    before = Counter(counts)
    assert run(argv) == 0
    return dict(counts - before)


def vault_work(counts: Counter, tmp: Path, blocks: int) -> dict:
    """Each vault command's work on a secret of `blocks` full blocks."""
    size = blocks * BLOCK_WORDS * chunk_size(2**127 - 1) - LENGTH_HEADER
    secret, out = tmp / "secret.bin", tmp / "shares"
    secret.write_bytes(bytes(range(256)) * (size // 256)
                       + bytes(size % 256))
    listed = [out / f"{name}.share.json"
              for name in ("m_001", "m_002", "d1_001", "d1_002")]
    topology = ["--topology", TOPOLOGY]
    found = {
        "deal": work(counts, ["deal", *topology, "--secret", secret,
                              "--out", out]),
        "refresh": work(counts, ["refresh", *topology, "--shares", out]),
        "reconstruct --shares": work(
            counts, ["reconstruct", *topology, "--shares", out,
                     "--out", tmp / "all.bin"]),
        "reconstruct m/1 m/2 d1/1 d1/2": work(
            counts, ["reconstruct", *topology, *listed,
                     "--out", tmp / "listed.bin"]),
    }
    for name in ("all.bin", "listed.bin"):
        assert (tmp / name).read_bytes() == secret.read_bytes()
    return found


def test_vault_commands(counted, tmp_path):
    found = {}
    for blocks in BLOCKS:
        (tmp_path / str(blocks)).mkdir()
        found[blocks] = vault_work(counted, tmp_path / str(blocks), blocks)
    # Each count grows by the same amount per block.
    for command, (per_block, once) in PER_BLOCK.items():
        for blocks in BLOCKS:
            want = {key: blocks * per_block.get(key, 0) + once.get(key, 0)
                    for key in {*per_block, *once}}
            assert found[blocks][command] == want, (command, blocks)


def test_thresholds(counted):
    # A certified shape: sums over sorted lists, and no walk.
    assert work(counted, ["thresholds", "--topology", TOPOLOGY]) == {}


def test_simulate(counted, tmp_path):
    assert work(counted, ["simulate", "--scenario", SCENARIO,
                          "--report", tmp_path / "report.json"]) == {
        "random_ints values": 14, "weighted_column_sum calls": 37,
        "weighted_column_sum columns": 76, "field.echelon_reduce calls": 38}
