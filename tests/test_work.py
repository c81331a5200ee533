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
its pin and says why, as it would a golden digest.

The vault commands' calls to the operating system are counted the same
way, where `vault` (the one module that makes them) looks them up: its
os.open, os.fsync and os.replace calls, and the bytes that
vault._write_block writes. These are direct `os` calls, so they do not
change with the Python version; the open() of a share file that is read
is os.open through vault.open_regular."""

import os
from collections import Counter
from pathlib import Path

import pytest

from multishare import field, protocol, vault
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


# Per vault command, vault's calls to the operating system and the bytes
# it writes: (counts per block, counts once per command). A block of
# share values is 9 files of 4,096 values of 35 bytes each; a block of
# chunks carries 61,440 bytes of the secret, less the 4-byte length that
# the first block starts with. At the 18 blocks of a 1 MiB secret these
# give os.open 179, 349 and 193, os.fsync 15, 13 and 2 and os.replace 10,
# 10 and 1 for deal, refresh and reconstruct --shares.
OS_PER_BLOCK = {
    "deal": ({"os.open": 9, "_write_block bytes": 1_290_240},
             {"os.open": 17, "os.fsync": 15, "os.replace": 10,
              "_write_block bytes": 1_354}),
    "refresh": ({"os.open": 18, "_write_block bytes": 1_290_240},
                {"os.open": 25, "os.fsync": 13, "os.replace": 10,
                 "_write_block bytes": 1_354}),
    "reconstruct --shares": ({"os.open": 10, "_write_block bytes": 61_440},
                             {"os.open": 13, "os.fsync": 2,
                              "os.replace": 1, "_write_block bytes": -4}),
    "reconstruct m/1 m/2 d1/1 d1/2": ({"os.open": 5,
                                       "_write_block bytes": 61_440},
                                      {"os.open": 7, "os.fsync": 2,
                                       "os.replace": 1,
                                       "_write_block bytes": -4}),
}


@pytest.fixture
def os_counted(monkeypatch):
    """The counts of vault's calls to the operating system since the test
    began, and of the bytes vault._write_block writes."""
    counts = Counter()

    class CountingOs:
        """os, but for open, fsync and replace, which are counted."""

        def __getattr__(self, name):
            return getattr(os, name)

        def open(self, *args):
            counts["os.open"] += 1
            return os.open(*args)

        def fsync(self, fd):
            counts["os.fsync"] += 1
            return os.fsync(fd)

        def replace(self, src, dst):
            counts["os.replace"] += 1
            return os.replace(src, dst)

    real_write = vault._write_block

    def write_block(path, data, mode):
        counts["_write_block bytes"] += len(data)
        return real_write(path, data, mode)

    monkeypatch.setattr(vault, "os", CountingOs())
    monkeypatch.setattr(vault, "_write_block", write_block)
    return counts


def test_vault_commands_os(os_counted, tmp_path):
    found = {}
    for blocks in BLOCKS:
        (tmp_path / str(blocks)).mkdir()
        found[blocks] = vault_work(os_counted, tmp_path / str(blocks), blocks)
    # Each count grows by the same amount per block, but that deal and
    # refresh write chunk_count in decimal into each of the 9 share files
    # and the manifest.
    for command, (per_block, once) in OS_PER_BLOCK.items():
        for blocks in BLOCKS:
            want = {key: blocks * per_block.get(key, 0) + once.get(key, 0)
                    for key in {*per_block, *once}}
            if command in ("deal", "refresh"):
                want["_write_block bytes"] += 10 * len(
                    str(blocks * BLOCK_WORDS))
            assert found[blocks][command] == want, (command, blocks)
