"""Fixtures that several test modules share: make_topology, which
builds every topology of the standard ids, the enumeration of small
systems, a scripted entropy source, the block layouts' moduli and
lengths, the CLI runner with its file-fault injector and its fixed
draws, snapshots of what a command must leave as it was, and the
malformed inputs and document edits that the CLI tests and the refusal
rows both use. A test module imports helpers from here, from
reference.py and from multishare, never from another test module
(tests/test_imports.py checks it)."""

import errno
import itertools
import json
import os
import random
import signal
import stat
import struct
from contextlib import contextmanager
from pathlib import Path

from multishare import cli, vault
from multishare.cli import main
from multishare.field import BLOCK_WORDS, DEFAULT_MODULUS, deterministic_rng
from multishare.protocol import LinkKind, NetworkSpec, Topology


def make_topology(q, nets=((3, 1),) * 3, outer=1, mother=0):
    """The topology at modulus q of `nets`, one (node count, inner
    degree) pair per network in topology order, of outer degree `outer`.
    Network `mother` is the mother "m", on the ITS link; the others are
    the daughters "d1", "d2", ... in order, each on a classical link. By
    default three networks of three nodes and inner degree 1."""
    return Topology(q, tuple(
        NetworkSpec("m", n, d, LinkKind.ITS) if i == mother else
        NetworkSpec(f"d{i + (i < mother)}", n, d, LinkKind.CLASSICAL)
        for i, (n, d) in enumerate(nets)), mother, outer)


def all_nodes(topology):
    """(network id, node index) of every node, in topology order."""
    return [(net.id, j) for net in topology.networks
            for j in range(1, net.node_count + 1)]


def enumerate_specs(max_networks=4, max_nodes=4, max_degree=2):
    """(outer degree, ((node count, inner degree), ...)) of every small
    system, mother first: 5,346 with the defaults."""
    specs = [(n, d) for n in range(1, max_nodes + 1)
             for d in range(0, max_degree + 1) if d + 1 <= n]
    for l in range(2, max_networks + 1):
        for mother in specs:
            for daughters in itertools.combinations_with_replacement(
                    specs, l - 1):
                for outer in range(1, l):
                    yield outer, (mother,) + daughters


def enumerated_held_sets():
    """(topology, held nodes) on a seeded sample of the enumerated small
    topologies at q = 257, each node held with probability 0.6."""
    rng = random.Random(2024)
    out = []
    for outer, nets in rng.sample(list(enumerate_specs()), 600):
        t = make_topology(257, nets, outer)
        out.append((t, [node for node in all_nodes(t)
                        if rng.random() < 0.6]))
    return out


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


# A modulus of each word width the slot layout meets: one byte with a
# spare nibble, two bytes, three, a non-Mersenne prime of 13 bytes (so
# Barrett's reduction) and the default.
LAYOUT_MODULI = [5, 257, 65537, 2**100 - 15, DEFAULT_MODULUS]
# Block lengths odd and even, either side of BLOCK_WORDS.
LAYOUT_LENGTHS = [1, 2, 3, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1]


def layout_values(q, n, seed):
    """n values below q, each 0, q - 1 or a random one."""
    rng = random.Random(seed)
    return [rng.choice((0, q - 1, rng.randrange(q))) for _ in range(n)]


def run(argv):
    """The CLI's exit code for `argv`, each argument as its str."""
    return main([str(a) for a in argv])


def bounded(argv) -> int:
    """run(argv), which fails with TimeoutError after 60 s rather than
    hang: for a command that a FIFO could make wait for a writer."""
    def expire(signum, frame):
        raise TimeoutError(f"{argv[0]} ran for 60 s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        return run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


@contextmanager
def fixed_draws(monkeypatch, seed: int):
    """In the block, each command that draws from the operating system
    (cli.crypto_rng) draws from a fresh deterministic_rng(seed) instead:
    a test can then compare a refresh's files with those of a rerun or
    with recorded digests. They are the draws that `refresh --seed SEED`
    made in earlier releases, which the digests were recorded with."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "crypto_rng", lambda: deterministic_rng(seed))
        yield


def tree(root: Path) -> dict:
    """Every file, directory and link under `root`: a regular file's bytes
    (its size and modification time past 1 MiB, so that a sparse 4 GiB
    file is not read), a link's target, and the type of any other, so
    that a FIFO is not read either."""
    found = {}
    for top, dirs, files in os.walk(root):
        for path in (Path(top, name) for name in dirs + files):
            info = path.lstat()
            found[path] = (
                os.readlink(path) if stat.S_ISLNK(info.st_mode)
                else stat.S_IFMT(info.st_mode)
                if not stat.S_ISREG(info.st_mode)
                else path.read_bytes() if info.st_size < 2**20
                else (info.st_size, info.st_mtime_ns))
    return found


def snapshot(directory: Path) -> dict:
    """Every file in `directory`, by name."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# How a fault that FaultyFiles injects prints.
INJECTED = "[Errno 5] injected fault"


class FaultyFiles:
    """Counts the file mutations a command makes (writes, fsyncs,
    replaces, unlinks and rmdirs) and fails the k-th with EIO; a failed
    write leaves half its bytes. Each block written to or appended to a
    file (vault._write_block) is one write. With `crash`, every later
    mutation fails too and writes nothing, as if the process had died at
    the k-th: the error path's cleanup is then skipped."""

    def __init__(self, fail_at=None, crash=False):
        self.fail_at, self.crash = fail_at, crash
        self.log = []

    def _fails(self, kind) -> bool:
        self.log.append(kind)
        k = len(self.log)
        return self.fail_at is not None and (
            k == self.fail_at or self.crash and k > self.fail_at)

    def run(self, monkeypatch, argv) -> int:
        return self.call(monkeypatch, run, argv)

    def call(self, monkeypatch, fn, *args):
        """fn(*args) with the file mutations counted and faulted."""
        fsync, replace = os.fsync, os.replace
        unlink, rmdir = Path.unlink, Path.rmdir
        write_block = vault._write_block

        def fault():
            return OSError(errno.EIO, "injected fault")

        def faulty_write_block(path, data, mode):
            if self._fails("write"):
                if len(self.log) == self.fail_at:
                    write_block(path, data[:len(data) // 2], mode)
                raise fault()
            return write_block(path, data, mode)

        def faulty(kind, real):
            def call(*args, **kwargs):
                if self._fails(kind):
                    raise fault()
                return real(*args, **kwargs)
            return call

        with monkeypatch.context() as patch:
            patch.setattr(vault, "_write_block", faulty_write_block)
            patch.setattr(Path, "unlink", faulty("unlink", unlink))
            patch.setattr(Path, "rmdir", faulty("rmdir", rmdir))
            patch.setattr(os, "fsync", faulty("fsync", fsync))
            patch.setattr(os, "replace", faulty("replace", replace))
            return fn(*args)


# JSON nested beyond the parser's limit.
DEEP = "[" * 100_000 + "]" * 100_000
# Network ids that would name a share file outside --out, or no file: a
# lone surrogate is valid JSON but names no file, as it has no UTF-8.
ESCAPING_IDS = ["../evil", "a\x00b", "\ud800"]
# Spellings of the lowercase hex `v` that int(v, 16) reads as the same
# value, by name.
NONCANONICAL_HEX = {
    "space": lambda v: f" {v}\n",
    "0x": lambda v: f"0x{v}",
    "uppercase": lambda v: v.upper(),
    "plus": lambda v: f"+{v}",
    "underscore": lambda v: f"{v[0]}_{v[1:]}",
    "leading-zero": lambda v: f"0{v}",
    "non-ascii-digit": lambda v: v.translate(
        {ord(d): ord("\u0660") + int(d) for d in "0123456789"}),
}
DELETE = object()


def at(doc, path: list, value):
    """A copy of `doc` with the entry at `path` (keys and indices) set to
    `value`, or to value(entry) when it is callable, or removed when it is
    DELETE."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value(target[last]) if callable(value) else value
    return doc


def state_file(payload: bytes) -> bytes:
    """A simulator state file around `payload`: magic, length, payload."""
    return b"MSS1" + struct.pack(">Q", len(payload)) + payload
