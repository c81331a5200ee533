import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from multishare import formats, vault
from multishare.field import (BLOCK_WORDS, DEFAULT_MODULUS, deterministic_rng,
                              is_probable_prime, word_bytes)
from multishare.formats import topology_to_dict
from multishare.protocol import (LENGTH_HEADER, SecretDecoder, chunk_size,
                                 deal, encode_secret)
from multishare.simnet import EVENTS, load_state
from support import (DEEP, DELETE, ESCAPING_IDS, INJECTED, NONCANONICAL_HEX,
                     FaultyFiles, at, bounded, fixed_draws, make_topology,
                     run, snapshot, state_file, tree)

ROOT = Path(__file__).resolve().parent.parent


def write_topology(path: Path, q=DEFAULT_MODULUS, **layout):
    """make_topology(q, **layout), written to `path` as JSON."""
    topo = make_topology(q, **layout)
    path.write_text(json.dumps(topology_to_dict(topo)))
    return topo


@pytest.fixture
def workspace(tmp_path):
    topo_path = tmp_path / "topology.json"
    write_topology(topo_path)
    secret_path = tmp_path / "secret.bin"
    secret_path.write_bytes(b"the crown jewels " * 3)
    return tmp_path, topo_path, secret_path


# The commands that open a vault: they settle it, read its manifest and
# share headers, and check them before they read a value.
VAULT_COMMANDS = ("refresh", "reconstruct")


def assert_vault_fault(capsys, tmp, topo, shares, code, message,
                       corrupt=False, commands=VAULT_COMMANDS):
    """Each of `commands` run on the vault directory `shares` (refresh, and
    reconstruct --shares with its --out in `tmp`) exits `code`, prints the
    one line `error: MESSAGE` (reconstruct's after `corrupt shares: ` when
    `corrupt`), and changes no file under `tmp`: the vault stays
    byte-identical and no --out is written."""
    before = tree(tmp)
    for command in commands:
        argv = (["refresh", "--topology", topo, "--shares", shares]
                if command == "refresh" else
                ["reconstruct", "--topology", topo, "--shares", shares,
                 "--out", tmp / "r.bin"])
        capsys.readouterr()
        assert run(argv) == code, command
        prefix = "corrupt shares: " if corrupt and command != "refresh" else ""
        assert capsys.readouterr().err == f"error: {prefix}{message}\n", \
            command
        assert tree(tmp) == before, command


def restore(directory: Path, files: dict) -> None:
    shutil.rmtree(directory)
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)


def _launched(child, argvs):
    """(ru_maxrss, stderr) of each CLI command, run one after another by
    `python CHILD... ARGV...` in fresh interpreters started from a small
    one: a child's ru_maxrss also counts the high-water RSS of the process
    it was started from."""
    measure = (
        "import json, os, subprocess, sys\n"
        "child, argvs = json.loads(sys.argv[1])\n"
        "for argv in argvs:\n"
        "    p = subprocess.Popen([sys.executable, *child, *argv],"
        " stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
        "    err = p.stderr.read().decode()\n"
        "    _, status, usage = os.wait4(p.pid, 0)\n"
        "    assert status == 0, (argv, err)\n"
        "    print(json.dumps([usage.ru_maxrss, err]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", measure, json.dumps(
            [child, [[str(a) for a in argv] for argv in argvs]])],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def peak_rss_kib(*argvs):
    """The ru_maxrss of each CLI command (_launched)."""
    return [rss for rss, _ in _launched(["-m", "multishare.cli"], argvs)]


# Runs the CLI with tracemalloc on from just after the package's imports,
# and prints the RSS high-water mark at that point and the traced peak.
TRACED_CLI = (
    "import resource, sys, tracemalloc\n"
    "from multishare.cli import main\n"
    "imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "tracemalloc.start()\n"
    "code = main(sys.argv[1:])\n"
    "print(imported, tracemalloc.get_traced_memory()[1] // 1024,"
    " file=sys.stderr)\n"
    "sys.exit(code)\n")


def peak_levels_kib(*argvs):
    """(peak, imported, data) of each CLI command, in KiB: its ru_maxrss
    (_launched); its RSS once the package is imported, before the command
    runs; and the peak of what Python allocates while it runs, from
    tracemalloc. imported shows the import size apart from the command's
    data. Tracing adds to the peak, not to the other two."""
    return [(rss, *map(int, err.split()[-2:]))
            for rss, err in _launched(["-c", TRACED_CLI], argvs)]


def hndl_schedule(rounds):
    """A harvest-now-decrypt-later schedule for the documented example
    topology. A mobile adversary holds mother node 1 for epoch 0 only and
    mother node 3 from epoch 1 on, so that no epoch gives it two mother
    shares until it takes node 2 last. Each refresh round it takes one
    daughter node, letting every third go; one daughter node fails."""
    schedule = [{"event": "deal"}, {"event": "hndl_decrypt_classical"},
                {"event": "compromise_node", "network": "m", "node": 1},
                {"event": "release_node", "network": "m", "node": 1}]
    for r in range(1, rounds + 1):
        node = {"network": f"d{1 + r % 2}", "node": 1 + r // 2 % 3}
        schedule += [{"event": "refresh"},
                     {"event": "compromise_node", **node}]
        if r == 1:
            schedule.append(
                {"event": "compromise_node", "network": "m", "node": 3})
        if r % 3 == 0:
            schedule.append({"event": "release_node", **node})
        if r == rounds // 2:
            schedule.append({"event": "fail_node", "network": "d2",
                             "node": 3})
        if r % 10 == 0:
            schedule += [{"event": "attempt_reconstruct", "actor": "owner"},
                         {"event": "attempt_reconstruct",
                          "actor": "adversary"}]
    return schedule + [
        {"event": "compromise_node", "network": "m", "node": 2},
        {"event": "attempt_reconstruct", "actor": "adversary"}]


class TestDeal:
    def test_writes_shares_and_manifest(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        files = sorted(out.glob("*.share.json"))
        assert len(files) == 9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epoch"] == 0
        assert manifest["chunk_count"] >= 1

    def test_empty_secret_ok(self, workspace):
        tmp, topo, _ = workspace
        empty = tmp / "empty.bin"
        empty.write_bytes(b"")
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", empty,
                    "--out", out, "--seed", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())[
            "chunk_count"] == 1

    def test_uncertified_shape_deals(self, tmp_path, capsys):
        # At 65537 the closed form is not certified for ten networks with
        # D = 5 (65537 < lcm(1..5) * 6 * 7 * 8 * 9), but the walk finds
        # no set of fewer than six networks that reconstructs: deal deals,
        # with no warning.
        topo = tmp_path / "topology.json"
        write_topology(topo, q=65537, nets=((2, 1),) * 10, outer=5)
        secret = tmp_path / "secret.bin"
        secret.write_bytes(b"x" * 100)
        out = tmp_path / "shares"
        capsys.readouterr()
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"dealt 52 chunks to 20 nodes in {out}\n"
        assert captured.err == ""

    def test_certified_shape_does_not_warn(self, workspace, capsys):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        capsys.readouterr()
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"dealt 4 chunks to 9 nodes in {out}\n"
        assert captured.err == ""

    def test_missing_topology_is_usage_error(self, workspace, capsys):
        tmp, _, secret = workspace
        with pytest.raises(SystemExit) as err:
            run(["deal", "--secret", secret, "--out", tmp / "x"])
        assert err.value.code == 64

    def test_secret_from_a_pipe(self, workspace):
        # A secret that is not a regular file, as `--secret /dev/stdin`
        # reads a pipe, is read whole before it is dealt.
        tmp, topo, secret = workspace
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(secret.read_bytes())
        try:
            assert run(["deal", "--topology", topo,
                        "--secret", f"/dev/fd/{read_end}",
                        "--out", tmp / "shares", "--seed", "1"]) == 0
        finally:
            os.close(read_end)
        assert run(["reconstruct", "--topology", topo,
                    "--shares", tmp / "shares", "--out", tmp / "r.bin"]) == 0
        assert (tmp / "r.bin").read_bytes() == secret.read_bytes()
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", tmp / "from-file", "--seed", "1"])
        assert snapshot(tmp / "shares") == snapshot(tmp / "from-file")

    @pytest.mark.parametrize("network_id", ESCAPING_IDS,
                             ids=["slash", "nul", "surrogate"])
    def test_network_id_escaping_out_exit2(self, workspace, capsys,
                                           network_id):
        # A share file is named after its network id: "../evil" wrote
        # evil_00N.share.json beside --out, and an id with a NUL ended in
        # a traceback. Both are refused before any file is written.
        tmp, _, secret = workspace
        data = topology_to_dict(write_topology(tmp / "t.json"))
        data["networks"][1]["id"] = network_id
        topo = tmp / "bad.json"
        topo.write_text(json.dumps(data))
        before = sorted(tmp.rglob("*"))
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", tmp / "shares"]) == 2
        assert "contains / or NUL" in capsys.readouterr().err
        assert sorted(tmp.rglob("*")) == before

    @pytest.mark.parametrize("q", [257, 65521])
    def test_modulus_below_chunking_floor_exit2(self, workspace, capsys, q):
        # A prime modulus of 257..65535 passes the topology checks but
        # holds no two-byte chunk: deal ended in a ValueError traceback and
        # left an empty --out behind. It exits 2 before touching a file.
        tmp, _, secret = workspace
        write_topology(tmp / "small.json", q=q)
        before = sorted(tmp.rglob("*"))
        assert run(["deal", "--topology", tmp / "small.json", "--secret",
                    secret, "--out", tmp / "shares"]) == 2
        assert "2^16" in capsys.readouterr().err
        assert sorted(tmp.rglob("*")) == before

    def test_failed_deal_over_a_vault_leaves_it(self, workspace, capsys):
        # Dealing another secret over a refreshed vault, with one share's
        # temporary name taken by a directory, once replaced the mother's
        # shares and then failed: reconstruct and refresh both exited 3
        # (shares span epochs [0, 1]), and neither secret was left. deal
        # refuses the directory before it writes anything.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        (out / "d1_001.share.json.tmp").mkdir()
        names = sorted(p.name for p in out.iterdir())
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        other = tmp / "other.bin"
        other.write_bytes(b"another secret")
        capsys.readouterr()
        assert run(["deal", "--topology", topo, "--secret", other,
                    "--out", out, "--seed", "3"]) == 2
        assert "already holds a vault" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == names
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.is_file()} == files
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0

    @pytest.mark.parametrize("name", [
        "manifest.json", "m_001.share.json", "backup-d1.share.json",
        "d1_002.share.json.staged-1", "manifest.json.staged-3"])
    def test_refuses_a_directory_holding_a_vault_file(self, workspace,
                                                      name):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        out.mkdir()
        (out / name).write_bytes(b"kept")
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 2
        assert snapshot(out) == {name: b"kept"}

    def test_deals_into_a_directory_without_vault_files(self, workspace):
        # Other files, a stray temporary file among them, do not make a
        # vault, and deal leaves them as they are.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        out.mkdir()
        (out / "notes.txt").write_bytes(b"kept")
        (out / "d1_001.share.json.tmp").write_bytes(b"half a share")
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        assert (out / "notes.txt").read_bytes() == b"kept"
        assert (out / "d1_001.share.json.tmp").read_bytes() == \
            b"half a share"
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_flushes_every_file_and_the_directory(self, workspace,
                                                  monkeypatch):
        # A deal that exits 0 has its vault on disk, committed as refresh
        # commits an epoch: --out, made here, is flushed and so is its
        # parent; each share file is written under its staged name, one
        # block at a time (one block here), and each is flushed, then the
        # directory; the manifest is written, flushed and renamed into
        # place (the commit), the directory is flushed, the shares take
        # their final names, and the directory is flushed again.
        tmp, topo, secret = workspace
        probe = FaultyFiles()
        assert probe.run(monkeypatch, [
            "deal", "--topology", topo, "--secret", secret,
            "--out", tmp / "shares", "--seed", "1"]) == 0
        assert probe.log == (["fsync"] * 2
                             + ["write"] * 9 + ["fsync"] * 9
                             + ["fsync", "write", "fsync", "replace", "fsync"]
                             + ["replace"] * 9 + ["fsync"])

    def test_flushes_each_directory_it_makes(self, workspace, monkeypatch):
        # --out and the parents deal makes for it are flushed, and so is
        # the directory the topmost is named in, before any share is
        # written; a directory that was there is flushed only as that
        # parent. Without these, a power loss after a deal that exited 0
        # could lose the path to its vault.
        tmp, topo, secret = workspace
        out = tmp / "a" / "b" / "out"
        flushed = []
        real = vault._fsync

        def fsync(path):
            flushed.append(Path(path))
            real(path)

        monkeypatch.setattr(vault, "_fsync", fsync)
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        assert flushed[:4] == [out, out.parent, tmp / "a", tmp]
        assert tmp.parent not in flushed
        # A deal into an existing directory flushes nothing before its
        # shares.
        flushed.clear()
        (tmp / "again").mkdir()
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", tmp / "again", "--seed", "1"]) == 0
        assert ".staged-0" in flushed[0].name

    def test_fault_at_every_mutation(self, workspace, monkeypatch, capsys):
        # A deal that fails at any file mutation exits 2. Before its commit
        # it leaves no --out, which it made; after it, staged names can
        # remain, each holding the file it is to become, and reconstruct
        # --shares settles them. Every file under its final name is the
        # one a deal without a fault writes.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        dest = tmp / "r.bin"
        argv = ["deal", "--topology", topo, "--secret", secret,
                "--out", out, "--seed", "1"]
        probe = FaultyFiles()
        assert probe.run(monkeypatch, argv) == 0
        want = snapshot(out)
        commit = probe.log.index("replace") + 1  # the manifest's rename
        for k in range(1, len(probe.log) + 1):
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
            assert FaultyFiles(k).run(monkeypatch, argv) == 2, k
            err = capsys.readouterr().err
            if k <= commit:
                assert not out.exists(), k
                continue
            got = snapshot(out)
            assert err == (
                f"error: epoch 0 is committed, but not every share has its "
                f"final name; the next refresh or reconstruct --shares "
                f"finishes it: {INJECTED}\n"), k
            assert got["manifest.json"] == want["manifest.json"], k
            assert {name.removesuffix(".staged-0"): data
                    for name, data in got.items()} == want, k
            assert run(["reconstruct", "--topology", topo, "--shares", out,
                        "--out", dest]) == 0, k
            assert dest.read_bytes() == secret.read_bytes(), k
            assert snapshot(out) == want, k
        capsys.readouterr()

    def test_crash_at_every_mutation(self, workspace, monkeypatch, capsys):
        # A deal that dies at any file mutation leaves either the whole
        # vault or an uncommitted deal: files under staged names and no
        # manifest. Refresh and reconstruct --shares then find no share
        # file, write no manifest and delete the staged files; a later deal
        # into the directory succeeds. Before staged names, a deal that
        # died after 4 of its 9 share files left them under their final
        # names and no manifest: a second deal refused the directory, and
        # refresh made a vault of the 4 shares that reconstruct could not
        # read back.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        dest = tmp / "r.bin"
        argv = ["deal", "--topology", topo, "--secret", secret,
                "--out", out, "--seed", "1"]
        probe = FaultyFiles()
        assert probe.run(monkeypatch, argv) == 0
        want = snapshot(out)
        commit = probe.log.index("replace") + 1  # the manifest's rename
        refresh = ["refresh", "--topology", topo, "--shares", out]
        reconstruct = ["reconstruct", "--topology", topo, "--shares", out,
                       "--out", dest]
        for k in range(1, len(probe.log) + 1):
            shutil.rmtree(out)
            assert FaultyFiles(k, crash=True).run(monkeypatch, argv) == 2, k
            crashed = snapshot(out)
            if k <= commit:
                assert all(".staged-0" in name for name in crashed), k
                for settle in (refresh, reconstruct):
                    restore(out, crashed)
                    assert run(settle) == 2, k
                    assert snapshot(out) == {}, k
                restore(out, crashed)
                assert run(argv) == 0, k
                assert snapshot(out) == want, k
            else:
                assert run(reconstruct) == 0, k
                assert dest.read_bytes() == secret.read_bytes(), k
                assert snapshot(out) == want, k
        capsys.readouterr()

    def test_deletes_an_uncommitted_deal(self, workspace):
        # Without a manifest, files staged at epoch 0 are what a deal left
        # before its commit; deal deletes them, even those of nodes the new
        # topology does not have. Files staged by a refresh still make a
        # vault (see test_refuses_a_directory_holding_a_vault_file).
        tmp, topo, secret = workspace
        out = tmp / "shares"
        out.mkdir()
        for name in ("m_001.share.json.staged-0", "d9_001.share.json.staged-0",
                     "manifest.json.staged-0"):
            (out / name).write_bytes(b"uncommitted")
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        assert not [p for p in out.iterdir() if ".staged-" in p.name]
        assert len(list(out.glob("*.share.json"))) == 9


# Any JSON document, kept small.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)


# 100,000 nested brackets, far beyond the JSON parser's recursion limit.
def _encode(doc) -> bytes:
    """A document as file content; bytes are taken as they are."""
    return doc if isinstance(doc, bytes) else json.dumps(doc).encode()


def v2_hex(value: int, q=DEFAULT_MODULUS) -> str:
    """`value` as a v2 share file writes it (formats.share_to_dict)."""
    return f"{value:0{2 * word_bytes(q)}x}"


def _hex_value(text):
    """The value of `text` under the documented hex grammar (lowercase, no
    leading zero, "0" for zero), else None."""
    if re.fullmatch(r"0|[1-9a-f][0-9a-f]*", text):
        return int(text, 16)
    return None


# Spellings of the lowercase hex `text` that int(text, 16) reads as the
# same value, and that the file formats reject.
def malformed_share_files(share):
    """Share files, as bytes, each breaking the share format one way,
    built from the valid share dict `share`."""
    q = int(share["modulus"], 16)

    def with_key(key, value):
        return {**share, key: value}

    def without_key(key):
        return {k: v for k, v in share.items() if k != key}

    def with_value_at(index, bad):
        values = list(share["values"])
        values[index % len(values)] = bad
        return with_key("values", values)

    bad_value = (JSON_VALUES.filter(lambda v: not isinstance(v, str))
                 | st.text(max_size=8).filter(lambda t: _hex_value(t) is None)
                 | st.integers(q, 2 * q).map(lambda v: format(v, "x"))
                 | st.integers(1, 2**130).map(lambda v: f"-{v:x}"))
    documents = st.one_of(
        st.sampled_from(sorted(share)).map(without_key),
        st.tuples(st.sampled_from(["node_index", "epoch", "chunk_count"]),
                  JSON_VALUES.filter(lambda v: type(v) is not int)).map(
            lambda kv: with_key(*kv)),
        # Each version names its own value layout: a v2 file's values
        # may also read as those of a v1 file.
        JSON_VALUES.filter(
            lambda v: type(v) is not int or v not in (1, 2)).map(
            lambda v: with_key("format_version", v)),
        JSON_VALUES.filter(lambda v: not isinstance(v, str)
                           or _hex_value(v) != q).map(
            lambda v: with_key("modulus", v)),
        JSON_VALUES.filter(lambda v: v != share["network_id"]).map(
            lambda v: with_key("network_id", v)),
        JSON_VALUES.filter(lambda v: not isinstance(v, list)).map(
            lambda v: with_key("values", v)),
        st.tuples(st.integers(0, 99), bad_value).map(
            lambda iv: with_value_at(*iv)),
        st.integers().filter(lambda n: n != share["chunk_count"]).map(
            lambda n: with_key("chunk_count", n)),
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
    )
    # Each document both in the layout the tools write, which read_share
    # reads block by block, and as json.dumps writes it, which it refuses.
    return (documents.flatmap(lambda d: st.sampled_from(
        [json.dumps(d).encode(), formats.canonical_json(d) + b"\n"]))
            | st.binary(max_size=40))


class TestReconstruct:
    def _deal(self, workspace, seed="7"):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", seed])
        return tmp, topo, secret, out

    def test_round_trip(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        dest = tmp / "recovered.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_linked_share_file_is_read(self, workspace):
        # A share file moved out of the vault and linked back is read
        # through the link, which stays as it is; refresh refuses it
        # (docs/refusals.md).
        tmp, topo, secret, out = self._deal(workspace)
        moved, link = tmp / "moved.share.json", out / "m_001.share.json"
        link.rename(moved)
        link.symlink_to(moved)
        before = tree(tmp)
        dest = tmp / "recovered.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()
        dest.unlink()
        assert tree(tmp) == before

    @pytest.mark.parametrize("q", [257, 65521])
    def test_modulus_below_chunking_floor_exit2(self, tmp_path, capsys, q):
        # Share files dealt under a modulus too small for byte chunks made
        # reconstruct end in a ValueError traceback once it had settled
        # the directory. It exits 2 before touching a file, a staged one
        # included, and writes no --out.
        topo = write_topology(tmp_path / "small.json", q=q)
        shares = tmp_path / "shares"
        shares.mkdir()
        for lst in deal([1, 2], topo, deterministic_rng(0)).values():
            for share in lst:
                name = f"{share.network_id}_{share.node_index:03d}"
                (shares / f"{name}.share.json").write_bytes(
                    formats.share_file_block(share, q, 0, 2))
        (shares / "m_001.share.json.staged-1").write_bytes(b"{}")
        files = snapshot(shares)
        for where in (["--shares", shares], sorted(shares.glob("*.json"))):
            assert run(["reconstruct", "--topology", tmp_path / "small.json",
                        "--out", tmp_path / "out.bin", *where]) == 2
            assert "2^16" in capsys.readouterr().err
            assert snapshot(shares) == files
            assert not (tmp_path / "out.bin").exists()

    def test_flushes_the_output(self, workspace, monkeypatch, capsys):
        # A reconstruct that exits 0 has its output on disk: the file is
        # flushed before its rename, and the directory after it. When
        # that last flush fails, the output has its name already.
        tmp, topo, secret, out = self._deal(workspace)
        dest = tmp / "recovered.bin"
        argv = ["reconstruct", "--topology", topo, "--shares", out,
                "--out", dest]
        probe = FaultyFiles()
        assert probe.run(monkeypatch, argv) == 0
        assert probe.log == ["write", "fsync", "replace", "fsync"]
        assert dest.read_bytes() == secret.read_bytes()
        dest.unlink()
        capsys.readouterr()
        assert FaultyFiles(4).run(monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {dest}: flushing its directory failed: "
            f"{INJECTED}\n")
        assert dest.read_bytes() == secret.read_bytes()

    def test_quorum_exact_file_list(self, workspace):
        # Share files named as arguments are read alone: not d2's, from
        # another deal, nor the manifest beside them, here a FIFO that a
        # read would wait on (bounded, so that a regression fails rather
        # than hangs).
        tmp, topo, secret, out = self._deal(workspace)
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", tmp / "other", "--seed", "8"]) == 0
        for path in (tmp / "other").glob("d2_*.share.json"):
            (out / path.name).write_bytes(path.read_bytes())
        (out / "manifest.json").unlink()
        os.mkfifo(out / "manifest.json")
        picks = [out / "m_001.share.json", out / "m_002.share.json",
                 out / "d1_001.share.json", out / "d1_003.share.json"]
        dest = tmp / "recovered.bin"
        assert bounded(["reconstruct", "--topology", topo, "--out", dest]
                       + picks) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_out_beside_the_vault_files(self, workspace):
        # A name that no vault file has is an output like any, in the
        # vault's directory too.
        tmp, topo, secret, out = self._deal(workspace)
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", out / "secret.bin"]) == 0
        assert (out / "secret.bin").read_bytes() == secret.read_bytes()

    def test_out_link_to_a_regular_file_written_through(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        target, link = tmp / "target.bin", tmp / "link.bin"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", link]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == secret.read_bytes()
        assert not (tmp / "link.bin.tmp").exists()
        assert not (tmp / "target.bin.tmp").exists()

    @pytest.mark.hypothesis
    @pytest.mark.parametrize("version", [1, 2])
    def test_malformed_share_file_exit2(self, workspace, capsys, version):
        # Fuzz: one share file of a dealt directory, in share format
        # `version`, replaced by a malformed one; reconstruct and refresh
        # must exit 2, never raise, and refresh must leave the directory
        # as it was. The other files stay v2.
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        target = out / "m_001.share.json"
        if version == 1:
            target.write_bytes(reference.share_bytes_v1(
                formats.share_from_dict(json.loads(target.read_bytes()),
                                        DEFAULT_MODULUS), DEFAULT_MODULUS))
        share = json.loads(target.read_text())
        assert share["format_version"] == version
        dest = tmp / "r.bin"

        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(malformed_share_files(share))
        def check(content):
            target.write_bytes(content)
            assert run(["reconstruct", "--topology", topo, "--shares", out,
                        "--out", dest]) == 2
            assert not dest.exists()
            # m_001 sorts after the d* files, so refresh has staged their
            # updates when it meets it; it must delete them again.
            before = snapshot(out)
            assert run(["refresh", "--topology", topo, "--shares", out]) == 2
            assert snapshot(out) == before

        check()
        capsys.readouterr()

    @pytest.mark.parametrize("spell", NONCANONICAL_HEX.values(),
                             ids=NONCANONICAL_HEX.keys())
    @pytest.mark.parametrize("field", ["values", "modulus"])
    def test_noncanonical_hex_exit2(self, workspace, capsys, field, spell):
        # The same value in a spelling int(text, 16) would accept.
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        path = out / "d1_001.share.json"
        data = json.loads(path.read_text())
        if field == "values":
            index = next(i for i, v in enumerate(data["values"])
                         if len(v) > 1 and set(v) & set("0123456789")
                         and set(v) & set("abcdef"))
            data["values"][index] = spell(data["values"][index])
            text = data["values"][index]
        else:
            data["modulus"] = text = spell("7" + "f" * 31)
        assert format(int(text, 16), "x") != text
        path.write_bytes(formats.canonical_json(data) + b"\n")
        # A value is written at a fixed width: a spelling of another
        # length makes the file's size other than its chunk_count gives.
        message = ("not lowercase hex" if field == "modulus"
                   or len(formats.canonical_json(text)) == 34
                   else "that its chunk_count of")
        before = snapshot(out)
        capsys.readouterr()
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "r.bin").exists()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 2
        assert message in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.xfail(strict=True, reason=(
        "with exactly a quorum of each network no share is checked, so a "
        "changed value gives a wrong secret; ROADMAP item 10 (tamper "
        "detection at exactly a quorum)"))
    def test_changed_value_at_exact_quorum_exit2(self, tmp_path):
        topo = ROOT / "docs" / "examples" / "topology.json"
        secret = tmp_path / "secret.bin"
        secret.write_bytes(deterministic_rng(1).randbytes(1000))
        out = tmp_path / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        path = out / "m_001.share.json"
        data = json.loads(path.read_text())
        data["values"][0] = v2_hex(
            (int(data["values"][0], 16) + 1) % DEFAULT_MODULUS)
        path.write_bytes(formats.canonical_json(data) + b"\n")
        dest = tmp_path / "r.bin"
        picks = [out / f"{name}.share.json"
                 for name in ("m_001", "m_002", "d1_001", "d1_002")]
        assert run(["reconstruct", "--topology", topo, "--out", dest,
                    *picks]) == 2
        assert not dest.exists()

    def test_daughter_checked_early_keeps_error_order(self, workspace,
                                                       capsys):
        # d1's shares come from another deal of the same secret, so m and
        # d1 determine an inner secret for d2 other than the one d2's
        # shares, consistent with one another, carry. d2 is placed once
        # every share file's header is read, and checked block by block
        # after; a malformed mother file is refused while the headers are
        # read, so it decides the error.
        tmp, topo, secret, out = self._deal(workspace)
        other = tmp / "other"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", other, "--seed", "8"]) == 0
        for path in other.glob("d1_*.share.json"):
            (out / path.name).write_bytes(path.read_bytes())
        dest = tmp / "r.bin"
        reconstruct = ["reconstruct", "--topology", topo, "--shares", out,
                       "--out", dest]
        m_003 = out / "m_003.share.json"
        intact = m_003.read_bytes()
        m_003.write_text("{")
        capsys.readouterr()
        assert run(reconstruct) == 2
        err = capsys.readouterr().err
        assert f"cannot read share {m_003}" in err and "network" not in err
        m_003.write_bytes(intact)
        assert run(reconstruct) == 2
        assert ("network d2: its inner secret disagrees with networks "
                "['m', 'd1']") in capsys.readouterr().err
        assert not dest.exists()
        # Without d1, d2 is a chosen daughter, and agrees with m.
        for path in out.glob("d1_*.share.json"):
            path.unlink()
        assert run(reconstruct) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_disagreement_and_epoch_mix_exit3(self, workspace, capsys):
        # d1's shares, read first, disagree; a mother share of another
        # epoch, read last, still decides the error, as it did when every
        # share was checked before any was combined.
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        path = out / "d1_001.share.json"
        data = json.loads(path.read_text())
        data["values"][0] = v2_hex(int(data["values"][0], 16) ^ 1)
        path.write_bytes(formats.canonical_json(data) + b"\n")
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 2
        assert "network d1" in capsys.readouterr().err
        path = out / "m_003.share.json"
        data = json.loads(path.read_text())
        data["epoch"] = 1
        path.write_bytes(formats.canonical_json(data) + b"\n")
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 3
        assert "EpochMismatch" in capsys.readouterr().err
        assert not dest.exists()

    def test_malformed_file_after_failed_check_exit2(self, workspace,
                                                     capsys):
        # A failed check on d1's shares, and a malformed mother share read
        # after it: exit 2, as when every file was read before any check.
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        path = out / "d1_001.share.json"
        data = json.loads(path.read_text())
        data["epoch"] = 1
        path.write_bytes(formats.canonical_json(data) + b"\n")
        dest = tmp / "r.bin"
        capsys.readouterr()
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 3
        assert "EpochMismatch" in capsys.readouterr().err
        (out / "m_003.share.json").write_text("{")
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 2
        assert (f"cannot read share {out / 'm_003.share.json'}:"
                in capsys.readouterr().err)
        assert not dest.exists()

class TestPeakMemoryGrowth:
    """Each vault command holds a few blocks of BLOCK_WORDS values, never a
    whole column (a column of 4 MiB of secret is 279,621 ints, about 15
    MiB), so its peak RSS does not grow with the secret. Measured at 512
    KiB and 4 MiB in fresh interpreters (peak_rss_kib)."""

    # KiB of peak RSS a command may gain from 512 KiB to 4 MiB of secret.
    # On a 2-core x86_64 host with Python 3.11 the three commands gain
    # under 0.2 MiB; a column held whole would take any of them over.
    SLACK_KIB = 2048

    def test_growth_per_mib_of_secret(self, tmp_path):
        topo = tmp_path / "topology.json"
        write_topology(topo)
        peaks = []
        for kib in (512, 4096):
            secret = tmp_path / f"{kib}.bin"
            secret.write_bytes(os.urandom(kib * 1024))
            out, dest = tmp_path / f"{kib}", tmp_path / f"{kib}.out"
            peaks.append(peak_rss_kib(
                ["deal", "--topology", topo, "--secret", secret,
                 "--out", out],
                ["refresh", "--topology", topo, "--shares", out],
                ["reconstruct", "--topology", topo, "--shares", out,
                 "--out", dest]))
            assert dest.read_bytes() == secret.read_bytes()
            shutil.rmtree(out)
        small, large = peaks
        assert all(b - a <= self.SLACK_KIB
                   for a, b in zip(small, large)), peaks


class TestPeakMemoryLevel:
    """refresh holds one share file's block of values at a time. deal and
    reconstruct peak at about its level: deal hands each node's share of
    a block to its file as soon as it is evaluated, and reconstruct
    reduces one network's block to its inner secret before it reads the
    next network's. Measured at 512 KiB in fresh interpreters
    (peak_levels_kib). A command's level is the package's import size
    plus the peak of what Python allocates while the command runs. The
    five commands import the same modules, so the import size is the
    median of their RSS once the package is imported. The data's part is
    exact, so neither the host's state nor the allocator's page use,
    which move each peak RSS by a few hundred KiB, moves the ratios, and
    a change in import size shows apart from the commands' data."""

    # The most that deal's and reconstruct's level may be, as a share of
    # refresh's. On a 2-core x86_64 host with Python 3.11, ten isolated
    # runs and three full runs read deal 1.004, reconstruct 1.002, v1
    # reconstruct 1.027 to 1.028 and v1 refresh 1.024, each moving by
    # under 0.001. The level is mostly imports: a deal that holds every
    # node's share of a block before writing the first reads 1.032.
    RATIO = 1.05
    # The most that each command's data part may be, in KiB: deal,
    # refresh, reconstruct, v1 reconstruct and v1 refresh. Ten isolated
    # runs on the same host read 1,449 to 1,450, 1,376 to 1,377, 1,417,
    # 1,867 and 1,797; each bound is 12% to 13% above. The deal that
    # holds every node's share of a block reads 1,952 and fails here.
    DATA_KIB = (1625, 1550, 1600, 2100, 2025)

    def test_deal_and_reconstruct_near_refresh(self, tmp_path):
        # And a v1 copy of the dealt vault: its reconstruct, and the
        # refresh that rewrites it as v2, peak at the v2 refresh's level.
        topo = tmp_path / "topology.json"
        write_topology(topo)
        secret = tmp_path / "secret.bin"
        secret.write_bytes(os.urandom(512 * 1024))
        out, dest = tmp_path / "shares", tmp_path / "r.bin"
        v1, v1_dest = tmp_path / "v1", tmp_path / "v1.bin"
        levels = peak_levels_kib(
            ["deal", "--topology", topo, "--secret", secret, "--out", out])
        shutil.copytree(out, v1)
        to_v1(v1)
        levels += peak_levels_kib(
            ["refresh", "--topology", topo, "--shares", out],
            ["reconstruct", "--topology", topo, "--shares", out,
             "--out", dest],
            ["reconstruct", "--topology", topo, "--shares", v1,
             "--out", v1_dest],
            ["refresh", "--topology", topo, "--shares", v1])
        assert dest.read_bytes() == secret.read_bytes()
        assert v1_dest.read_bytes() == secret.read_bytes()
        assert share_versions(v1) == {2}
        imported = statistics.median(kib for _, kib, _ in levels)
        deal, refresh, reconstruct, v1_reconstruct, v1_refresh = (
            imported + data for _, _, data in levels)
        for level in (deal, reconstruct, v1_reconstruct, v1_refresh):
            assert level <= self.RATIO * refresh, levels
        for (_, _, data), bound in zip(levels, self.DATA_KIB):
            assert data <= bound, levels


class TestSharesReadBlockByBlock:
    """refresh and reconstruct read the share files block by block, each
    file's block i before any file's block i + 1. A block they are done
    with must be freed before the next is read: refresh is done with a
    block once it has written its update, reconstruct once its network's
    block i is checked and reduced to the network's inner secret. So
    refresh holds one block of values at a time, and reconstruct one
    block of each file of one network."""

    class Block(list):
        """A block of values that a weak reference can follow."""

    @pytest.mark.parametrize("command", ["refresh", "reconstruct"])
    def test_done_blocks_freed_before_next_read(self, tmp_path, monkeypatch,
                                                command):
        topo = tmp_path / "topology.json"
        write_topology(topo)
        secret = tmp_path / "secret.bin"
        secret.write_bytes(os.urandom(15 * (2 * BLOCK_WORDS + 1) - 4))
        out = tmp_path / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        reads = []  # (file name, first value, weak reference) per block
        real = formats.ShareValues.__getitem__

        def read(values, index):
            alive = [(name, start) for name, start, ref in reads if ref()]
            if command == "refresh":
                assert alive == [], (index, alive)
            else:
                network = values.path.name.split("_")[0]
                assert {(name.split("_")[0], start)
                        for name, start in alive} <= {
                    (network, index.start)}, (values.path.name, index,
                                              alive)
            block = self.Block(real(values, index))
            reads.append((values.path.name, index.start, weakref.ref(block)))
            return block

        monkeypatch.setattr(formats.ShareValues, "__getitem__", read)
        dest = tmp_path / "r.bin"
        argv = (["refresh", "--topology", topo, "--shares", out]
                if command == "refresh" else
                ["reconstruct", "--topology", topo, "--shares", out,
                 "--out", dest])
        assert run(argv) == 0
        names = sorted(p.name for p in out.glob("*.share.json"))
        assert [(name, start) for name, start, _ in reads] == [
            (name, start) for start in range(0, 2 * BLOCK_WORDS + 1,
                                             BLOCK_WORDS)
            for name in names]
        if command == "reconstruct":
            assert dest.read_bytes() == secret.read_bytes()


def chunks_secret(path: Path, chunks: int) -> bytes:
    """Write to `path` the longest secret of `chunks` 15-byte chunks at
    2^127 - 1 (its 4-byte length header included), and return it."""
    data = os.urandom(15 * chunks - 4) if chunks else b""
    path.write_bytes(data)
    return data


class TestBlockBoundaries:
    """deal, refresh and reconstruct work BLOCK_WORDS chunks at a time; a
    secret one chunk either side of a block edge, of two blocks and a
    chunk, or empty, comes back byte for byte, from a --shares directory
    and from share files given in any order, an exact quorum included."""

    B = BLOCK_WORDS

    @pytest.mark.parametrize("chunks", [1, B - 1, B, B + 1, 2 * B + 1],
                             ids=["empty", "B-1", "B", "B+1", "2B+1"])
    def test_round_trip(self, workspace, chunks):
        tmp, topo, _ = workspace
        secret = tmp / "secret.bin"
        data = chunks_secret(secret, chunks if chunks > 1 else 0)
        out, dest = tmp / "shares", tmp / "r.bin"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        for path in out.glob("*.share.json"):
            share = json.loads(path.read_bytes())
            assert (share["epoch"], len(share["values"])) == (1, chunks)
            assert path.read_bytes() == formats.canonical_json(share) + b"\n"
        files = sorted(out.glob("*.share.json"))
        quorum = [out / name for name in ("m_003.share.json",
                                          "d2_003.share.json",
                                          "m_001.share.json",
                                          "d2_001.share.json")]
        rng = deterministic_rng(chunks)
        for given in (["--shares", out], rng.sample(files, len(files)),
                      rng.sample(quorum, len(quorum))):
            dest.unlink(missing_ok=True)
            assert run(["reconstruct", "--topology", topo, "--out", dest,
                        *given]) == 0, given
            assert dest.read_bytes() == data


class TestKernelRegimes:
    """deal, refresh and reconstruct of a secret of a block and a chunk
    through the other regimes of the column kernel, the recovered secret
    compared byte for byte: moduli whose words have no spare bit
    (2^32 - 5, 32 bits), whose draws reject about half their words (65537)
    and whose words take 66 bytes (2^521 - 1); and reconstructions that
    take full-size weights, Lagrange weights from nodes 1 and 3 and outer
    weights at outer degree 2."""

    @staticmethod
    def _round_trip(tmp, q=DEFAULT_MODULUS, outer=1, picks=None):
        topo = tmp / "topology.json"
        write_topology(topo, q=q, outer=outer)
        secret, out, dest = tmp / "secret.bin", tmp / "shares", tmp / "r.bin"
        data = os.urandom(chunk_size(q) * (BLOCK_WORDS + 1) - LENGTH_HEADER)
        secret.write_bytes(data)
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out]) == 0
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        given = (["--shares", out] if picks is None
                 else [out / f"{name}.share.json" for name in picks])
        assert run(["reconstruct", "--topology", topo, "--out", dest,
                    *given]) == 0
        assert dest.read_bytes() == data

    @pytest.mark.parametrize("q", [2**32 - 5, 65537, 2**521 - 1],
                             ids=["2^32-5", "65537", "2^521-1"])
    def test_moduli(self, tmp_path, q):
        self._round_trip(tmp_path, q=q)

    def test_full_size_lagrange_weights(self, tmp_path):
        self._round_trip(tmp_path, picks=["m_001", "m_003", "d1_001",
                                          "d1_003", "d2_001", "d2_003"])

    def test_full_size_outer_weights(self, tmp_path):
        self._round_trip(tmp_path, outer=2)


class TestShareFileLayouts:
    """read_share reads a share file block by block, in the layout the
    tools write and in no other: a truncated file exits 2 wherever it is
    cut, a disagreement in a late block is named as before, and a file in
    another layout, or replaced while it is read, exits 2 and changes
    nothing."""

    B = BLOCK_WORDS

    def _vault(self, tmp, chunks, **layout):
        topo = tmp / "topology.json"
        write_topology(topo, **layout)
        secret = tmp / "secret.bin"
        data = chunks_secret(secret, chunks)
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        return topo, data, out

    @staticmethod
    def _refused(topo, out, path, capsys, label=None):
        """Check that reconstruct and refresh both exit 2 naming `path`,
        write no output and leave `out` as it was."""
        before = snapshot(out)
        dest = out.parent / "r.bin"
        capsys.readouterr()
        for argv in (["reconstruct", "--out", dest], ["refresh"]):
            assert run([*argv, "--topology", topo, "--shares", out]) == 2, (
                argv[0], label)
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"error: cannot read share {path}: "), (argv[0], label)
            assert captured.out == "", (argv[0], label)
            assert snapshot(out) == before, (argv[0], label)
        assert not dest.exists(), label

    def _check_cuts(self, topo, out, name, cuts, capsys):
        path = out / name
        whole = path.read_bytes()
        for cut in sorted(cuts):
            path.write_bytes(whole[:cut])
            self._refused(topo, out, path, capsys, cut)
        path.write_bytes(whole)

    def test_truncated_in_first_and_last_value_exit2(self, workspace,
                                                      capsys):
        # Cut at every byte of the first value and of the last, its
        # quotes and the comma after the first included, and of the
        # closing bytes.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        data = (out / "d2_001.share.json").read_bytes()
        first = data.index(b'"values":[') + len(b'"values":[')
        last = data.rindex(b',"') + 1
        assert len(data) - last == 37
        cuts = {*range(first, first + 35), *range(last, len(data))}
        self._check_cuts(topo, out, "d2_001.share.json", cuts, capsys)

    def test_truncated_at_block_edges_exit2(self, tmp_path, capsys):
        # Two networks of two nodes; the first block of values ends, and
        # the second begins, at `edge`. Cut there and at the end, +-8
        # bytes, the cut that drops only the final newline included.
        topo, _, out = self._vault(tmp_path, self.B + 9, nets=((2, 1),) * 2)
        path = out / "m_001.share.json"
        data = path.read_bytes()
        values = json.loads(data)["values"]
        edge = data.index(f'"{values[self.B]}"'.encode())
        tail = len(data) - 3
        assert data[edge - 1:edge] == b"," and data[tail:] == b"]}\n"
        cuts = {at + d for at in (edge, tail) for d in range(-8, 9)}
        assert len(data) - 1 in cuts
        self._check_cuts(topo, out, path.name,
                         {cut for cut in cuts if cut < len(data)}, capsys)

    def test_corrupted_value_in_last_block_exit2(self, tmp_path, capsys):
        # As when the file was read whole, the disagreement names d1's
        # node 3, against its quorum [1, 2], as the eager reference does.
        topo, data, out = self._vault(tmp_path, self.B + 9)
        path = out / "d1_001.share.json"
        share = json.loads(path.read_bytes())
        share["values"][-2] = v2_hex(
            (int(share["values"][-2], 16) + 1) % DEFAULT_MODULUS)
        path.write_bytes(formats.canonical_json(share) + b"\n")
        topology = formats.topology_from_dict(json.loads(topo.read_text()))
        grouped = {}
        for p in sorted(out.glob("*.share.json")):
            s = formats.share_from_dict(json.loads(p.read_bytes()),
                                        DEFAULT_MODULUS)
            grouped.setdefault(s.network_id, []).append(s)
        with pytest.raises(formats.CorruptData) as err:
            reference.reconstruct(grouped, topology)
        assert "network d1: the share of node 3" in str(err.value)
        dest = tmp_path / "r.bin"
        capsys.readouterr()
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 2
        assert f"corrupt shares: {err.value}" in capsys.readouterr().err
        assert not dest.exists() and not (tmp_path / "r.bin.tmp").exists()

    @staticmethod
    def _space(text, at):
        """`text` with a space after the comma that ends value `at`."""
        cut = 0
        for _ in range(at + 1):
            cut = text.index('","', cut) + 2
        return text[:cut] + " " + text[cut:]

    @staticmethod
    def _escape(text, at):
        """`text` with an "a" of the first value from `at` on that holds
        one written as the JSON escape \\u0061."""
        share = json.loads(text)
        at = next(i for i in range(at, len(share["values"]))
                  if "a" in share["values"][i])
        quoted = f'"{share["values"][at]}"'
        start = text.index(quoted)
        return (text[:start] + quoted.replace("a", "\\u0061", 1)
                + text[start + len(quoted):])

    @pytest.mark.parametrize("rewrite, at", [
        ("indent", 0), ("space", 5), ("space", BLOCK_WORDS + 3),
        ("escape", 5), ("escape", BLOCK_WORDS + 3)],
        ids=["indent", "space-first-block", "space-last-block",
             "escape-first-block", "escape-last-block"])
    def test_other_layouts_read_as_before(self, tmp_path, capsys, rewrite,
                                          at):
        # A share file rewritten in another layout holds the same share as
        # JSON, but only the tools' layout is read: reconstruct and refresh
        # refuse it, wherever the change is.
        topo, _, out = self._vault(tmp_path, self.B + 9)
        path = out / "m_002.share.json"
        text = path.read_text()
        text = {"indent": lambda: json.dumps(json.loads(text), indent=1),
                "space": lambda: self._space(text, at),
                "escape": lambda: self._escape(text, at)}[rewrite]()
        assert json.loads(text) == json.loads(path.read_text())
        path.write_text(text)
        self._refused(topo, out, path, capsys)

    def test_replaced_between_blocks_exit2(self, capsys, monkeypatch,
                                           tmp_path):
        # The vault's files replaced by those of a refreshed copy, as a
        # program that takes no lock might, while a reconstruct of an
        # exact quorum is between its first and second block: the files
        # the reconstruct reads next are not those whose headers it read.
        topo = ROOT / "docs" / "examples" / "topology.json"
        secret = tmp_path / "secret.bin"
        secret.write_bytes(os.urandom(200_000))
        out = tmp_path / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out]) == 0
        picks = [out / f"{name}.share.json"
                 for name in ("m_001", "m_002", "d1_001", "d1_002")]
        refreshed = []
        real = SecretDecoder.feed

        def feed(decoder, chunks):
            if not refreshed:
                copy = shutil.copytree(out, tmp_path / "copy")
                assert run(["refresh", "--topology", topo,
                            "--shares", copy]) == 0
                for path in copy.iterdir():
                    os.replace(path, out / path.name)
                copy.rmdir()
                refreshed.append(snapshot(out))
            return real(decoder, chunks)

        monkeypatch.setattr(SecretDecoder, "feed", feed)
        dest = tmp_path / "r.bin"
        capsys.readouterr()
        assert run(["reconstruct", "--topology", topo, "--out", dest,
                    *picks]) == 2
        err = capsys.readouterr().err
        named = re.fullmatch(r"error: cannot read share (.*): changed while "
                             r"it was read\n", err)
        assert named and named.group(1) in map(str, picks), err
        assert not dest.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "secret.bin", "shares"]
        assert snapshot(out) == refreshed[0]

    def test_unreadable_file_after_failed_check_exit2(self, tmp_path,
                                                      capsys):
        # d1_001 is of another epoch, and m_003, read after it, is bad
        # only in its last block: for refresh as for reconstruct, the
        # first file that cannot be read whole decides the error, not the
        # failed check.
        topo, _, out = self._vault(tmp_path, self.B + 9)
        path = out / "d1_001.share.json"
        share = json.loads(path.read_bytes())
        share["epoch"] = 1
        path.write_bytes(formats.canonical_json(share) + b"\n")
        path = out / "m_003.share.json"
        share = json.loads(path.read_bytes())
        share["values"][-1] = "g" + share["values"][-1][1:]
        path.write_bytes(formats.canonical_json(share) + b"\n")
        self._refused(topo, out, path, capsys)

    def test_unwritable_output_before_a_later_block(self, tmp_path, capsys):
        # The output is made with the first recovered block: an unwritable
        # --out is reported before a file unreadable only in a later block.
        topo, _, out = self._vault(tmp_path, self.B + 9)
        path = out / "d1_001.share.json"
        share = json.loads(path.read_bytes())
        share["values"][-1] = "G" + share["values"][-1][1:]
        path.write_bytes(formats.canonical_json(share) + b"\n")
        capsys.readouterr()
        for dest, error in ((tmp_path / "missing" / "r.bin", "cannot write"),
                            (tmp_path / "r.bin", "cannot read share")):
            assert run(["reconstruct", "--topology", topo, "--shares", out,
                        "--out", dest]) == 2
            assert capsys.readouterr().err.startswith(f"error: {error} ")
            assert not dest.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "refresh"])
    def test_unreadable_files_reported_in_turn(self, tmp_path, capsys,
                                               command):
        # Files are read block by block, all headers first, but the error
        # is the one that reading each file whole in turn gives: d1_001,
        # bad only in its last block, before d2_001 (bad in its first)
        # and m_003 (bad in its header).
        topo, _, out = self._vault(tmp_path, self.B + 9)
        d1 = out / "d1_001.share.json"
        share = json.loads(d1.read_bytes())
        share["values"][-1] = "G" + share["values"][-1][1:]
        d1.write_bytes(formats.canonical_json(share) + b"\n")
        d2 = out / "d2_001.share.json"
        share = json.loads(d2.read_bytes())
        share["values"][0] = "g" + share["values"][0][1:]
        d2.write_bytes(formats.canonical_json(share) + b"\n")
        argv = {"reconstruct": ["reconstruct", "--topology", topo,
                                "--shares", out, "--out", tmp_path / "r"],
                "refresh": ["refresh", "--topology", topo, "--shares",
                            out]}[command]
        before = snapshot(out)
        for bad_header in (False, True):
            if bad_header:
                (out / "m_003.share.json").write_text("{")
            capsys.readouterr()
            assert run(argv) == 2
            assert f"cannot read share {d1}:" in capsys.readouterr().err
            if command == "refresh":
                assert snapshot(out) == {**before, **(
                    {"m_003.share.json": b"{"} if bad_header else {})}


def to_v1(directory: Path, q=DEFAULT_MODULUS) -> None:
    """Rewrite each share file in `directory` in share format v1, by the
    v1 writer of tests/reference.py."""
    for path in directory.glob("*.share.json"):
        share = formats.share_from_dict(json.loads(path.read_bytes()), q)
        path.write_bytes(reference.share_bytes_v1(share, q))


def share_versions(directory: Path) -> set:
    return {json.loads(p.read_bytes())["format_version"]
            for p in directory.glob("*.share.json")}


class TestShareFormatV1:
    """Vaults written before share format v2 still work: their files are
    read, alone or beside v2 files of the same epoch, and the next
    refresh rewrites every file as v2 in its one commit."""

    B = BLOCK_WORDS

    def _vaults(self, tmp, chunks):
        """A vault dealt at seed 1, and its copy in share format v1."""
        topo = tmp / "topology.json"
        write_topology(topo)
        data = chunks_secret(tmp / "secret.bin", chunks)
        v2, v1 = tmp / "v2", tmp / "v1"
        assert run(["deal", "--topology", topo, "--secret",
                    tmp / "secret.bin", "--out", v2, "--seed", "1"]) == 0
        shutil.copytree(v2, v1)
        to_v1(v1)
        assert share_versions(v1) == {1} and share_versions(v2) == {2}
        return topo, data, v2, v1

    def test_reconstructs_and_refresh_upgrades(self, tmp_path, monkeypatch):
        topo, data, v2, v1 = self._vaults(tmp_path, self.B + 9)
        dest = tmp_path / "r.bin"
        quorum = [v1 / f"{name}.share.json"
                  for name in ("m_001", "m_003", "d2_002", "d2_003")]
        for given in (["--shares", v1], quorum):
            dest.unlink(missing_ok=True)
            assert run(["reconstruct", "--topology", topo, "--out", dest,
                        *given]) == 0
            assert dest.read_bytes() == data
        # The same refresh of either vault writes the same v2 files.
        for vault_dir in (v1, v2):
            with fixed_draws(monkeypatch, 2):
                assert run(["refresh", "--topology", topo, "--shares",
                            vault_dir]) == 0
        assert share_versions(v1) == {2}
        assert snapshot(v1) == snapshot(v2)

    def test_mixed_versions_reconstruct(self, tmp_path):
        topo, data, v2, v1 = self._vaults(tmp_path, self.B + 9)
        for name in ("m_002.share.json", "d1_001.share.json",
                     "d1_003.share.json", "d2_002.share.json"):
            (v2 / name).write_bytes((v1 / name).read_bytes())
        assert share_versions(v2) == {1, 2}
        dest = tmp_path / "r.bin"
        quorum = [v2 / f"{name}.share.json"
                  for name in ("m_001", "m_002", "d1_001", "d1_002")]
        for given in (["--shares", v2], quorum):
            dest.unlink(missing_ok=True)
            assert run(["reconstruct", "--topology", topo, "--out", dest,
                        *given]) == 0
            assert dest.read_bytes() == data

    @pytest.mark.parametrize("crash", [False, True],
                             ids=["cleanup", "crash"])
    def test_upgrade_fault_at_every_mutation(self, tmp_path, monkeypatch,
                                             capsys, crash):
        # A refresh of a v1 vault that fails or dies at any file mutation
        # leaves the whole v1 epoch or the whole v2 one, once settled.
        topo, data, _, out = self._vaults(tmp_path, 5)
        dest = tmp_path / "r.bin"
        refresh = ["refresh", "--topology", topo, "--shares", out]
        old = snapshot(out)
        probe = FaultyFiles()
        with fixed_draws(monkeypatch, 3):
            assert probe.run(monkeypatch, refresh) == 0
            new = snapshot(out)
            assert share_versions(out) == {2}
            for k in range(1, len(probe.log) + 1):
                restore(out, old)
                assert FaultyFiles(k, crash).run(monkeypatch, refresh) == 2, k
                dest.unlink(missing_ok=True)
                assert run(["reconstruct", "--topology", topo, "--shares",
                            out, "--out", dest]) == 0, k
                assert dest.read_bytes() == data, k
                assert snapshot(out) in (old, new), k
        capsys.readouterr()


class TestManifest:
    """A --shares directory's manifest is checked whole."""

    def _deal(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        return tmp, topo, secret, out

    @pytest.mark.parametrize("text", [
        "{not json", "[]", "{}", pytest.param(DEEP, id="deep")])
    def test_unreadable_manifest_exit2(self, workspace, text):
        tmp, topo, secret, out = self._deal(workspace)
        (out / "manifest.json").write_text(text)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2
        assert run(["refresh", "--topology", topo, "--shares", out]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("version", [..., 0, 2, 7, -1, 1.0, True, "1",
                                         None, [1]],
                             ids=["missing", "0", "2", "7", "-1", "float",
                                  "bool", "str", "null", "list"])
    def test_other_format_version_exit2(self, workspace, capsys, version):
        # A manifest of any version but the JSON integer 1 is refused, even
        # one that names the topology and an epoch.
        tmp, topo, secret, out = self._deal(workspace)
        manifest = out / "manifest.json"
        manifest.write_text(json.dumps(at(
            json.loads(manifest.read_text()), ["format_version"],
            DELETE if version is ... else version)))
        before = snapshot(out)
        dest = tmp / "r.bin"
        capsys.readouterr()
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 2
        assert run(["refresh", "--topology", topo, "--shares", out]) == 2
        err = capsys.readouterr().err
        assert err.count(f"cannot read manifest {manifest}: ") == 2
        assert "format_version" in err
        assert snapshot(out) == before
        assert not dest.exists()

    @pytest.mark.hypothesis
    def test_manifest_fuzz_exit2(self, workspace, capsys):
        # Fuzz: the manifest of a dealt directory replaced by one that does
        # not name the topology or has no integer epoch; both commands exit
        # 2 and touch no file.
        tmp, topo, secret, out = self._deal(workspace)
        manifest = out / "manifest.json"
        valid = json.loads(manifest.read_text())
        shares = {p.name: p.read_bytes() for p in out.glob("*.share.json")}
        dest = tmp / "r.bin"

        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(malformed_manifests(valid).map(_encode)
               | st.binary(max_size=40))
        def check(content):
            manifest.write_bytes(content)
            assert run(["reconstruct", "--topology", topo, "--shares", out,
                        "--out", dest]) == 2
            assert not dest.exists()
            assert run(["refresh", "--topology", topo, "--shares", out]) == 2
            assert manifest.read_bytes() == content
            assert {p.name: p.read_bytes()
                    for p in out.glob("*.share.json")} == shares

        check()
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [
        ("chunk_count", ...), ("chunk_count", 0), ("chunk_count", -1),
        ("chunk_count", 1.0), ("chunk_count", "1"), ("chunk_count", True),
        ("stale", ...), ("stale", "nonsense"), ("stale", None),
        ("stale", ["m"]), ("stale", ["m/0"]), ("stale", ["m/01"]),
        ("stale", ["a/b/1"]), ("stale", ["m/\u0661"]), ("stale", [1])],
        ids=["chunk_count-missing", "chunk_count-0", "chunk_count-neg",
             "chunk_count-float", "chunk_count-str", "chunk_count-bool",
             "stale-missing", "stale-str", "stale-null", "stale-no-slash",
             "stale-node-0", "stale-leading-zero", "stale-two-slashes",
             "stale-non-ascii-digit", "stale-int"])
    def test_malformed_field_exit2(self, workspace, capsys, field, value):
        # Every field that docs/formats.md lists is checked: a manifest
        # without chunk_count, say, and with "stale": "nonsense" made
        # both commands exit 0.
        tmp, topo, secret, out = self._deal(workspace)
        manifest = out / "manifest.json"
        doc = at(json.loads(manifest.read_text()), [field],
                 DELETE if value is ... else value)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(formats.CorruptData) as detail:
            formats.manifest_from_dict(doc)
        assert field in str(detail.value)
        assert_vault_fault(capsys, tmp, topo, out, 2,
                           f"cannot read manifest {manifest}: "
                           f"{detail.value}")

    @pytest.mark.parametrize("field, value", [
        ("epoch", 5), ("epoch", 1), ("chunk_count", 1), ("chunk_count", 5)])
    def test_counts_other_than_the_shares_exit2(self, workspace, capsys,
                                                field, value):
        # A manifest whose epoch or chunk_count is not the share files'
        # was accepted: reconstruct exited 0, and refresh wrote the share
        # files' chunk_count and the manifest's epoch plus one.
        tmp, topo, secret, out = self._deal(workspace)
        manifest = out / "manifest.json"
        found = {"epoch": 0, "chunk_count": 4}  # 51 bytes in 15-byte chunks
        assert json.loads(manifest.read_text())["chunk_count"] == 4
        manifest.write_text(json.dumps(at(
            json.loads(manifest.read_text()), [field], value)))
        assert_vault_fault(capsys, tmp, topo, out, 2,
                           f"{manifest} gives {field} {value}, the share "
                           f"files {found[field]}")

    @pytest.mark.parametrize("command", VAULT_COMMANDS)
    def test_stale_node_with_a_share_file_exit2(self, workspace, capsys,
                                                command):
        # A refresh lists as stale only the nodes it wrote no file for, so
        # a share file of a stale node was put there since: a forged
        # share, say, which at exactly a quorum would be used unchecked.
        # refresh took it (exit 0); reconstruct saw only that it disagrees
        # with d2's quorum, which it cannot see at exactly a quorum.
        tmp, topo, secret, out = self._deal(workspace)
        (out / "d2_003.share.json").unlink()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        manifest = out / "manifest.json"
        assert json.loads(manifest.read_text())["stale"] == ["d2/3"]
        # A stale node without a file, as the refresh left it, passes.
        dest = tmp / "ok.bin"
        assert run(["refresh", "--topology", topo, "--shares", out]
                   if command == "refresh" else
                   ["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert command == "refresh" or dest.read_bytes() == secret.read_bytes()
        data = json.loads((out / "d2_002.share.json").read_text())
        data["node_index"] = 3
        (out / "d2_003.share.json").write_bytes(
            formats.canonical_json(data) + b"\n")
        assert_vault_fault(capsys, tmp, topo, out, 2,
                           f"{manifest} lists as stale nodes that have a "
                           f"share file: d2/3", commands=[command])
        # The manifest's own list, edited to name nodes that have files.
        manifest.write_text(json.dumps(at(
            json.loads(manifest.read_text()), ["stale"],
            ["m/1", "d2/2", "d1/9"])))
        (out / "d2_003.share.json").unlink()
        assert_vault_fault(capsys, tmp, topo, out, 2,
                           f"{manifest} lists as stale nodes that have a "
                           f"share file: d2/2, m/1", commands=[command])

    @pytest.mark.parametrize("command", VAULT_COMMANDS)
    def test_stale_node_the_topology_lacks_exit2(self, workspace, capsys,
                                                 command):
        # No refresh of this topology lists such a node, so the list was
        # edited since; both commands took it (exit 0).
        tmp, topo, secret, out = self._deal(workspace)
        manifest = out / "manifest.json"
        # A stale list that omits a node without a file passes: a file
        # may be lost at any time.
        (out / "d2_003.share.json").unlink()
        assert json.loads(manifest.read_text())["stale"] == []
        dest = tmp / "ok.bin"
        assert run(["refresh", "--topology", topo, "--shares", out]
                   if command == "refresh" else
                   ["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert command == "refresh" or dest.read_bytes() == secret.read_bytes()
        for stale, lacked in ((["d2/4"], "d2/4"),
                              (["x/1", "d2/3", "m/9"], "m/9, x/1")):
            manifest.write_text(json.dumps(at(
                json.loads(manifest.read_text()), ["stale"], stale)))
            assert_vault_fault(capsys, tmp, topo, out, 2,
                               f"{manifest} lists as stale nodes that the "
                               f"topology lacks: {lacked}",
                               commands=[command])

    def test_missing_manifest_allowed(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        (out / "manifest.json").unlink()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        (out / "manifest.json").unlink()
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()


class TestRefresh:
    def test_refresh_then_reconstruct(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epoch"] == 1
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_takes_no_seed(self, workspace, capsys):
        # Whoever knew the seed would know the draws, and could carry a
        # node's share across the refresh (see tests/test_protocol.py,
        # test_known_draws_carry_a_share_across_epochs).
        tmp, topo, secret = workspace
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out]) == 0
        before = tree(tmp)
        with pytest.raises(SystemExit) as err:
            run(["refresh", "--topology", topo, "--shares", out,
                 "--seed", "1"])
        assert err.value.code == 64
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert tree(tmp) == before

    def test_double_refresh_epoch_two(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        run(["refresh", "--topology", topo, "--shares", out])
        run(["refresh", "--topology", topo, "--shares", out])
        share = json.loads((out / "m_001.share.json").read_text())
        assert share["epoch"] == 2

    @pytest.mark.parametrize("command", VAULT_COMMANDS)
    def test_topology_digested_once(self, workspace, monkeypatch, command):
        # refresh digested the topology twice: once to check the manifest
        # and once for the manifest it writes.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        real, digests = formats.topology_digest, []

        def digest(topology):
            digests.append(real(topology))
            return digests[-1]

        monkeypatch.setattr(formats, "topology_digest", digest)
        assert run(["refresh", "--topology", topo, "--shares", out]
                   if command == "refresh" else
                   ["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 0
        assert len(digests) == 1
        assert json.loads((out / "manifest.json").read_text())[
            "topology_digest"] == digests[0]

    def test_missing_node_flagged_stale(self, workspace, capsys):
        # Printed in topology order, written to the manifest sorted.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        (out / "m_001.share.json").unlink()
        (out / "d1_002.share.json").unlink()
        capsys.readouterr()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        assert capsys.readouterr().out == (
            "refreshed 7 shares to epoch 1; stale: m/1, d1/2\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stale"] == ["d1/2", "m/1"]

    def test_share_under_another_name_refreshed_in_place(self, tmp_path):
        # A share file not at its canonical name once stayed behind at the
        # old epoch while a new file took the canonical name, and the
        # directory then failed with mixed epochs.
        topo = ROOT / "docs" / "examples" / "topology.json"
        secret = tmp_path / "secret.bin"
        secret.write_bytes(b"the crown jewels are in the tower")
        out = tmp_path / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        (out / "d1_003.share.json").rename(out / "backup-d1.share.json")
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        assert not (out / "d1_003.share.json").exists()
        moved = json.loads((out / "backup-d1.share.json").read_text())
        assert (moved["network_id"], moved["node_index"]) == ("d1", 3)
        assert moved["epoch"] == 1
        dest = tmp_path / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0

class TestRefreshFaults:
    """A refresh that fails or dies at any file mutation leaves a directory
    that holds the secret at the old epoch or the new one."""

    @pytest.mark.parametrize("crash", [False, True],
                             ids=["cleanup", "crash"])
    @pytest.mark.parametrize("start", ["settled", "uncommitted",
                                       "committed"])
    def test_fault_at_every_mutation(self, workspace, monkeypatch, capsys,
                                     start, crash):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        dest = tmp / "r.bin"
        run(["deal", "--topology", topo, "--secret", secret, "--out", out,
             "--seed", "1"])
        refresh = ["refresh", "--topology", topo, "--shares", out]
        run(refresh)
        reconstruct = ["reconstruct", "--topology", topo, "--shares", out,
                       "--out", dest]

        def recovers():
            dest.unlink(missing_ok=True)
            return (run(reconstruct) == 0
                    and dest.read_bytes() == secret.read_bytes())

        with fixed_draws(monkeypatch, 3):
            # The starting directory: as refresh left it, or left by a refresh
            # that died before its commit, or after it, part-way through the
            # renames.
            settled = snapshot(out)
            probe = FaultyFiles()
            assert probe.run(monkeypatch, refresh) == 0
            restore(out, settled)
            commit = probe.log.index("replace") + 1
            if start != "settled":
                at = 7 if start == "uncommitted" else commit + 3
                assert FaultyFiles(at, crash=True).run(monkeypatch,
                                                       refresh) == 2
            begin = snapshot(out)
            assert any(".staged-" in name for name in begin) == (
                start != "settled")
            # What settling that directory gives, and what refreshing it gives.
            assert recovers()
            old = snapshot(out)
            assert run(refresh) == 0
            new = snapshot(out)
            restore(out, begin)
            probe = FaultyFiles()
            assert probe.run(monkeypatch, refresh) == 0
            assert snapshot(out) == new
            for k in range(1, len(probe.log) + 1):
                restore(out, begin)
                faults = FaultyFiles(k, crash)
                capsys.readouterr()
                assert faults.run(monkeypatch, refresh) == 2, (k, faults.log)
                err = capsys.readouterr().err
                # Only the commit changes the manifest.
                committed = ((out / "manifest.json").read_bytes()
                             == new["manifest.json"])
                if committed:
                    epoch = json.loads(new["manifest.json"])["epoch"]
                    assert err == (
                        f"error: epoch {epoch} is committed, but not every "
                        f"share has its final name; the next refresh or "
                        f"reconstruct --shares finishes it: {INJECTED}\n"), k
                if start == "settled" and not crash and not committed:
                    assert snapshot(out) == begin, k
                assert recovers(), k
                assert snapshot(out) == (new if committed else old), k
                with fixed_draws(monkeypatch, 4):
                    assert run(refresh) == 0, k
                assert recovers(), k
        capsys.readouterr()


class TestTwoCommands:
    """Two commands on one vault at once, made deterministic in process:
    the inner one runs inside the outer one, once the outer has written
    its first block ("blocks"), just before it commits ("commit"), or once
    it has recovered its first block ("recovered"). The outer holds the
    vault directory's lock (vault.locked), so the inner exits 2, saying
    that the vault is in use, and changes nothing; the outer exits 0, and
    the vault holds the secret at its epoch. Reconstructs of listed files
    share the lock, and both exit 0."""

    HOOKS = {"blocks": (vault.Commit, "append"),
             "commit": (vault.Commit, "commit"),
             "recovered": (SecretDecoder, "feed")}

    def inside(self, monkeypatch, capsys, when, argv, root) -> list:
        """Run `argv` once inside the next command, at `when`, and check
        that it changes no file under `root`; the list it returns gets the
        inner command's exit code and what it printed on stderr."""
        codes = []
        owner, name = self.HOOKS[when]
        real = getattr(owner, name)

        def hook(obj, *args):
            # A second append to a staged file starts the second block.
            if not codes and (when != "blocks" or args[0] in obj.staged):
                codes.append(None)  # so the inner command's calls pass
                before = tree(root)
                capsys.readouterr()
                codes[0] = run(argv), capsys.readouterr().err
                assert tree(root) == before
            return real(obj, *args)

        monkeypatch.setattr(owner, name, hook)
        return codes

    @staticmethod
    def recovered(topo, out, dest, epoch) -> bytes:
        """What reconstruct --shares recovers at `epoch`; nothing is staged."""
        assert not [p for p in out.iterdir() if ".staged-" in p.name]
        doc = json.loads((out / "manifest.json").read_bytes())
        assert doc["epoch"] == epoch
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        return dest.read_bytes()

    @pytest.mark.parametrize("when", ["blocks", "commit"])
    @pytest.mark.parametrize("inner", ["reconstruct", "listed", "refresh"])
    def test_inside_a_refresh(self, workspace, monkeypatch, capsys, inner,
                              when):
        tmp, topo, secret = workspace
        data = chunks_secret(secret, BLOCK_WORDS + 1)
        out, dest = tmp / "shares", tmp / "r.bin"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out]) == 0
        refresh = ["refresh", "--topology", topo, "--shares", out]
        argv = refresh if inner == "refresh" else [
            "reconstruct", "--topology", topo, "--out", tmp / "inner.bin",
            *(["--shares", out] if inner == "reconstruct"
              else sorted(out.glob("*.share.json")))]
        codes = self.inside(monkeypatch, capsys, when, argv, tmp)
        assert run(refresh) == 0
        assert codes == [(2, f"error: {out} is in use by another multishare "
                             f"command\n")]
        monkeypatch.undo()
        assert self.recovered(topo, out, dest, 1) == data

    @pytest.mark.parametrize("when", ["blocks", "commit"])
    def test_inside_a_deal(self, workspace, monkeypatch, capsys, when):
        tmp, topo, secret = workspace
        data = chunks_secret(secret, BLOCK_WORDS + 1)
        out, dest = tmp / "new" / "shares", tmp / "r.bin"
        deal = ["deal", "--topology", topo, "--out", out, "--secret", secret]
        codes = self.inside(monkeypatch, capsys, when, deal, tmp)
        assert run(deal) == 0
        assert codes == [(2, f"error: {out} is in use by another multishare "
                             f"command\n")]
        monkeypatch.undo()
        assert self.recovered(topo, out, dest, 0) == data

    def test_listed_inside_a_listed_reconstruct(self, workspace,
                                                 monkeypatch, capsys):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out]) == 0
        listed = ["reconstruct", "--topology", topo,
                  *sorted(out.glob("*.share.json")), "--out"]
        codes = self.inside(monkeypatch, capsys, "recovered",
                            listed + [tmp / "inner.bin"], out)
        assert run(listed + [tmp / "outer.bin"]) == 0
        assert codes == [(0, "")]
        assert (tmp / "inner.bin").read_bytes() == secret.read_bytes()
        assert (tmp / "outer.bin").read_bytes() == secret.read_bytes()

    @pytest.mark.parametrize("when", ["blocks", "commit"])
    @pytest.mark.parametrize("command", ["deal", "refresh"])
    def test_staged_file_unlinked(self, workspace, monkeypatch, capsys,
                                  command, when):
        # A program that takes no lock unlinks m/1's staged file after its
        # first append: of two blocks, before the second ("blocks"); of
        # one, before the commit ("commit"). An append makes no file, so
        # the next append, or the commit's flush, fails before the
        # manifest. The command exits 2 and changes no file: a deal leaves
        # no --out, and a refreshed vault still reconstructs.
        tmp, topo, secret = workspace
        data = chunks_secret(secret, BLOCK_WORDS + 1 if when == "blocks"
                             else 4)
        out, dest = tmp / "shares", tmp / "r.bin"
        deal = ["deal", "--topology", topo, "--secret", secret, "--out", out]
        argv = deal if command == "deal" else [
            "refresh", "--topology", topo, "--shares", out]
        if command == "refresh":
            assert run(deal) == 0
        target = out / "m_001.share.json"
        owner, name = self.HOOKS[when]
        real = getattr(owner, name)
        gone = []

        def hook(commit, *args):
            if not gone and target in commit.staged and (
                    when == "commit" or args[0] == target):
                gone.append(commit.staged[target])
                gone[0].unlink()
            return real(commit, *args)

        monkeypatch.setattr(owner, name, hook)
        before = tree(tmp)
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {command} failed, no file changed: [Errno 2] No such "
            f"file or directory: '{gone[0]}'\n")
        assert tree(tmp) == before
        monkeypatch.undo()
        if command == "refresh":
            assert self.recovered(topo, out, dest, 0) == data

    @pytest.mark.parametrize("command", VAULT_COMMANDS)
    def test_staged_file_already_gone(self, workspace, monkeypatch, capsys,
                                      command):
        # A staged file that a program taking no lock deleted between
        # this command's listing and its settling: of another epoch than
        # the manifest's, it counts as deleted; of the manifest's epoch,
        # it cannot take its final name.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out]) == 0
        argv = (["refresh", "--topology", topo, "--shares", out]
                if command == "refresh" else
                ["reconstruct", "--topology", topo, "--shares", out,
                 "--out", tmp / "r.bin"])
        real = vault.listing
        # Staged at the manifest's epoch plus one, then at its epoch.
        for later, code in ((1, 0), (0, 2)):
            manifest = json.loads((out / "manifest.json").read_bytes())
            epoch = manifest["epoch"] + later
            gone = f"d2_001.share.json.staged-{epoch}"
            monkeypatch.setattr(vault, "listing", lambda d: (
                sorted([*real(d), gone]) if d == out else real(d)))
            capsys.readouterr()
            assert run(argv) == code, epoch
            err = capsys.readouterr().err
            monkeypatch.undo()
            if code:
                assert err.startswith(
                    f"error: cannot settle the staged files of an earlier "
                    f"deal or refresh in {out}: "), err
        assert not [p for p in out.iterdir() if ".staged-" in p.name]


class TestThresholds:
    def test_formula_report(self, workspace, capsys):
        tmp, topo, _ = workspace
        small = tmp / "t257.json"
        write_topology(small, q=257)
        assert run(["thresholds", "--topology", small]) == 0
        out = capsys.readouterr().out
        assert "t_networks = 2" in out
        assert "t_nodes    = 4" in out

    def test_oracle_reports_discrepancy(self, workspace, capsys):
        tmp, _, _ = workspace
        small = tmp / "t257.json"
        write_topology(small, q=257)
        assert run(["thresholds", "--topology", small]) == 0
        out = capsys.readouterr().out
        assert "DISCREPANCY: t_f1" in out

    def test_daughter_count_below_modulus(self, workspace, capsys):
        # Daughter a's point is a mod q: at q = 257, the points of 256
        # daughters are distinct (of 257, not: tests/test_refusals.py).
        tmp, _, _ = workspace
        data = topology_to_dict(write_topology(tmp / "t.json", q=257))
        path = tmp / "many.json"
        path.write_text(json.dumps({**data, "networks": [
            data["networks"][0], *({**data["networks"][1], "id": f"d{a}"}
                                   for a in range(1, 257))]}))
        assert run(["thresholds", "--topology", path]) == 0
        assert "t_networks = 2" in capsys.readouterr().out

    def test_high_inner_degree_oracle(self, workspace, capsys):
        # No bound on the inner degree: a network's quorum is its inner
        # degree plus one, as the closed form takes it.
        tmp, _, _ = workspace
        big = tmp / "big.json"
        write_topology(big, q=257, nets=((102, 101), (2, 1), (2, 1)))
        assert run(["thresholds", "--topology", big]) == 0
        out = capsys.readouterr().out
        exhaustive = out[out.index("exhaustive-search thresholds:"):]
        for line in ("t_networks = 2", "t_nodes    = 104", "t_f0       = 1",
                     "t_f1       = 2", "t_fail     = 1"):
            assert f"  {line}\n" in exhaustive
        assert "DISCREPANCY: t_f1 formula=1 exhaustive=2" in out

    def test_27_node_oracle_reports_discrepancy(self, workspace, capsys):
        # 27 nodes, beyond the former total-node bound of 20.
        tmp, _, _ = workspace
        big = tmp / "big.json"
        write_topology(big, q=257, nets=((9, 1),) * 3)
        assert run(["thresholds", "--topology", big]) == 0
        assert ("DISCREPANCY: t_f1 formula=8 exhaustive=16 (the closed form "
                "disables one daughter too few)\n"
                in capsys.readouterr().out)

    def test_certified_closed_form(self, workspace, capsys):
        _, topo, _ = workspace
        assert run(["thresholds", "--topology", topo]) == 0
        out = capsys.readouterr().out
        assert f"closed form certified at modulus {DEFAULT_MODULUS}\n" in out
        assert out.endswith("  t_fail     = 2\nDISCREPANCY: t_f1 formula=2 "
                            "exhaustive=4 (the closed form disables one "
                            "daughter too few)\n")

    def test_uncertified_closed_form_is_checked(self, workspace, capsys):
        # At q = 257 the mother with d2, d3 and d6 reconstructs, so the
        # closed form overstates secrecy. It is not certified there, and
        # the exhaustive thresholds show it.
        tmp, _, _ = workspace
        path = tmp / "t257.json"
        write_topology(path, q=257, nets=((3, 1),) * 7, outer=4)
        assert run(["thresholds", "--topology", path]) == 0
        out = capsys.readouterr().out
        formula, _, exhaustive = out.partition(
            "closed form not certified at modulus 257\n"
            "exhaustive-search thresholds:\n")
        assert "  t_networks = 5\n" in formula
        assert exhaustive.startswith("  t_networks = 4\n  t_nodes    = 8\n")
        assert exhaustive.count("DISCREPANCY: t_networks formula=5 "
                                "exhaustive=4\n") == 1

    def test_certified_beyond_the_bound(self, workspace, capsys):
        # 20 networks with D = 3, certified at 2^127 - 1: the exhaustive
        # thresholds need no walk. Only t_f1 differs from the closed form,
        # by one daughter, and t_fail, which t_f1 sets here.
        tmp, _, _ = workspace
        path = tmp / "big.json"
        write_topology(path, nets=((20, 1),) + ((2, 1),) * 19, outer=3)
        assert run(["thresholds", "--topology", path]) == 0
        out = capsys.readouterr().out
        assert f"closed form certified at modulus {DEFAULT_MODULUS}\n" in out
        assert out.endswith("".join(
            f"DISCREPANCY: {name} formula=16 exhaustive=17 (the closed form "
            f"disables one daughter too few)\n" for name in ("t_f1",
                                                            "t_fail")))
        assert out.count("DISCREPANCY") == 2

    def test_uncertified_beyond_the_bound(self, workspace, capsys):
        tmp, _, _ = workspace
        path = tmp / "big.json"
        write_topology(path, q=257, nets=((2, 1),) * 13, outer=4)
        assert run(["thresholds", "--topology", path]) == 0
        assert capsys.readouterr().out.endswith(
            "  t_fail     = 1\nclosed form not certified at modulus 257\n"
            "nothing checked the closed form: the exhaustive search takes "
            "at most 12 networks\n")


class TestSimulate:
    def _scenario(self, tmp, schedule):
        topo = write_topology(tmp / "t.json", q=65537)
        path = tmp / "scenario.json"
        path.write_text(json.dumps({
            "topology": topology_to_dict(topo),
            "secret_hex": b"simulated".hex(),
            "schedule": schedule,
        }))
        return path

    def test_hndl_only_verdict(self, tmp_path, capsys):
        path = self._scenario(tmp_path, [
            {"event": "deal"},
            {"event": "hndl_decrypt_classical"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ])
        assert run(["simulate", "--scenario", path, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "adversary: NoInformation" in out
        report = json.loads(
            (tmp_path / "scenario.report.json").read_text())
        assert report["adversary_verdict"] == "NoInformation"

    def test_combined_adversary_wins_but_exit0(self, tmp_path, capsys):
        path = self._scenario(tmp_path, [
            {"event": "deal"},
            {"event": "hndl_decrypt_classical"},
            {"event": "compromise_network", "network": "m"},
        ])
        assert run(["simulate", "--scenario", path, "--seed", "5"]) == 0
        assert "adversary: Reconstructs" in capsys.readouterr().out

    def test_same_seed_identical_json(self, tmp_path):
        path = self._scenario(tmp_path, [
            {"event": "deal"},
            {"event": "refresh"},
        ])
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        run(["simulate", "--scenario", path, "--seed", "9",
             "--report", r1])
        run(["simulate", "--scenario", path, "--seed", "9",
             "--report", r2])
        assert r1.read_bytes() == r2.read_bytes()

    def test_state_persists(self, tmp_path):
        path = self._scenario(tmp_path, [{"event": "deal"},
                                         {"event": "refresh"}])
        state = tmp_path / "world.state"
        with_state = tmp_path / "with-state.json"
        without_state = tmp_path / "without-state.json"
        assert run(["simulate", "--scenario", path, "--seed", "3",
                    "--state", state, "--report", with_state]) == 0
        assert run(["simulate", "--scenario", path, "--seed", "3",
                    "--report", without_state]) == 0
        assert state.read_bytes()[:4] == b"MSS1"
        assert with_state.read_bytes() == without_state.read_bytes()
        sim = load_state(state)
        assert sim.epoch == json.loads(with_state.read_text())["epoch"] == 1
        again = tmp_path / "again.state"
        sim.save_state(again)
        assert again.read_bytes() == state.read_bytes()

    def test_continued_world_reports_its_own_seed(self, tmp_path):
        # A world continued from --state keeps the seed it was made with;
        # the report once gave the --seed of the later run instead.
        path = self._scenario(tmp_path, [{"event": "deal"}])
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", path, "--seed", "3",
                    "--state", state]) == 0
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "schedule": [{"event": "refresh"}]}))
        report = tmp_path / "report.json"
        assert run(["simulate", "--scenario", path, "--seed", "9",
                    "--state", state, "--report", report]) == 0
        assert json.loads(report.read_text())["seed"] == 3
        assert load_state(state).seed == 3

    @pytest.mark.parametrize("saved", [False, True],
                             ids=["new-state", "saved-state"])
    @pytest.mark.parametrize("report, state, what", [
        ("scenario.json", None, "scenario"),
        ("w.state", "w.state", "state"),
        ("link", "w.state", "state"),
        (None, "scenario.json", "scenario"),
    ], ids=["report-scenario", "report-state", "report-link-state",
            "state-scenario"])
    def test_output_is_an_input_exit64(self, tmp_path, capsys, report,
                                       state, what, saved):
        # A --report over the scenario replaced it with the report; one
        # over a new --state failed to rename the state's temporary file
        # after the report had taken it, leaving the state saved.
        path = self._scenario(tmp_path, [{"event": "deal"}])
        (tmp_path / "link").symlink_to("w.state")

        def files():  # a link to a state not saved yet reads as False
            return {p.name: p.exists() and p.read_bytes()
                    for p in sorted(tmp_path.iterdir())}

        if saved:
            assert run(["simulate", "--scenario", path, "--report",
                        tmp_path / "r.json", "--state",
                        tmp_path / "w.state"]) == 0
        before = files()
        argv = ["simulate", "--scenario", path]
        if report:
            argv += ["--report", tmp_path / report]
        if state:
            argv += ["--state", tmp_path / state]
        capsys.readouterr()
        assert run(argv) == 64
        option = "--report" if report else "--state"
        dest = tmp_path / (report or state)
        assert capsys.readouterr().err == (
            f"error: {option} {dest} is the {what} file "
            f"{tmp_path / (state if what == 'state' else 'scenario.json')}\n")
        assert files() == before

    def test_report_and_state_links_written_through(self, tmp_path):
        path = self._scenario(tmp_path, [{"event": "deal"}])
        report, state = tmp_path / "r.json", tmp_path / "w.state"
        report_link, state_link = tmp_path / "r-link", tmp_path / "s-link"
        report.write_text("old")
        report_link.symlink_to(report)
        state_link.symlink_to(state)
        assert run(["simulate", "--scenario", path, "--report", report_link,
                    "--state", state_link]) == 0
        assert report_link.is_symlink() and state_link.is_symlink()
        assert json.loads(report.read_text())["epoch"] == 0
        assert load_state(state).dealt

    @pytest.mark.parametrize("name, edit", [
        ("secret", lambda d: {**d, "secret_hex": "00" * 8}),
        ("topology", lambda d: {**d, "topology": {
            **d["topology"], "networks": [
                {**n, "node_count": 4} if n["id"] == "d1" else n
                for n in d["topology"]["networks"]]}}),
    ], ids=["secret", "topology"])
    def test_state_of_another_scenario_exit2(self, tmp_path, capsys, name,
                                             edit):
        # A run on a saved world must be of the scenario that made it:
        # its report judges the adversary's recovered secret against the
        # saved secret, not the scenario's.
        data = json.loads(
            (ROOT / "docs" / "examples" / "scenario.json").read_text())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        state = tmp_path / "w.state"
        assert run(["simulate", "--scenario", path, "--state", state]) == 0
        saved = state.read_bytes()
        other = edit({**data, "schedule": [
            ev for ev in data["schedule"] if ev["event"] != "deal"]})
        path.write_text(json.dumps(other))
        report = tmp_path / "other.json"
        capsys.readouterr()
        assert run(["simulate", "--scenario", path, "--state", state,
                    "--report", report]) == 2
        assert (f"the state's {name} differs from the scenario's"
                in capsys.readouterr().err)
        assert state.read_bytes() == saved
        assert not report.exists()

    @pytest.mark.parametrize("schedule", [None, hndl_schedule(30)],
                             ids=["docs-example", "hndl-30-rounds"])
    def test_split_run_matches_one_run(self, tmp_path, schedule):
        # Cut at every point k into two --state runs: the second run
        # replays the first one's log and goes on as if never stopped.
        data = json.loads(
            (ROOT / "docs" / "examples" / "scenario.json").read_text())
        schedule = schedule or data["schedule"]
        path = tmp_path / "scenario.json"

        def simulate(part, state, report):
            path.write_text(json.dumps({**data, "schedule": part}))
            assert run(["simulate", "--scenario", path, "--seed", "3",
                        "--state", state, "--report", report]) == 0
            return json.loads(report.read_text())

        whole_state = tmp_path / "whole.state"
        whole = simulate(schedule, whole_state, tmp_path / "whole.json")
        state = tmp_path / "split.state"
        for k in range(len(schedule) + 1):
            state.unlink(missing_ok=True)
            simulate(schedule[:k], state, tmp_path / "first.json")
            second = simulate(schedule[k:], state, tmp_path / "second.json")
            assert state.read_bytes() == whole_state.read_bytes()
            assert second == {**whole, "events": whole["events"][k:]}

    def test_state_holds_no_share_value(self, tmp_path):
        data = json.loads(
            (ROOT / "docs" / "examples" / "scenario.json").read_text())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**data, "schedule": hndl_schedule(30)}))
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", path, "--seed", "3",
                    "--state", state]) == 0
        blob = state.read_bytes()
        assert set(json.loads(blob[12:])) == {
            "version", "topology", "secret", "seed", "history"}
        sim = load_state(state)
        values = {v for node in sim.nodes.values() for v in node.store.values}
        values |= {v for *_, captured in sim.transcript + sim.captures
                   for v in captured}
        assert len(values) > 300
        for v in values:
            assert format(v, "x").encode() not in blob
            assert str(v).encode() not in blob

    @pytest.mark.parametrize("crash", [False, True],
                             ids=["cleanup", "crash"])
    def test_fault_at_every_write(self, tmp_path, monkeypatch, capsys,
                                  crash):
        # The report is staged and flushed, the state written, flushed,
        # replaced and its directory flushed, and then the report replaced
        # and its directory flushed. A failure up to the state's replace
        # exits 2 with no report and the earlier state byte-identical; one
        # after it leaves the later state, and no report unless it is the
        # last flush.
        examples = ROOT / "docs" / "examples"
        state, report = tmp_path / "w.state", tmp_path / "r.json"
        assert run(["simulate", "--scenario", examples / "scenario.json",
                    "--seed", "3", "--state", state, "--report",
                    tmp_path / "first.json"]) == 0
        earlier = state.read_bytes()
        more = json.loads((examples / "scenario.json").read_text())
        more["schedule"] = [
            {"event": "refresh"},
            {"event": "compromise_node", "network": "d1", "node": 1},
            {"event": "attempt_reconstruct", "actor": "adversary"}]
        scenario = tmp_path / "more.json"
        scenario.write_text(json.dumps(more))
        argv = ["simulate", "--scenario", scenario, "--seed", "4",
                "--state", state, "--report", report]
        probe = FaultyFiles()
        assert probe.run(monkeypatch, argv) == 0
        assert probe.log == ["write", "fsync",
                             "write", "fsync", "replace", "fsync",
                             "replace", "fsync"]
        state_replace = 5  # a fault here still leaves the earlier state
        later = state.read_bytes()
        assert later != earlier
        for k in range(1, len(probe.log) + 1):
            state.write_bytes(earlier)
            report.unlink(missing_ok=True)
            capsys.readouterr()
            assert FaultyFiles(k, crash).run(monkeypatch, argv) == 2, k
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write "), k
            if k == len(probe.log):
                assert err == (f"error: cannot write {report}: flushing its "
                               f"directory failed: {INJECTED}\n")
            assert report.exists() == (k == len(probe.log)), k
            assert state.read_bytes() == (earlier if k <= state_replace
                                          else later), k
            if not crash:
                assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                    ["first.json", "more.json", "w.state"]
                    + (["r.json"] if report.exists() else [])), k

    def test_benchmark_tracer_attaches(self, tmp_path):
        # The benchmark's tracer wraps functions by module attribute name;
        # a renamed attribute makes it fail here rather than only in a
        # traced benchmark run.
        path = self._scenario(tmp_path, [
            {"event": "deal"},
            {"event": "hndl_decrypt_classical"},
            {"event": "compromise_network", "network": "m"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ])
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracing.py"),
             str(spans), "cli", "simulate", "--scenario", str(path),
             "--report", str(tmp_path / "report.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(spans.read_text())["counts"]
        assert counts["field.express_over_rows.calls"] > 0
        assert counts["simnet.adversary_verdict.calls"] > 0

    def test_benchmark_tracer_attaches_vault(self, workspace):
        # The benchmark's vault pass, traced: without --seed the draws go
        # through the tracer's stand-in for the OS entropy source. deal
        # and refresh are called once per block of the secret, and
        # reconstruct once.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        dest = tmp / "recovered.bin"

        def traced(*argv):
            spans = tmp / f"{argv[0]}.spans.json"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "tracing.py"),
                 str(spans), "cli", *map(str, argv)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return json.loads(spans.read_text())["counts"]

        counts = traced("deal", "--topology", topo, "--secret", secret,
                        "--out", out)
        assert counts["protocol.deal.calls"] == 1
        counts = traced("refresh", "--topology", topo, "--shares", out)
        assert counts["protocol.refresh.calls"] == 1
        # One call per share file per block; the secret is one block.
        assert counts["protocol.apply_node_refresh.calls"] == 9
        counts = traced("reconstruct", "--topology", topo, "--shares", out,
                        "--out", dest)
        assert counts["protocol.reconstruct.calls"] == 1
        assert dest.read_bytes() == secret.read_bytes()


def test_files_are_private(workspace):
    # Under the common umask 022, which leaves files readable by all,
    # every file a command makes is its owner's alone, 0600, and every
    # directory deal makes 0700. A refresh makes a vault of 0644 files,
    # dealt before or copied without its modes, private, and a file left
    # at an output's temporary name passes no mode on.
    tmp, topo, secret = workspace
    out = tmp / "vaults" / "shares"  # two directories made

    def modes():
        return {str(p.relative_to(tmp)): oct(p.stat().st_mode & 0o777)
                for p in sorted(tmp.rglob("*"))
                if p.name not in ("topology.json", "secret.bin")}

    umask = os.umask(0o022)
    try:
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        dealt = modes()
        assert [p for p, mode in dealt.items() if mode != "0o600"] == [
            "vaults", "vaults/shares"]
        assert {dealt["vaults"], dealt["vaults/shares"]} == {"0o700"}
        for path in out.iterdir():
            path.chmod(0o644)
        for name in ("r.bin.tmp", "report.json.tmp"):
            (tmp / name).write_bytes(b"left")
            (tmp / name).chmod(0o666)
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 0
        assert run(["simulate", "--scenario",
                    ROOT / "docs" / "examples" / "scenario.json",
                    "--report", tmp / "report.json",
                    "--state", tmp / "w.state"]) == 0
    finally:
        os.umask(umask)
    assert modes() == {**dealt, "r.bin": "0o600", "report.json": "0o600",
                       "w.state": "0o600"}


def test_no_secret_or_value_is_printed(tmp_path, capsys):
    # Each command on the documented examples: what it prints, and the
    # report, hold neither the secret nor any value dealt or refreshed.
    # The state file holds the secret by design.
    examples = ROOT / "docs" / "examples"
    topo = examples / "topology.json"
    data = b"the crown jewels are in the tower"
    secret = tmp_path / "secret.bin"
    secret.write_bytes(data)
    out = tmp_path / "shares"
    values = set()

    def held():
        for path in out.glob("*.share.json"):
            values.update(json.loads(path.read_bytes())["values"])

    capsys.readouterr()
    assert run(["deal", "--topology", topo, "--secret", secret,
                "--out", out, "--seed", "1"]) == 0
    held()
    assert run(["refresh", "--topology", topo, "--shares", out]) == 0
    held()
    assert run(["reconstruct", "--topology", topo, "--shares", out,
                "--out", tmp_path / "r.bin"]) == 0
    assert run(["thresholds", "--topology", topo]) == 0
    scenario = json.loads((examples / "scenario.json").read_text())
    scenario = {**scenario, "schedule": hndl_schedule(10)}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    report = tmp_path / "report.json"
    state = tmp_path / "w.state"
    assert run(["simulate", "--scenario", tmp_path / "scenario.json",
                "--report", report, "--state", state]) == 0
    sim = load_state(state)
    values |= {v2_hex(v) for node in sim.nodes.values()
               for v in node.store.values}
    values |= {v2_hex(v) for *_, captured in sim.transcript + sim.captures
               for v in captured}
    assert len(values) > 200
    captured = capsys.readouterr()
    text = captured.out + captured.err + report.read_text()
    for kept in (data, bytes.fromhex(scenario["secret_hex"])):
        assert kept.decode() not in text
        assert kept.hex() not in text
    for value in values:
        assert value not in text
        assert value.lstrip("0") not in text


class TestLoadOnUse:
    """No command loads _hashlib, which maps OpenSSL's libcrypto (about
    3.5 MiB of a 20 MiB process): the vault commands digest a topology
    with the interpreter's built-in SHA-256 (formats.topology_digest).
    The package root does not import the simulator."""

    @staticmethod
    def modules(code, *args):
        """The names in sys.modules once `code` has run, with `args` as
        sys.argv[1:], in a fresh interpreter."""
        probe = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
        proc = subprocess.run(
            [sys.executable, "-c", probe, *map(str, args)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    CLI = ("import sys\nfrom multishare.cli import main\n"
           "assert main(sys.argv[1:]) == 0")

    def test_protocol_import_loads_no_simulator(self):
        loaded = self.modules("import multishare.protocol")
        assert "multishare.protocol" in loaded
        assert not loaded & {"_hashlib", "hashlib", "multishare.simnet",
                             "multishare.formats", "json"}

    def test_thresholds_and_simulate_load_no_libcrypto(self, tmp_path):
        examples = ROOT / "docs" / "examples"
        state = tmp_path / "w.state"
        more = json.loads((examples / "scenario.json").read_text())
        more["schedule"] = [{"event": "refresh"},
                            {"event": "attempt_reconstruct",
                             "actor": "owner"}]
        scenario = tmp_path / "more.json"
        scenario.write_text(json.dumps(more))
        for argv in (
                ["thresholds", "--topology", examples / "topology.json"],
                # A new state, then the same one loaded, run on and saved.
                ["simulate", "--scenario", examples / "scenario.json",
                 "--state", state, "--report", tmp_path / "r.json"],
                ["simulate", "--scenario", scenario, "--state", state,
                 "--report", tmp_path / "r.json"]):
            loaded = self.modules(self.CLI, *argv)
            assert "multishare.cli" in loaded, argv
            assert "_hashlib" not in loaded, argv
        assert state.exists()

    def test_vault_commands_load_no_libcrypto(self, workspace):
        # Each takes the digest: deal for the manifest it writes, refresh
        # and reconstruct --shares to check the manifest they read.
        tmp, topo, secret = workspace
        out = tmp / "shares"
        for argv in (["deal", "--topology", topo, "--secret", secret,
                      "--out", out],
                     ["refresh", "--topology", topo, "--shares", out],
                     ["reconstruct", "--topology", topo, "--shares", out,
                      "--out", tmp / "r.bin"]):
            loaded = self.modules(self.CLI, *argv)
            assert "multishare.formats" in loaded, argv
            assert not loaded & {"_hashlib", "hashlib"}, argv
        assert (tmp / "r.bin").read_bytes() == secret.read_bytes()

    def test_probe_sees_hashlib(self):
        # The control: the probe does see _hashlib once hashlib is
        # imported, where the interpreter is built with OpenSSL.
        pytest.importorskip("_hashlib")
        assert "_hashlib" in self.modules("import hashlib")


class TestGoldenOutput:
    """Seeded output is pinned byte for byte, so a change to the draw order
    or to the share codec fails here. RECONSTRUCTED and the simulator's
    digests were recorded before the share writer, the draws, the column
    sums and the secret framing were rewritten as C-level loops. The share
    directories of secrets of more than one block (SHARE_DIR, SPREAD_DEALT
    and SPREAD_REFRESHED) were recorded in share format v1 when dealing
    and refresh began to draw block by block, and the per-chunk reference
    reproduces them (test_reference_reproduces_share_digests). The files
    are now v2 (the *_V2 digests); re-encoded by the v1 writer of
    tests/reference.py, they give the recorded digests, so the values are
    those recorded."""

    # 200,000 bytes: 13,334 chunks, more than three draw blocks.
    SECRET = hashlib.shake_256(b"multishare golden").digest(200_000)
    SHARE_DIR = {
        "d1_001.share.json":
            "8c615b85750af04c90ba58f6955cf2737bf302b1b9a8ce1ae47b9a1bedd94512",
        "d1_002.share.json":
            "1f2a9693498f88e40d04b21aedb335cb2d0e54176ea0824dd35488b6f9dde595",
        "d1_003.share.json":
            "2d4c28088c2eb2be872c9bd30150fe83ac63512f9e2b9aa7f311304b22b68226",
        "d2_001.share.json":
            "a50d5d27c301071a3b562a9971612ef300cd29be7b1a9032bd4c97f141b8a5fa",
        "d2_002.share.json":
            "b78d40c460549ea275ddaab452d4e84d39622c287e044d72f12f63b9a4c03d5c",
        "d2_003.share.json":
            "8ddc36a997e3ff007b82c2fba74928064897bdac53a733095b037c15866120a4",
        "m_001.share.json":
            "15eb76de5189255b37aeb8db88b505c484953622cf6b554239bd3be4bf951884",
        "m_002.share.json":
            "2293869b0b061f68c05a538f0f28943a6e351b316941d622a570672812b4ba36",
        "m_003.share.json":
            "0ec402f657c0202a1e2a11d160b08d6ef9c7e3da8c99794b3e02d7b6774da463",
        "manifest.json":
            "ad9e49c2dd7a8abd3c20f38b1b5a568649066b8b43931c63c9162b82f2dc40ce",
    }
    # The same files in share format v2: the same values, each at the
    # fixed width, the manifest unchanged.
    SHARE_DIR_V2 = {
        "d1_001.share.json":
            "c47bd0cc09f27a1f39239cd37352c51eb355062205bf8b4e7f830101e7f0a474",
        "d1_002.share.json":
            "8a8226747cdbb2ae18c7af7f311f9c6344c3e8444ace838289e25a5f7f0f0c7c",
        "d1_003.share.json":
            "5cd6b8997f4547cc174f54a653fbabf3af00be56b57947e07e29efe5664573b9",
        "d2_001.share.json":
            "a6859369b59008bec59a96f73753b2fd80b28c100404e5d0632ca26991df579b",
        "d2_002.share.json":
            "fa48b45000c44048afc38aa1761f7adc49ef8f2010a451846e69c9c9be20a274",
        "d2_003.share.json":
            "fb551ee9eba4536da39addf55ee66a607629f03c7fd76e4e42e0bee6b79e58fa",
        "m_001.share.json":
            "d079e59ba46d1683a8cf0dd29644eecd12eaabdf68327153949c751253189ffe",
        "m_002.share.json":
            "416e3f96b726ecb6468c70721faa21485fcdb3b21642a2ce1330129b7783dfa8",
        "m_003.share.json":
            "c357f9e65165b14ce128f348129de4715fe8b01865cc0aba1dabd6420110f525",
        "manifest.json": SHARE_DIR["manifest.json"],
    }
    RECONSTRUCTED = (
        "d00328c552c71961af61bfda0ec83b27b8018038e54d00349ac265778e0d5a58")
    SIMULATE = {
        "report.json":
            "47e7438aaf81d56437cd389c7dd6f3d055f7b46f4e39a2df7601eef968fbbe37",
        "world.state":
            "ed4f0a0d9aad350260292c8810f6c753b38d2d4b1e6e1736ce972aa1808cc452",
    }
    # A schedule through every way the simulator's adversary captures a
    # value: a leak before the HNDL switch, a refresh under compromise, a
    # release and then a failure, a network compromise over a node already
    # held, two HNDL switches with a classical send between them, and an
    # adversary attempt after each step. Recorded before the simulator
    # kept its captures as one list.
    ADVERSARY = {"event": "attempt_reconstruct", "actor": "adversary"}
    CAPTURES = [
        {"event": "deal"},
        {"event": "compromise_node", "network": "d1", "node": 1},
        {"event": "compromise_node", "network": "m", "node": 1},
        ADVERSARY,
        {"event": "refresh"},
        ADVERSARY,
        {"event": "release_node", "network": "m", "node": 1},
        {"event": "fail_node", "network": "m", "node": 1},
        {"event": "refresh"},
        ADVERSARY,
        {"event": "compromise_node", "network": "d2", "node": 2},
        {"event": "compromise_network", "network": "d2"},
        ADVERSARY,
        {"event": "hndl_decrypt_classical"},
        ADVERSARY,
        {"event": "refresh"},
        {"event": "hndl_decrypt_classical"},
        ADVERSARY,
        {"event": "compromise_node", "network": "m", "node": 2},
        ADVERSARY,
        {"event": "compromise_node", "network": "m", "node": 3},
        ADVERSARY,
        {"event": "attempt_reconstruct", "actor": "owner"},
    ]
    SIMULATE_CAPTURES = {
        "report.json":
            "24268c043f3b3b543b0a9b2efa9cc5bc6b1de6052e1e49bad91f71bb9f0e24b0",
        "world.state":
            "3b56d709b67dca7660a7e806957c3e6e6d4babb77599abdc4545f30532fe5765",
    }
    # The example scenario at q = 65537 with a secret of 5,002 chunks, two
    # draw blocks, dealt and refreshed by one call each.
    TWO_BLOCKS_SECRET = hashlib.shake_256(
        b"multishare golden q65537 simulate").digest(10_000)
    SIMULATE_TWO_BLOCKS = {
        "report.json":
            "aee67bd9aa121e01972a18b1118e232b4b6783e0bd20c1d7d1f3cd360ec8e0d0",
        "world.state":
            "035608ea1f65252f6df0aa3b6abd8f26a3d3bedf93d67d2ea2259dee994ca7e3",
    }

    # The mother second, daughters of inner degree 0 to 2, outer degree 2,
    # at q = 65537: two-byte chunks, 5,002 of them, two draw blocks. Pins
    # where each network's inner secret lands, which the example (mother
    # first, one derivative point) cannot.
    SPREAD_TOPOLOGY = {
        "format_version": 1, "modulus": "10001", "outer_degree": 2,
        "networks": [
            {"id": "d1", "node_count": 3, "inner_degree": 1,
             "link": "Classical", "mother": False},
            {"id": "m", "node_count": 4, "inner_degree": 2, "link": "ITS",
             "mother": True},
            {"id": "d2", "node_count": 2, "inner_degree": 0,
             "link": "Classical", "mother": False},
            {"id": "d3", "node_count": 3, "inner_degree": 2,
             "link": "Classical", "mother": False}]}
    SPREAD_SECRET = hashlib.shake_256(b"multishare golden q65537").digest(
        10_000)
    SPREAD_DEALT = {
        "d1_001.share.json":
            "c095fb490b30412fa8dc4d3ae8a8c7f30715720276a3dc19fb6696dae1f9ae00",
        "d1_002.share.json":
            "08919ddaf321ba9ab542ccb011526db856f74bd7c8bfb783657f8789733cdd84",
        "d1_003.share.json":
            "5fa08323ca3176228e86c5f66deb585b10a0cb28d9ac9f46bd9f70e0e4722ab5",
        "d2_001.share.json":
            "60d74b21124fc75d4b383e0a30dd18662caa4f600655e786982072e0509f6391",
        "d2_002.share.json":
            "1d7766231dd8f20a02448218d4c12afdd1902d74ece831f0ebd3e565c1e8c2c1",
        "d3_001.share.json":
            "9cb079da947aa65c2caf9015eac975fc26536fba8a14750ccc96c2ceb8fed3a0",
        "d3_002.share.json":
            "1379cd4e2e7430dd747dd493c9848e47b558f5ac79345c39f2c2092caea5c738",
        "d3_003.share.json":
            "1d872b349a89f91b4431dc3fdef4bd4f8ff4a4558f94f52aa1f7a93e57a2d256",
        "m_001.share.json":
            "38dce9ba5279d47cc258b915c286a9686c08d2a6e45e8f2ddde0d067780503ed",
        "m_002.share.json":
            "758e7ddcc1bfddb42c97f1c63bd2320d21a46eab89210a54e03e9bf979bdc1b7",
        "m_003.share.json":
            "a32d7deaa355df1dd0e7ca6260248c6561d990cd1c0abad0ba8b26ce7e69eeaf",
        "m_004.share.json":
            "b8e6b4bfacec1fdae649813cb0d60434112eea93f2c09eb5eee2219c3c06c7c9",
        "manifest.json":
            "794cdf8b467030274fbbc8cbea7213df37ad7262191b087b06b8db5b47f9d115",
    }
    SPREAD_REFRESHED = {
        "d1_001.share.json":
            "8cd277f21f743008dfa3e9c5a86f437a1888e43c16e77f94ac8d27a95bf1991b",
        "d1_002.share.json":
            "c8c420f1608d581645f1ea9fb20e8284c6a17d415d86a44f5eb59c5c0005b6b1",
        "d1_003.share.json":
            "5f24a010db469edb6b5d65a867b1c8e09e718fe60c7982da82a6e777458246c0",
        "d2_001.share.json":
            "db48f7a35ca60fef4854018c5015c35143aedab67b528b769eaa57bcb1f65749",
        "d2_002.share.json":
            "f6077fd10eb33ccc7063b4b0ca3ea8c7e6dd649f146b29f7fb1759530297ceb2",
        "d3_001.share.json":
            "9fe3fddc7ce0ccee796d44bc25a579ec1678e5accb4b847694a90eedc9f307c3",
        "d3_002.share.json":
            "fa57b605924045bc198b735d4030d455740a703acf5f26948c22d9833d25a564",
        "d3_003.share.json":
            "c4eeb9e458160ff98f606907fa1fbe9b346ad51ea2617ae9a59c119ebe772f8a",
        "m_001.share.json":
            "a77a8238b3696b712322480cc9db589b350d346dd16ce8094e21f2d3515debe8",
        "m_002.share.json":
            "33e6d2c7c83cc61eb5072f51a216addd733c203810c752e5cb47128d338b2429",
        "m_003.share.json":
            "c161eb3e0408d3d5e525d4bcc07e5eea8e2a864468ec26f26866b52a0875394f",
        "m_004.share.json":
            "f105264749f48130c72001a79f1ef8c8c3689e93e9d4119fca7e078d4ecd637a",
        "manifest.json":
            "d0ad4b9749319ddd5fb5b701c89f7880d9ad642874af6b0ad3965d0bf9ccf863",
    }

    # SPREAD_DEALT and SPREAD_REFRESHED in share format v2.
    SPREAD_DEALT_V2 = {
        "d1_001.share.json":
            "a562c78d40b0a18e102d72896ee18af13181dad3d1edb4cb756859d330ef0d9d",
        "d1_002.share.json":
            "c960bca7b3fd21af6f1d61a65787b3afcbc0d9c932fe2cca2ef3a80d34eb35ad",
        "d1_003.share.json":
            "0e6ba0b8715a8c0cb9fe36e4a9ce5ba05f69250d467bff64b9c49ab3dfd4ca11",
        "d2_001.share.json":
            "f63114bb890937e392e603b0fb10e0037a497d568aba2c5fb4356384234d1f7d",
        "d2_002.share.json":
            "a9e7cee134b02314fcf559e9f190c0c97139591e1a47801b94820e1cc33d2f1a",
        "d3_001.share.json":
            "777f0e7f68bb879143029ac2f58066fffc40e64af26965d9f5a59d304363db19",
        "d3_002.share.json":
            "221c5f2fcf8997e7ccdbe6a1dfbbcc5ee4ab4744e84f7aad91d4f28ead92e7a8",
        "d3_003.share.json":
            "4c390f912dcfa862712c0569ddfb644c1f2fe6249dc174892b02fed47590f785",
        "m_001.share.json":
            "a70af0595b21ca888f785097c7f9e355ea9836e9d64628bd53edae979d519be9",
        "m_002.share.json":
            "2771922e360f714cb5d2d5703af6a01fec474b97034cded39518b792578688bd",
        "m_003.share.json":
            "59c3860606feddfa2d807c6991a539f0778bfc21934f7839c1d63cade9e8a614",
        "m_004.share.json":
            "1c0f6cfe93f747fd61ba04066c88976e2726088f117d90ff200c3db34243d64d",
        "manifest.json": SPREAD_DEALT["manifest.json"],
    }
    SPREAD_REFRESHED_V2 = {
        "d1_001.share.json":
            "ba3835e26405824508a6fac2375d8a23198c56ef5d80a9855bcbeb4425d5c19c",
        "d1_002.share.json":
            "15d0d91556155b5abcd45a64b15b39574648fac062d93e6ff9ce053fc4926c37",
        "d1_003.share.json":
            "f56f022d14a9e9db5e580c2c42a1686cf48c2779c16fdbb71221424a8da46e7c",
        "d2_001.share.json":
            "bf13f7f06739112862ad27d81d1ebfa1059a5cad0f3a29d8bad64b2e48c83c16",
        "d2_002.share.json":
            "484c03ca980d97dd698ac69462449d194ded4f09942a213a652a5a23f5a94883",
        "d3_001.share.json":
            "fda7f515c744210918eb0c6a75e84f6d4ffbc62131b7682c036d7c5af7bd6278",
        "d3_002.share.json":
            "59ec6944b4324a2cf39e1daf09ac0d35252b270da78f8c153ed2f0ccc0be1d85",
        "d3_003.share.json":
            "002a2d8e042fbbf38497605b9c91796b6deb26cba99db1d1629cb412fe854e91",
        "m_001.share.json":
            "720dbc437f1d05d62c690547c820b4e905738bf8055610accbb2effb06fa3625",
        "m_002.share.json":
            "603daac957b30c74bf032fc44a0500be957a313c2fcb1dd643d5a5f9bd475798",
        "m_003.share.json":
            "0a3a2af447420fe670930472e343e62d49f87777a670619eca693bc8a914d0c4",
        "m_004.share.json":
            "cdb86dee7f4d19399ef4674af6b7d9b42ba3bccfe079e17add12342923c7888d",
        "manifest.json": SPREAD_REFRESHED["manifest.json"],
    }

    @staticmethod
    def digests(directory: Path) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.iterdir())}

    @staticmethod
    def v1_digests(directory: Path, q: int) -> dict:
        """The digests of the files in `directory`, each share file
        re-encoded by the v1 writer of tests/reference.py: those of the
        files the values were recorded in, before share format v2."""
        out = {}
        for p in sorted(directory.iterdir()):
            data = p.read_bytes()
            if p.name.endswith(".share.json"):
                data = reference.share_bytes_v1(
                    formats.share_from_dict(json.loads(data), q), q)
            out[p.name] = hashlib.sha256(data).hexdigest()
        return out

    def test_mother_not_first(self, tmp_path, monkeypatch):
        topology, secret = tmp_path / "topology.json", tmp_path / "secret.bin"
        topology.write_text(json.dumps(self.SPREAD_TOPOLOGY))
        secret.write_bytes(self.SPREAD_SECRET)
        shares = tmp_path / "shares"
        assert run(["deal", "--topology", topology, "--secret", secret,
                    "--out", shares, "--seed", "4"]) == 0
        assert self.digests(shares) == self.SPREAD_DEALT_V2
        assert self.v1_digests(shares, 65537) == self.SPREAD_DEALT
        with fixed_draws(monkeypatch, 5):
            assert run(["refresh", "--topology", topology, "--shares",
                        shares]) == 0
        assert self.digests(shares) == self.SPREAD_REFRESHED_V2
        assert self.v1_digests(shares, 65537) == self.SPREAD_REFRESHED
        out = tmp_path / "out.bin"
        assert run(["reconstruct", "--topology", topology, "--shares",
                    shares, "--out", out]) == 0
        assert out.read_bytes() == self.SPREAD_SECRET

    @staticmethod
    def reference_digests(topology_doc, secret, deal_seed, refresh_seed):
        """The digests of the files that the per-chunk reference deals and
        refreshes (tests/reference.py), written whole: {name: digest}
        after the deal and after the refresh."""
        topology = formats.topology_from_dict(topology_doc)
        q = topology.modulus
        chunks = encode_secret(secret, q)
        digest = formats.topology_digest(topology)

        def files(shares, epoch):
            out = {f"{nid}_{s.node_index:03d}.share.json":
                   hashlib.sha256(reference.share_bytes_v1(s, q)).hexdigest()
                   for nid, lst in shares.items() for s in lst}
            out["manifest.json"] = hashlib.sha256(formats.canonical_json(
                formats.manifest_dict(digest, len(chunks), epoch, []))
                + b"\n").hexdigest()
            return dict(sorted(out.items()))

        dealt = reference.deal(chunks, topology, deterministic_rng(deal_seed))
        deltas = reference.refresh(topology, len(chunks), 0,
                                   deterministic_rng(refresh_seed))
        refreshed = {nid: [reference.apply_node_refresh(s, d, q)
                           for s, d in zip(lst, deltas[nid])]
                     for nid, lst in dealt.items()}
        return files(dealt, 0), files(refreshed, 1)

    def test_reference_reproduces_share_digests(self):
        # The digests above, which the CLI writes block by block, are
        # those of the per-chunk reference, which shares none of the
        # package's sharing code and draws in the same block order.
        example = json.loads(
            (ROOT / "docs" / "examples" / "topology.json").read_text())
        assert self.reference_digests(example, self.SECRET, 1, 2)[1] == \
            self.SHARE_DIR
        assert self.reference_digests(self.SPREAD_TOPOLOGY,
                                      self.SPREAD_SECRET, 4, 5) == (
            self.SPREAD_DEALT, self.SPREAD_REFRESHED)

    def test_deal_refresh_reconstruct(self, tmp_path, monkeypatch):
        topology = ROOT / "docs" / "examples" / "topology.json"
        secret, shares = tmp_path / "secret.bin", tmp_path / "shares"
        secret.write_bytes(self.SECRET)
        assert run(["deal", "--topology", topology, "--secret", secret,
                    "--out", shares, "--seed", "1"]) == 0
        with fixed_draws(monkeypatch, 2):
            assert run(["refresh", "--topology", topology, "--shares",
                        shares]) == 0
        assert self.digests(shares) == self.SHARE_DIR_V2
        assert self.v1_digests(shares, DEFAULT_MODULUS) == self.SHARE_DIR
        out = tmp_path / "out.bin"
        assert run(["reconstruct", "--topology", topology, "--shares",
                    shares, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            self.RECONSTRUCTED

    def test_simulate(self, tmp_path):
        example = ROOT / "docs" / "examples" / "scenario.json"
        doc = json.loads(example.read_text())
        captures = tmp_path / "captures.json"
        captures.write_text(json.dumps({**doc, "schedule": self.CAPTURES}))
        two_blocks = tmp_path / "two_blocks.json"
        two_blocks.write_text(json.dumps({
            **doc, "topology": {**doc["topology"], "modulus": "10001"},
            "secret_hex": self.TWO_BLOCKS_SECRET.hex()}))
        for scenario, seed, want in (
                (example, "3", self.SIMULATE),
                (captures, "5", self.SIMULATE_CAPTURES),
                (two_blocks, "7", self.SIMULATE_TWO_BLOCKS)):
            out = tmp_path / scenario.stem
            out.mkdir()
            assert run(["simulate", "--scenario", scenario, "--seed", seed,
                        "--state", out / "world.state",
                        "--report", out / "report.json"]) == 0
            assert self.digests(out) == want, scenario.stem


class TestDocumentedExamples:
    """The documented formats load through the same code the CLI uses."""

    def test_formats_md_topology(self, tmp_path):
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text[text.index("## Topology file"):]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "topology.json"
        path.write_text(example)
        assert run(["thresholds", "--topology", path]) == 0

    def test_formats_md_share(self, tmp_path):
        # The documented share file, written in the tools' layout, has
        # the documented size and reads back its values.
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text[text.index("## Share file"):]
        example = json.loads(
            re.search(r"```json\n(.*?)```", section, re.S).group(1))
        path = tmp_path / "d1_002.share.json"
        path.write_bytes(formats.canonical_json(example) + b"\n")
        assert f"this file has {path.stat().st_size} bytes" in section
        share = formats.read_share(path, DEFAULT_MODULUS)
        assert share.values[0:2] == [int(v, 16) for v in example["values"]]

    def test_formats_md_state(self, tmp_path):
        # The documented payload is the one the documented scenario saves
        # at --seed 3, the example topology in place of its placeholder.
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text[text.index("## Simulator state file"):]
        example = json.loads(
            re.search(r"```json\n(.*?)```", section, re.S).group(1))
        example["topology"] = json.loads(
            (ROOT / "docs" / "examples" / "topology.json").read_text())
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario",
                    ROOT / "docs" / "examples" / "scenario.json",
                    "--seed", "3", "--state", state,
                    "--report", tmp_path / "report.json"]) == 0
        assert json.loads(state.read_bytes()[12:]) == example

    def test_formats_md_events(self):
        # The documented event table names each kind and the fields it
        # takes, as simnet.EVENTS states them.
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text[text.index("Event kinds"):text.index("## Report")]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M)
        assert {kind: tuple(re.findall(r"`(\w+)`", cell))
                for kind, cell in rows} == {
            kind: fields for kind, (_, fields) in EVENTS.items()}
        assert len(rows) == len(EVENTS)

    def test_readme_library(self):
        # The README's library example runs as written, so a name that
        # leaves the package cannot stay in it.
        text = (ROOT / "README.md").read_text()
        section = text[text.index("## Library"):]
        example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(example, "README.md", "exec"), {})

    def test_example_topology(self):
        assert run(["thresholds", "--topology",
                    ROOT / "docs" / "examples" / "topology.json"]) == 0

    def test_example_scenario(self, tmp_path, capsys):
        assert run(["simulate", "--scenario",
                    ROOT / "docs" / "examples" / "scenario.json",
                    "--report", tmp_path / "report.json"]) == 0
        assert "adversary: Reconstructs" in capsys.readouterr().out



def _int_in(value, valid: range) -> bool:
    """Whether value is a JSON integer (not a bool, float or string) in
    `valid`, as the topology and scenario parsers require."""
    return type(value) is int and value in valid


def _is_valid_modulus(value):
    q = _hex_value(value) if isinstance(value, str) else None
    return q is not None and q >= 257 and is_probable_prime(q)


# Numbers JSON_VALUES lacks: json.loads reads Infinity and NaN.
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])


def malformed_topologies(topology):
    """Topology documents (dicts or other JSON values), each invalid one
    way, built from the valid topology dict `topology`."""
    nets = topology["networks"]
    ids = [n["id"] for n in nets]
    q = int(topology["modulus"], 16)

    def setter(path):
        return lambda v: at(topology, path, v)

    def bad_int(valid):
        return (JSON_VALUES.filter(lambda v: not _int_in(v, valid))
                | NON_FINITE)

    per_network = []
    for i, net in enumerate(nets):
        keys = ["id", "node_count", "inner_degree", "link", "mother"]
        per_network += [
            st.sampled_from(keys).map(
                lambda k, i=i: at(topology, ["networks", i, k], DELETE)),
            (JSON_VALUES.filter(lambda v: not isinstance(v, str))
             | st.sampled_from([x for x in ids if x != net["id"]]
                               + ESCAPING_IDS)).map(
                setter(["networks", i, "id"])),
            (bad_int(range(net["inner_degree"] + 1, q))
             | st.integers(min_value=q)).map(
                setter(["networks", i, "node_count"])),
            bad_int(range(net["node_count"])).map(
                setter(["networks", i, "inner_degree"])),
            JSON_VALUES.filter(lambda v, w=net["link"]: v != w).map(
                setter(["networks", i, "link"])),
            JSON_VALUES.filter(lambda v, m=net["mother"]: v is not m).map(
                setter(["networks", i, "mother"])),
            JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(
                setter(["networks", i])),
        ]
    return st.one_of(
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(["format_version", "modulus", "networks",
                         "outer_degree"]).map(
            lambda k: at(topology, [k], DELETE)),
        JSON_VALUES.filter(lambda v: not _int_in(v, range(1, 2))).map(
            setter(["format_version"])),
        JSON_VALUES.filter(lambda v: not _is_valid_modulus(v)).map(
            setter(["modulus"])),
        bad_int(range(1, len(nets))).map(setter(["outer_degree"])),
        JSON_VALUES.map(setter(["networks"])),
        *per_network)


def malformed_scenarios(scenario):
    """Scenario documents, each invalid one way, built from the valid
    scenario dict `scenario`."""

    def setter(path):
        return lambda v: at(scenario, path, v)

    def not_hex(value):
        # The documented grammar: lowercase hex, two digits a byte.
        return not (isinstance(value, str)
                    and re.fullmatch("(?:[0-9a-f]{2})*", value))

    schedule = scenario["schedule"]
    ids = [n["id"] for n in scenario["topology"]["networks"]]
    nodes = scenario["topology"]["networks"][1]["node_count"]
    node_events = ["compromise_node", "release_node", "fail_node"]
    return st.one_of(
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(sorted(scenario)).map(
            lambda k: at(scenario, [k], DELETE)),
        malformed_topologies(scenario["topology"]).map(setter(["topology"])),
        # A prime too small to carry byte chunks.
        st.integers(5, 2**16 - 1).filter(is_probable_prime).map(
            lambda q: format(q, "x")).map(setter(["topology", "modulus"])),
        JSON_VALUES.filter(not_hex).map(setter(["secret_hex"])),
        JSON_VALUES.filter(lambda v: v not in ("", [], {})).map(
            setter(["schedule"])),
        st.tuples(st.integers(0, len(schedule) - 1), JSON_VALUES).map(
            lambda iv: at(scenario, ["schedule", iv[0]], iv[1])),
        st.tuples(st.integers(0, len(schedule) - 1),
                  JSON_VALUES.filter(lambda v: not isinstance(v, str)
                                     or v not in EVENTS)).map(
            lambda iv: at(scenario, ["schedule", iv[0], "event"], iv[1])),
        st.tuples(st.sampled_from(node_events), st.sampled_from(ids),
                  JSON_VALUES.filter(
                      lambda v: not _int_in(v, range(1, nodes + 1)))
                  | NON_FINITE).map(
            lambda enj: {**scenario, "schedule": schedule + [
                {"event": enj[0], "network": enj[1], "node": enj[2]}]}),
        st.tuples(st.sampled_from(["compromise_network", *node_events]),
                  JSON_VALUES.filter(lambda v: v not in ids)).map(
            lambda ev: {**scenario, "schedule": schedule + [
                {"event": ev[0], "network": ev[1], "node": 1}]}),
        # An actor that is neither owner nor adversary.
        (JSON_VALUES.filter(lambda v: v not in ("owner", "adversary"))
         | st.sampled_from(["owner ", "Adversary", "OWNER"])).map(
            lambda v: {**scenario, "schedule": schedule + [
                {"event": "attempt_reconstruct", "actor": v}]}),
        # A field the event's kind does not take.
        st.tuples(st.integers(0, len(schedule) - 1),
                  st.text(max_size=8) | st.sampled_from(
                      ["network", "node", "nodes", "actor", "actr"]),
                  JSON_VALUES).filter(
            lambda ikv: ikv[1] not in {
                "event", *EVENTS[schedule[ikv[0]]["event"]][1]}).map(
            lambda ikv: at(scenario, ["schedule", ikv[0], ikv[1]],
                           ikv[2])),
        # A refresh before the deal, or with no deal at all.
        st.integers(0, len(schedule)).map(
            lambda i: {**scenario, "schedule": [
                ev for ev in schedule[:i] if ev["event"] != "deal"]
                + [{"event": "refresh"}] + schedule[i:]}),
    )


def malformed_states(state):
    """Simulator state payloads, each invalid one way, built from the
    valid state dict `state`: not one of them loads."""

    def setter(path):
        return lambda v: at(state, path, v)

    history = state["history"]
    ids = [n["id"] for n in state["topology"]["networks"]]
    nodes = state["topology"]["networks"][1]["node_count"]
    node_events = ["compromise_node", "release_node", "fail_node"]

    def inserted(i_event):
        i, event = i_event
        return {**state, "history": history[:i] + [event] + history[i:]}

    def canonical_hex(value):
        return (isinstance(value, str)
                and re.fullmatch("(?:[0-9a-f]{2})*", value) is not None)

    return st.one_of(
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(sorted(state)).map(
            lambda k: at(state, [k], DELETE)),
        st.tuples(st.text(max_size=8).filter(lambda k: k not in state),
                  JSON_VALUES).map(lambda kv: {**state, kv[0]: kv[1]}),
        JSON_VALUES.filter(lambda v: not _int_in(v, range(2, 3))).map(
            setter(["version"])),
        malformed_topologies(state["topology"]).map(setter(["topology"])),
        st.integers(5, 2**16 - 1).filter(is_probable_prime).map(
            lambda q: format(q, "x")).map(setter(["topology", "modulus"])),
        JSON_VALUES.filter(lambda v: not canonical_hex(v)).map(
            setter(["secret"])),
        (JSON_VALUES.filter(lambda v: type(v) is not int)
         | NON_FINITE).map(setter(["seed"])),
        JSON_VALUES.filter(lambda v: not isinstance(v, list)).map(
            setter(["history"])),
        st.tuples(st.integers(0, len(history) - 1), JSON_VALUES).map(
            lambda iv: at(state, ["history", iv[0]], iv[1])),
        st.tuples(st.integers(0, len(history) - 1),
                  JSON_VALUES.filter(lambda v: not isinstance(v, str)
                                     or v not in EVENTS)
                  | st.just("attempt_reconstruct")).map(
            lambda iv: at(state, ["history", iv[0], "event"], iv[1])),
        st.tuples(st.integers(0, len(history) - 1),
                  st.text(max_size=8).filter(
                      lambda k: k not in ("event", "network", "node")),
                  JSON_VALUES).map(
            lambda ikv: at(state, ["history", ikv[0], ikv[1]], ikv[2])),
        st.tuples(st.integers(1, len(history)),
                  st.tuples(st.sampled_from(node_events),
                            st.sampled_from(ids),
                            JSON_VALUES.filter(
                                lambda v: not _int_in(v, range(1, nodes + 1)))
                            | NON_FINITE).map(
                      lambda enj: {"event": enj[0], "network": enj[1],
                                   "node": enj[2]})).map(inserted),
        st.tuples(st.integers(1, len(history)),
                  st.tuples(st.sampled_from(["compromise_network",
                                             *node_events]),
                            JSON_VALUES.filter(lambda v: v not in ids)).map(
                      lambda ev: {"event": ev[0], "network": ev[1],
                                  "node": 1})).map(inserted),
        # A second deal anywhere; a refresh before the deal.
        st.tuples(st.integers(0, len(history)),
                  st.just({"event": "deal"})).map(inserted),
        st.just(inserted((0, {"event": "refresh"}))),
    )


def malformed_manifests(manifest):
    """Manifest documents that do not name the topology of the valid
    manifest dict `manifest`, or whose epoch is not an integer, or whose
    format_version is not the integer 1."""
    digest = manifest["topology_digest"]
    return st.one_of(
        JSON_VALUES.filter(lambda v: type(v) is not int).map(
            lambda v: {**manifest, "epoch": v}),
        JSON_VALUES.filter(lambda v: type(v) is not int or v != 1).map(
            lambda v: {**manifest, "format_version": v}),
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(sorted(manifest)).map(
            lambda k: at(manifest, [k], DELETE)).filter(
            lambda m: not {"topology_digest", "format_version"} <= set(m)),
        (JSON_VALUES | st.text("0123456789abcdef", min_size=64, max_size=64)
         | st.just(digest.upper())).filter(lambda v: v != digest).map(
            lambda v: {**manifest, "topology_digest": v}),
    )


class TestMalformedJson:
    """Every JSON file the CLI reads maps a malformed document to exit 2,
    never a traceback."""

    EXAMPLES = ROOT / "docs" / "examples"

    @pytest.mark.parametrize("edit", [
        lambda t: [],
        lambda t: {**t, "networks": [1, 2]},
        lambda t: at(t, ["networks", 1, "id"], ["d1"]),  # unhashable
        lambda t: at(t, ["networks", 1, "id"], 7),
        lambda t: at(t, ["networks", 1, "node_count"], float("inf")),
        lambda t: DEEP.encode(),
        lambda t: at(t, ["networks", 1, "node_count"], 3.9),
        lambda t: at(t, ["networks", 1, "node_count"], "3"),
        lambda t: at(t, ["networks", 1, "inner_degree"], 1.5),
        lambda t: at(t, ["outer_degree"], True),
        lambda t: at(t, ["format_version"], 1.0),
        lambda t: at(t, ["format_version"], 2),
        lambda t: at(t, ["networks", 1, "node_count"], 0),
        lambda t: at(t, ["networks", 1, "inner_degree"], -1),
        lambda t: at(t, ["networks", 0, "mother"], 1),
        lambda t: at(t, ["networks", 1, "mother"], None),
        *(lambda t, i=i: at(t, ["networks", 1, "id"], i)
          for i in ESCAPING_IDS),
        *(lambda t, spell=spell: at(t, ["modulus"],
                                          spell(t["modulus"]))
          for spell in NONCANONICAL_HEX.values()),
    ], ids=["not-an-object", "networks-not-objects", "id-list", "id-int",
            "node_count-inf", "deep", "node_count-float", "node_count-str",
            "inner_degree-float", "outer_degree-bool", "format_version-float",
            "format_version-2", "node_count-0", "inner_degree-neg",
            "mother-int", "mother-null", "id-slash", "id-nul", "id-surrogate",
            *(f"modulus-{name}" for name in NONCANONICAL_HEX)])
    def test_topology_exit2(self, tmp_path, edit):
        data = json.loads((self.EXAMPLES / "topology.json").read_text())
        path = tmp_path / "t.json"
        path.write_bytes(_encode(edit(data)))
        assert run(["thresholds", "--topology", path]) == 2

    @pytest.mark.parametrize("edit", [
        lambda s: at(s, ["topology", "modulus"], "101"),  # 257
        lambda s: at(s, ["schedule", 1, "event"], ["refresh"]),
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "fail_node", "network": "d1", "node": float("inf")}]},
        lambda s: DEEP.encode(),
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "compromise_node", "network": "d1", "node": 1.7}]},
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "release_node", "network": "d1", "node": "1"}]},
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "fail_node", "network": "d1", "node": True}]},
        lambda s: at(s, ["topology", "networks", 2, "node_count"],
                           3.0),
        lambda s: {**s, "schedule": [
            {"event": "compromise_node", "network": "m", "node": 1},
            {"event": "refresh"}, {"event": "deal"}]},
        # Spellings bytes.fromhex takes but the hex grammar does not.
        lambda s: {**s, "secret_hex": " ".join(
            s["secret_hex"][i:i + 2]
            for i in range(0, len(s["secret_hex"]), 2))},
        lambda s: {**s, "secret_hex": s["secret_hex"] + "\n"},
        lambda s: {**s, "secret_hex": s["secret_hex"].upper()},
        lambda s: {**s, "secret_hex": s["secret_hex"] + "a"},
        *(lambda s, i=i: at(s, ["topology", "networks", 1, "id"], i)
          for i in ESCAPING_IDS),
    ], ids=["modulus-257", "event-list", "node-inf", "deep", "node-float",
            "node-str", "node-bool", "topology-node_count-float",
            "refresh-before-deal", "secret_hex-spaces", "secret_hex-newline",
            "secret_hex-upper", "secret_hex-odd-length", "topology-id-slash",
            "topology-id-nul", "topology-id-surrogate"])
    def test_scenario_exit2(self, tmp_path, edit):
        data = json.loads((self.EXAMPLES / "scenario.json").read_text())
        path = tmp_path / "s.json"
        path.write_bytes(_encode(edit(data)))
        report = tmp_path / "r.json"
        assert run(["simulate", "--scenario", path, "--report", report]) == 2
        assert not report.exists()

    @pytest.mark.hypothesis
    def test_topology_fuzz_exit2(self, tmp_path, capsys):
        valid = json.loads((self.EXAMPLES / "topology.json").read_text())
        path = tmp_path / "t.json"

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(malformed_topologies(valid).map(
            lambda d: json.dumps(d).encode()) | st.binary(max_size=40))
        def check(content):
            path.write_bytes(content)
            assert run(["thresholds", "--topology", path]) == 2

        check()
        capsys.readouterr()

    @pytest.mark.hypothesis
    def test_scenario_fuzz_exit2(self, tmp_path, capsys):
        valid = json.loads((self.EXAMPLES / "scenario.json").read_text())
        path = tmp_path / "s.json"
        report = tmp_path / "r.json"

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(malformed_scenarios(valid).map(
            lambda d: json.dumps(d).encode()) | st.binary(max_size=40))
        def check(content):
            path.write_bytes(content)
            assert run(["simulate", "--scenario", path,
                        "--report", report]) == 2
            assert not report.exists()

        check()
        capsys.readouterr()

    def _state(self, tmp_path):
        """A valid state from the documented example, and a scenario
        that runs on any state that loads."""
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", self.EXAMPLES / "scenario.json",
                    "--seed", "3", "--state", state,
                    "--report", tmp_path / "first.json"]) == 0
        data = json.loads((self.EXAMPLES / "scenario.json").read_text())
        scenario = tmp_path / "continue.json"
        scenario.write_text(json.dumps({**data, "schedule": [
            {"event": "attempt_reconstruct", "actor": "adversary"}]}))
        return state, json.loads(state.read_bytes()[12:]), scenario

    @pytest.mark.parametrize("edit", [
        lambda s: {**s, "seed": 1.9},
        lambda s: {**s, "seed": True},
        lambda s: {**s, "history": s["history"] + [
            {"event": "compromise_node", "network": "d1", "node": "1"}]},
        lambda s: {**s, "history": s["history"] + [{"event": "deal"}]},
        lambda s: {**s, "history": [{"event": "refresh"}] + s["history"]},
        lambda s: {**s, "version": 1, "epoch": 1, "chunk_count": 2,
                   "dealt": True, "hndl": True, "nodes": [],
                   "transcripts": {}, "adversary": [],
                   "rng_state": [3, [0] * 625, None]},
        lambda s: {**s, "epoch": 1.9},
        lambda s: {**s, "dealt": "no"},
    ], ids=["seed-float", "seed-bool", "node-str", "two-deals",
            "refresh-before-deal", "version-1", "epoch", "dealt"])
    def test_state_exit2(self, tmp_path, capsys, edit):
        path, state, scenario = self._state(tmp_path)
        blob = state_file(json.dumps(edit(state)).encode())
        path.write_bytes(blob)
        report = tmp_path / "r.json"
        assert run(["simulate", "--scenario", scenario, "--state", path,
                    "--report", report]) == 2
        assert "cannot load state" in capsys.readouterr().err
        assert path.read_bytes() == blob
        assert not report.exists()

    @pytest.mark.parametrize("tail", [b"", b"\0" * 7],
                             ids=["magic-only", "7-bytes"])
    def test_state_truncated_exit2(self, tmp_path, capsys, tail):
        path, state, scenario = self._state(tmp_path)
        path.write_bytes(b"MSS1" + tail)
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["simulate", "--scenario", scenario, "--state", path,
                    "--report", report]) == 2
        assert ("cannot load state: truncated state file"
                in capsys.readouterr().err)
        assert path.read_bytes() == b"MSS1" + tail
        assert not report.exists()

    @pytest.mark.hypothesis
    def test_state_fuzz_exit2(self, tmp_path, capsys):
        path, state, scenario = self._state(tmp_path)
        report = tmp_path / "r.json"

        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(malformed_states(state).map(_encode).map(state_file)
               | st.binary(max_size=40).map(state_file)
               | st.binary(max_size=40))
        def check(blob):
            path.write_bytes(blob)
            assert run(["simulate", "--scenario", scenario, "--state", path,
                        "--report", report]) == 2
            assert path.read_bytes() == blob
            assert not report.exists()

        check()
        capsys.readouterr()
