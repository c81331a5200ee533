"""The durable-file layer below the CLI: the simulator's state file, the
settle rule on directories no command leaves, the vault transaction, and
a scan that keeps every file mutation in vault.py."""

import ast
from pathlib import Path

import pytest

from multishare import vault
from multishare.errors import StorageError
from multishare.simnet import Simulation, load_state
from support import FaultyFiles, make_topology, snapshot

SRC = Path(__file__).resolve().parent.parent / "src" / "multishare"


def make_dir(path: Path, files: dict) -> Path:
    path.mkdir()
    for name, data in files.items():
        (path / name).write_bytes(data)
    return path


class TestStateFile:
    def _sim(self):
        sim = Simulation(make_topology(2**127 - 1, [(3, 1)] * 2), b"kept",
                         seed=5)
        sim.owner_store()
        return sim

    def test_save_state_is_durable(self, tmp_path, monkeypatch):
        # Written and flushed under a temporary name, renamed into place,
        # and the directory flushed.
        path = tmp_path / "w.state"
        probe = FaultyFiles()
        probe.call(monkeypatch, self._sim().save_state, path)
        assert probe.log == ["write", "fsync", "replace", "fsync"]
        assert load_state(path).to_state() == self._sim().to_state()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.state"]

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_failed_save_keeps_the_earlier_state(self, tmp_path,
                                                 monkeypatch, at):
        path = tmp_path / "w.state"
        path.write_bytes(b"earlier")
        with pytest.raises(StorageError, match="cannot write"):
            FaultyFiles(at).call(monkeypatch, self._sim().save_state, path)
        assert snapshot(tmp_path) == {"w.state": b"earlier"}


# (manifest epoch, files before) -> files after. Every staged name not of
# the manifest's epoch is deleted, whatever its epoch; without a manifest
# every staged name is.
SETTLE_TABLE = {
    "no manifest": (None, {
        "m_001.share.json": b"0",
        "m_001.share.json.staged-0": b"deal",
        "m_002.share.json.staged-1": b"refresh",
        "manifest.json.staged-0": b"manifest",
    }, {"m_001.share.json": b"0"}),
    "epoch e, staged e and e+1": (1, {
        "manifest.json": b"1",
        "m_001.share.json": b"0",
        "m_001.share.json.staged-1": b"1",
        "m_002.share.json.staged-2": b"2",
        "manifest.json.staged-2": b"2",
    }, {"manifest.json": b"1", "m_001.share.json": b"1"}),
    "other epochs": (3, {
        "manifest.json": b"3",
        "m_001.share.json": b"3",
        "m_001.share.json.staged-0": b"0",
        "m_001.share.json.staged-2": b"2",
        "d1_001.share.json.staged-7": b"7",
        "manifest.json.staged-12": b"12",
    }, {"manifest.json": b"3", "m_001.share.json": b"3"}),
    "negative epochs": (-1, {
        "manifest.json": b"-1",
        "m_001.share.json.staged--1": b"-1",
        "m_002.share.json.staged--2": b"-2",
        "m_003.share.json.staged-1": b"1",
    }, {"manifest.json": b"-1", "m_001.share.json": b"-1"}),
    "other names kept": (0, {
        "manifest.json": b"0",
        "notes.txt.staged-0": b"not a vault file",
        "m_001.share.json.tmp": b"half",
        "m_001.share.json.staged-": b"no epoch",
        "m_001.share.json.staged-x": b"no epoch",
        "m_001.share.json.staged-0": b"0",
    }, {"manifest.json": b"0",
        "notes.txt.staged-0": b"not a vault file",
        "m_001.share.json.tmp": b"half",
        "m_001.share.json.staged-": b"no epoch",
        "m_001.share.json.staged-x": b"no epoch",
        "m_001.share.json": b"0"}),
}


class TestSettle:
    @pytest.mark.parametrize("case", SETTLE_TABLE)
    def test_rule(self, tmp_path, case):
        epoch, before, after = SETTLE_TABLE[case]
        share_dir = make_dir(tmp_path / "v", before)
        paths = vault.settle(share_dir, epoch)
        assert snapshot(share_dir) == dict(sorted(after.items()))
        assert paths == sorted(share_dir.glob("*.share.json"))

    def test_flushes_once_after_settling(self, tmp_path, monkeypatch):
        _, before, _ = SETTLE_TABLE["epoch e, staged e and e+1"]
        share_dir = make_dir(tmp_path / "v", before)
        probe = FaultyFiles()
        probe.call(monkeypatch, vault.settle, share_dir, 1)
        # In name order: m_001's rename, m_002's and the manifest's
        # deletions, then the directory.
        assert probe.log == ["replace", "unlink", "unlink", "fsync"]
        probe = FaultyFiles()
        probe.call(monkeypatch, vault.settle, share_dir, 1)
        assert probe.log == []  # nothing staged, nothing flushed

    def test_failure_is_a_storage_error(self, tmp_path, monkeypatch):
        share_dir = make_dir(tmp_path / "v",
                             {"m_001.share.json.staged-0": b"0"})
        with pytest.raises(StorageError, match="cannot settle"):
            FaultyFiles(1).call(monkeypatch, vault.settle, share_dir, None)


class TestCommit:
    def test_commits_every_staged_file(self, tmp_path, monkeypatch):
        share_dir = make_dir(tmp_path / "v", {"a.share.json": b"old"})
        probe = FaultyFiles()

        def transaction():
            with vault.Commit(share_dir, 4, "refresh") as commit:
                commit.append(share_dir / "a.share.json", b"a4")
                commit.append(share_dir / "b.share.json", b"b4")
                return commit.commit(b"manifest4")

        assert probe.call(monkeypatch, transaction) == 2
        assert probe.log == (["write"] * 2 + ["fsync"] * 2
                             + ["fsync", "write", "fsync", "replace", "fsync"]
                             + ["replace"] * 2 + ["fsync"])
        assert snapshot(share_dir) == {"a.share.json": b"a4",
                                       "b.share.json": b"b4",
                                       "manifest.json": b"manifest4"}

    def test_stage_writes_blocks_in_turn(self, tmp_path):
        # Blocks appended to several staged files in turn, as deal and
        # refresh append one block of every share file at a time; the
        # first append to a staged name replaces what it held.
        share_dir = make_dir(tmp_path / "v", {
            "a.share.json.staged-0": b"left by a crash"})
        with vault.Commit(share_dir, 0, "deal") as commit:
            for block in (b"head", b"", b"values", b"end"):
                commit.append(share_dir / "a.share.json", b"a-" + block)
                commit.append(share_dir / "b.share.json", b"b-" + block)
                assert snapshot(share_dir)["b.share.json.staged-0"] == \
                    snapshot(share_dir)["a.share.json.staged-0"].replace(
                        b"a-", b"b-")
            commit.commit(b"manifest")
        assert snapshot(share_dir) == {
            "a.share.json": b"a-heada-a-valuesa-end",
            "b.share.json": b"b-headb-b-valuesb-end",
            "manifest.json": b"manifest"}

    def test_crash_in_a_stage_leaves_a_partial_file(self, tmp_path,
                                                    monkeypatch):
        # Each append is one write: a crash there leaves part of the file
        # under its staged name, which settle deletes.
        share_dir = make_dir(tmp_path / "v", {})

        def transaction():
            with vault.Commit(share_dir, 0, "deal") as commit:
                commit.append(share_dir / "a.share.json", b"head")
                commit.append(share_dir / "a.share.json", b"values")

        probe = FaultyFiles(2, crash=True)
        with pytest.raises(StorageError, match="deal failed"):
            probe.call(monkeypatch, transaction)
        assert probe.log == ["write", "write", "unlink", "unlink"]
        assert snapshot(share_dir) == {"a.share.json.staged-0": b"headval"}
        assert vault.settle(share_dir, None) == []
        assert snapshot(share_dir) == {}

    def test_leaving_before_the_commit_deletes_staged_files(self, tmp_path):
        before = {"a.share.json": b"old", "manifest.json": b"m"}
        share_dir = make_dir(tmp_path / "v", before)
        with pytest.raises(KeyError):
            with vault.Commit(share_dir, 1, "refresh") as commit:
                commit.append(share_dir / "a.share.json", b"new")
                raise KeyError("stopped")
        assert snapshot(share_dir) == before

    def test_failed_stage_names_the_command(self, tmp_path, monkeypatch):
        share_dir = make_dir(tmp_path / "v", {})

        def transaction():
            with vault.Commit(share_dir, 0, "deal") as commit:
                commit.append(share_dir / "a.share.json", b"a")
                commit.commit(b"manifest")

        with pytest.raises(StorageError,
                           match="deal failed, no file changed"):
            FaultyFiles(2).call(monkeypatch, transaction)
        assert snapshot(share_dir) == {}


class TestWriting:
    def test_error_in_the_block_keeps_the_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier")
        with pytest.raises(KeyError):
            with vault.writing(path, b"later"):
                raise KeyError("state not saved")
        assert snapshot(tmp_path) == {"report.json": b"earlier"}

    def test_appending_writes_blocks_in_turn(self, tmp_path, monkeypatch):
        # Each block is one write to PATH.tmp, which is flushed and renamed
        # once the with block completes; nothing is touched before the
        # first block, and an error after it deletes PATH.tmp.
        path = tmp_path / "secret.bin"
        probe = FaultyFiles()

        def blocks(*data):
            with vault.appending(path) as append:
                for block in data:
                    append(block)

        probe.call(monkeypatch, blocks, b"ab", b"", b"cd")
        assert probe.log == ["write"] * 3 + ["fsync", "replace", "fsync"]
        assert snapshot(tmp_path) == {"secret.bin": b"abcd"}
        blocks()
        assert snapshot(tmp_path) == {"secret.bin": b""}
        (tmp_path / "secret.bin.tmp").write_bytes(b"not ours")
        for data in ((), (b"ab",)):
            with pytest.raises(KeyError):
                with vault.appending(path) as append:
                    for block in data:
                        append(block)
                    raise KeyError("shares disagree")
            assert (tmp_path / "secret.bin.tmp").exists() == (not data)
        assert snapshot(tmp_path) == {"secret.bin": b""}
        with pytest.raises(StorageError, match="cannot write"):
            FaultyFiles(2).call(monkeypatch, blocks, b"ab", b"cd")
        assert snapshot(tmp_path) == {"secret.bin": b""}

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(StorageError, match="cannot write"):
            with vault.writing(tmp_path / "missing" / "out", b"x"):
                pass
        with pytest.raises(StorageError, match="cannot write"):
            with vault.writing(Path("."), b"x"):
                pass
        assert list(tmp_path.iterdir()) == []


# Calls that create, write, flush, rename or delete a file: functions of
# os, methods of any object, and open in a mode other than reading.
OS_MUTATIONS = {"replace", "rename", "renames", "remove", "unlink", "fsync",
                "open", "mkdir", "makedirs", "rmdir", "truncate", "write"}
METHOD_MUTATIONS = {"write_bytes", "write_text", "unlink", "mkdir", "rmdir",
                    "touch", "rename"}


def file_mutations(path: Path):
    """(line, call) for each file mutation in the module at `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name) and func.value.id == "os"
                    and func.attr in OS_MUTATIONS):
                found.append((node.lineno, f"os.{func.attr}"))
            elif func.attr in METHOD_MUTATIONS:
                found.append((node.lineno, f".{func.attr}"))
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append((node.lineno, "open"))
    return found


class TestOneFileLayer:
    def test_only_vault_mutates_files(self):
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "vault.py" in modules
        outside = {p.name: file_mutations(p) for p in modules
                   if p.name != "vault.py"}
        assert {name: calls for name, calls in outside.items()
                if calls} == {}

    def test_scan_finds_mutations(self, tmp_path):
        # The scan itself, on vault.py and on a module that writes.
        assert {call for _, call in file_mutations(SRC / "vault.py")} >= {
            "os.replace", "os.fsync", "os.open", "os.unlink", ".unlink",
            ".mkdir"}
        module = tmp_path / "m.py"
        module.write_text("open(p, 'wb'); open(p, mode='a'); open(p, m)\n"
                          "open(p); open(p, 'rb'); os.replace(a, b)\n"
                          "p.write_bytes(b); p.read_bytes()\n")
        assert sorted(file_mutations(module)) == [
            (1, "open"), (1, "open"), (1, "open"), (2, "os.replace"),
            (3, ".write_bytes")]
