import errno
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multishare.cli import main
from multishare.field import DEFAULT_MODULUS, is_probable_prime
from multishare.formats import topology_to_dict
from multishare.protocol import LinkKind, NetworkSpec, Topology
from multishare.simnet import EVENT_KINDS, load_state

ROOT = Path(__file__).resolve().parent.parent


def write_topology(path: Path, q=DEFAULT_MODULUS, outer=1,
                   counts=(3, 3, 3), degrees=(1, 1, 1)):
    nets = tuple(
        NetworkSpec(("m" if i == 0 else f"d{i}"), c, d,
                    LinkKind.ITS if i == 0 else LinkKind.CLASSICAL)
        for i, (c, d) in enumerate(zip(counts, degrees)))
    topo = Topology(q, nets, 0, outer)
    path.write_text(json.dumps(topology_to_dict(topo)))
    return topo


@pytest.fixture
def workspace(tmp_path):
    topo_path = tmp_path / "topology.json"
    write_topology(topo_path)
    secret_path = tmp_path / "secret.bin"
    secret_path.write_bytes(b"the crown jewels " * 3)
    return tmp_path, topo_path, secret_path


def run(argv):
    return main([str(a) for a in argv])


def snapshot(directory: Path) -> dict:
    """Every file in `directory`, by name."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def restore(directory: Path, files: dict) -> None:
    shutil.rmtree(directory)
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)


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

    def test_missing_topology_is_usage_error(self, workspace, capsys):
        tmp, _, secret = workspace
        with pytest.raises(SystemExit) as err:
            run(["deal", "--secret", secret, "--out", tmp / "x"])
        assert err.value.code == 64

    def test_unreadable_secret(self, workspace):
        tmp, topo, _ = workspace
        assert run(["deal", "--topology", topo,
                    "--secret", tmp / "missing.bin",
                    "--out", tmp / "shares"]) == 2

    def test_invalid_topology(self, workspace):
        tmp, _, secret = workspace
        bad = tmp / "bad.json"
        bad.write_text('{"format_version": 1}')
        assert run(["deal", "--topology", bad, "--secret", secret,
                    "--out", tmp / "shares"]) == 2

    def test_small_modulus_rejected_at_cli(self, workspace):
        tmp, _, secret = workspace
        topo_path = tmp / "small.json"
        data = topology_to_dict(write_topology(tmp / "tmp.json"))
        data["modulus"] = format(251, "x")
        topo_path.write_text(json.dumps(data))
        assert run(["deal", "--topology", topo_path, "--secret", secret,
                    "--out", tmp / "shares"]) == 2


# Any JSON document, kept small.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)


# 100,000 nested brackets, far beyond the JSON parser's recursion limit.
DEEP = b"[" * 100_000 + b"]" * 100_000


def _encode(doc) -> bytes:
    """A document as file content; bytes are taken as they are."""
    return doc if isinstance(doc, bytes) else json.dumps(doc).encode()


def _hex_value(text):
    """The value of `text` under the documented hex grammar (lowercase, no
    leading zero, "0" for zero), else None."""
    if re.fullmatch(r"0|[1-9a-f][0-9a-f]*", text):
        return int(text, 16)
    return None


# Spellings of the lowercase hex `text` that int(text, 16) reads as the
# same value, and that the file formats reject.
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
        JSON_VALUES.filter(lambda v: type(v) is not int or v != 1).map(
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
    return (documents.map(lambda d: json.dumps(d).encode())
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

    def test_quorum_exact_file_list(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        picks = [out / "m_001.share.json", out / "m_002.share.json",
                 out / "d1_001.share.json", out / "d1_003.share.json"]
        dest = tmp / "recovered.bin"
        assert run(["reconstruct", "--topology", topo, "--out", dest]
                   + picks) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_daughters_only_exit3(self, workspace, capsys):
        tmp, topo, secret, out = self._deal(workspace)
        picks = sorted(out.glob("d*.share.json"))
        assert run(["reconstruct", "--topology", topo,
                    "--out", tmp / "r.bin"] + picks) == 3
        assert "mother" in capsys.readouterr().err

    def test_epoch_mix_exit3(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        one = out / "d1_001.share.json"
        data = json.loads(one.read_text())
        data["epoch"] = 1
        one.write_text(json.dumps(data))
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 3

    def test_foreign_modulus_exit2(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        for path in out.glob("*.share.json"):
            data = json.loads(path.read_text())
            data["modulus"] = format(2**521 - 1, "x")
            path.write_text(json.dumps(data))
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2

    def test_chunk_count_mismatch_exit2(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        for path in out.glob("d1_*.share.json"):
            data = json.loads(path.read_text())
            data["values"].pop()
            data["chunk_count"] -= 1
            path.write_text(json.dumps(data))
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2

    def test_same_node_twice_exit2(self, workspace):
        tmp, topo, secret, out = self._deal(workspace)
        picks = [out / "m_001.share.json", out / "m_001.share.json",
                 out / "m_002.share.json",
                 out / "d1_001.share.json", out / "d1_002.share.json"]
        assert run(["reconstruct", "--topology", topo,
                    "--out", tmp / "r.bin"] + picks) == 2

    @pytest.mark.parametrize("field, value", [
        ("node_index", 0),
        ("node_index", 2**127),  # node 1 modulo 2^127 - 1
        ("network_id", "d9"),
    ])
    def test_share_not_a_node_exit2(self, workspace, capsys, field, value):
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        data = json.loads((out / "m_002.share.json").read_text())
        data[field] = value
        stray = tmp / "stray.share.json"
        stray.write_text(json.dumps(data))
        picks = [out / "m_001.share.json", stray,
                 out / "d1_001.share.json", out / "d1_002.share.json",
                 out / "m_003.share.json"]
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--out", dest]
                   + picks) == 2
        assert "not a node of the topology" in capsys.readouterr().err
        assert not dest.exists()

    def test_malformed_share_file_exit2(self, workspace, capsys):
        # Fuzz: one share file of a dealt directory replaced by a
        # malformed one; reconstruct and refresh must exit 2, never raise,
        # and refresh must leave the directory as it was.
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        target = out / "m_001.share.json"
        share = json.loads(target.read_text())
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
            assert run(["refresh", "--topology", topo, "--shares", out,
                        "--seed", "2"]) == 2
            assert snapshot(out) == before

        check()
        capsys.readouterr()

    def test_deeply_nested_share_exit2(self, workspace):
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        (out / "m_001.share.json").write_text("[" * 100_000 + "]" * 100_000)
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2

    @pytest.mark.parametrize("field, loosen", [
        ("values", lambda d: "abcdef"[:d["chunk_count"]]),
        ("node_index", lambda d: d["node_index"] + 0.9),
        ("node_index", lambda d: True),
        ("node_index", lambda d: str(d["node_index"])),
        ("epoch", lambda d: True),
        ("epoch", lambda d: False),
        ("chunk_count", lambda d: float(d["chunk_count"])),
        ("format_version", lambda d: True),
    ], ids=["values-string", "node_index-float", "node_index-bool",
            "node_index-string", "epoch-true", "epoch-false",
            "chunk_count-float", "format_version-bool"])
    def test_loosely_typed_share_exit2(self, workspace, field, loosen):
        # Each of these once parsed as a valid share of node m/1 (a string
        # as its characters' hex values, 1.9 and True as 1, False as 0).
        tmp, topo, secret, out = self._deal(workspace, seed="1")
        path = out / "m_001.share.json"
        data = json.loads(path.read_text())
        data[field] = loosen(data)
        path.write_text(json.dumps(data))
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2


    @pytest.mark.parametrize("spell", NONCANONICAL_HEX.values(),
                             ids=NONCANONICAL_HEX.keys())
    @pytest.mark.parametrize("field", ["values", "modulus"])
    def test_noncanonical_hex_exit2(self, workspace, field, spell):
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
        path.write_text(json.dumps(data))
        before = snapshot(out)
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2
        assert not (tmp / "r.bin").exists()
        assert run(["refresh", "--topology", topo, "--shares", out,
                    "--seed", "2"]) == 2
        assert snapshot(out) == before

    def test_one_corrupted_value_exit2(self, tmp_path, capsys):
        # d1 has three nodes and quorum two; one value of node 1 plus one
        # once decoded to "the crown jewels are in tfe tower".
        topo = ROOT / "docs" / "examples" / "topology.json"
        secret = tmp_path / "secret.bin"
        secret.write_bytes(b"the crown jewels are in the tower")
        out = tmp_path / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", out, "--seed", "1"]) == 0
        path = out / "d1_001.share.json"
        data = json.loads(path.read_text())
        value = int(data["values"][0], 16)
        data["values"][0] = format((value + 1) % DEFAULT_MODULUS, "x")
        path.write_text(json.dumps(data))
        dest = tmp_path / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 2
        err = capsys.readouterr().err
        assert "network d1" in err and "node 3" in err
        assert not dest.exists()

    def test_daughter_from_another_dealing_exit2(self, workspace, capsys):
        # d2's shares agree with one another, but they share another
        # secret: m and d1 fix the outer polynomial, which d2 contradicts.
        tmp, topo, secret, out = self._deal(workspace)
        other = tmp / "other"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", other, "--seed", "8"]) == 0
        for path in other.glob("d2_*.share.json"):
            (out / path.name).write_bytes(path.read_bytes())
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 2
        assert "network d2" in capsys.readouterr().err
        assert not dest.exists()
        # Any quorum of networks without the foreign daughter still works.
        picks = sorted(out.glob("m_*.share.json")) + sorted(
            out.glob("d1_*.share.json"))
        assert run(["reconstruct", "--topology", topo, "--out", dest]
                   + picks) == 0
        assert dest.read_bytes() == secret.read_bytes()


class TestManifest:
    """A --shares directory's manifest must name the given topology."""

    def _deal(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        other = tmp / "other.json"
        write_topology(other, outer=2)
        return tmp, topo, secret, out, other

    def test_reconstruct_other_topology_exit2(self, workspace, capsys):
        tmp, topo, secret, out, other = self._deal(workspace)
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", other, "--shares", out,
                    "--out", dest]) == 2
        assert "another topology" in capsys.readouterr().err
        assert not dest.exists()

    def test_refresh_other_topology_exit2_unchanged(self, workspace):
        tmp, topo, secret, out, other = self._deal(workspace)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(["refresh", "--topology", other, "--shares", out,
                    "--seed", "2"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("text", [
        "{not json", "[]", "{}", pytest.param(DEEP.decode(), id="deep")])
    def test_unreadable_manifest_exit2(self, workspace, text):
        tmp, topo, secret, out, _ = self._deal(workspace)
        (out / "manifest.json").write_text(text)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", tmp / "r.bin"]) == 2
        assert run(["refresh", "--topology", topo, "--shares", out]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_manifest_fuzz_exit2(self, workspace, capsys):
        # Fuzz: the manifest of a dealt directory replaced by one that does
        # not name the topology or has no integer epoch; both commands exit
        # 2 and touch no file.
        tmp, topo, secret, out, _ = self._deal(workspace)
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

    def test_missing_manifest_allowed(self, workspace):
        tmp, topo, secret, out, _ = self._deal(workspace)
        (out / "manifest.json").unlink()
        assert run(["refresh", "--topology", topo, "--shares", out,
                    "--seed", "2"]) == 0
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
        assert run(["refresh", "--topology", topo, "--shares", out,
                    "--seed", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epoch"] == 1
        dest = tmp / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()

    def test_double_refresh_epoch_two(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        run(["refresh", "--topology", topo, "--shares", out, "--seed", "2"])
        run(["refresh", "--topology", topo, "--shares", out, "--seed", "3"])
        share = json.loads((out / "m_001.share.json").read_text())
        assert share["epoch"] == 2

    def test_missing_node_flagged_stale(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        (out / "d2_002.share.json").unlink()
        assert run(["refresh", "--topology", topo, "--shares", out,
                    "--seed", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stale"] == ["d2/2"]

    def test_mixed_epoch_input_exit3(self, workspace):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        one = out / "d1_001.share.json"
        data = json.loads(one.read_text())
        data["epoch"] = 5
        one.write_text(json.dumps(data))
        assert run(["refresh", "--topology", topo, "--shares", out]) == 3

    @pytest.mark.parametrize("field, value, name", [
        ("node_index", 9, "d1_009"),
        ("network_id", "d9", "d9_003"),
        ("node_index", 3, "d1_003_copy"),
    ])
    def test_share_not_a_distinct_node_exit2_unchanged(self, workspace,
                                                       field, value, name):
        tmp, topo, secret = workspace
        out = tmp / "shares"
        run(["deal", "--topology", topo, "--secret", secret,
             "--out", out, "--seed", "1"])
        data = json.loads((out / "d1_003.share.json").read_text())
        data[field] = value
        (out / f"{name}.share.json").write_text(json.dumps(data))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(["refresh", "--topology", topo, "--shares", out,
                    "--seed", "2"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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
        assert run(["refresh", "--topology", topo, "--shares", out,
                    "--seed", "2"]) == 0
        assert not (out / "d1_003.share.json").exists()
        moved = json.loads((out / "backup-d1.share.json").read_text())
        assert (moved["network_id"], moved["node_index"]) == ("d1", 3)
        assert moved["epoch"] == 1
        dest = tmp_path / "r.bin"
        assert run(["reconstruct", "--topology", topo, "--shares", out,
                    "--out", dest]) == 0
        assert dest.read_bytes() == secret.read_bytes()
        assert run(["refresh", "--topology", topo, "--shares", out]) == 0

    def test_peak_memory_near_deal(self, tmp_path):
        # refresh holds one share's values at a time, so its peak RSS is
        # that of deal, not half as much again (all shares and all
        # deltas at once). Both commands run in fresh interpreters started
        # from a small one: a child's ru_maxrss also counts the high-water
        # RSS of the process it was started from.
        topo = tmp_path / "topology.json"
        write_topology(topo)
        secret = tmp_path / "secret.bin"
        secret.write_bytes(os.urandom(512 * 1024))
        out = tmp_path / "shares"
        measure = (
            "import os, subprocess, sys\n"
            "for argv in (sys.argv[1:8], sys.argv[8:]):\n"
            "    p = subprocess.Popen([sys.executable, '-m',"
            " 'multishare.cli', *argv], stdout=subprocess.DEVNULL)\n"
            "    _, status, usage = os.wait4(p.pid, 0)\n"
            "    assert status == 0, argv\n"
            "    print(usage.ru_maxrss)\n")
        proc = subprocess.run(
            [sys.executable, "-c", measure,
             "deal", "--topology", topo, "--secret", secret, "--out", out,
             "refresh", "--topology", topo, "--shares", out],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        deal_rss, refresh_rss = map(int, proc.stdout.split())
        assert refresh_rss <= 1.15 * deal_rss, (deal_rss, refresh_rss)


class FaultyFiles:
    """Counts the file mutations a command makes (writes, fsyncs,
    replaces and unlinks) and fails the k-th with EIO; a failed write
    leaves half its bytes. With `crash`, every later mutation fails too and
    writes nothing, as if the process had died at the k-th: the error
    path's cleanup is then skipped."""

    def __init__(self, fail_at=None, crash=False):
        self.fail_at, self.crash = fail_at, crash
        self.log = []

    def _fails(self, kind) -> bool:
        self.log.append(kind)
        k = len(self.log)
        return self.fail_at is not None and (
            k == self.fail_at or self.crash and k > self.fail_at)

    def run(self, monkeypatch, argv) -> int:
        write_bytes, fsync = Path.write_bytes, os.fsync
        replace, unlink = os.replace, Path.unlink

        def fault():
            return OSError(errno.EIO, "injected fault")

        def faulty_write_bytes(path, data):
            if self._fails("write"):
                if len(self.log) == self.fail_at:
                    write_bytes(path, data[:len(data) // 2])
                raise fault()
            return write_bytes(path, data)

        def faulty(kind, real):
            def call(*args, **kwargs):
                if self._fails(kind):
                    raise fault()
                return real(*args, **kwargs)
            return call

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_bytes", faulty_write_bytes)
            patch.setattr(Path, "unlink", faulty("unlink", unlink))
            patch.setattr(os, "fsync", faulty("fsync", fsync))
            patch.setattr(os, "replace", faulty("replace", replace))
            return run(argv)


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
        run(["refresh", "--topology", topo, "--shares", out, "--seed", "2"])
        refresh = ["refresh", "--topology", topo, "--shares", out,
                   "--seed", "3"]
        reconstruct = ["reconstruct", "--topology", topo, "--shares", out,
                       "--out", dest]

        def recovers():
            dest.unlink(missing_ok=True)
            return (run(reconstruct) == 0
                    and dest.read_bytes() == secret.read_bytes())

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
            assert FaultyFiles(at, crash=True).run(monkeypatch, refresh) == 2
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
            assert faults.run(monkeypatch, refresh) == 2, (k, faults.log)
            # Only the commit changes the manifest.
            committed = ((out / "manifest.json").read_bytes()
                         == new["manifest.json"])
            if start == "settled" and not crash and not committed:
                assert snapshot(out) == begin, k
            assert recovers(), k
            assert snapshot(out) == (new if committed else old), k
            assert run(["refresh", "--topology", topo, "--shares", out,
                        "--seed", "4"]) == 0, k
            assert recovers(), k
        capsys.readouterr()


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
        assert run(["thresholds", "--topology", small, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "DISCREPANCY: t_f1" in out

    def test_oversized_oracle_exit4(self, workspace, capsys):
        tmp, _, _ = workspace
        big = tmp / "big.json"
        # One network more than the subset walk's bound.
        write_topology(big, q=257, counts=(2,) * 13, degrees=(1,) * 13)
        assert run(["thresholds", "--topology", big, "--oracle"]) == 4
        assert "13 networks" in capsys.readouterr().err
        # An inner degree above the quorum search's bound.
        write_topology(big, q=257, counts=(102, 2, 2), degrees=(101, 1, 1))
        assert run(["thresholds", "--topology", big, "--oracle"]) == 4
        assert "inner degree up to 101" in capsys.readouterr().err

    def test_27_node_oracle_reports_discrepancy(self, workspace, capsys):
        # 27 nodes, beyond the former total-node bound of 20.
        tmp, _, _ = workspace
        big = tmp / "big.json"
        write_topology(big, q=257, counts=(9, 9, 9), degrees=(1, 1, 1))
        assert run(["thresholds", "--topology", big, "--oracle"]) == 0
        assert ("DISCREPANCY: t_f1 formula=8 exhaustive=16 (the closed form "
                "disables one daughter too few)\n"
                in capsys.readouterr().out)


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

    @pytest.mark.parametrize("event", [
        {"event": "compromise_node", "network": "d1", "node": 7},
        {"event": "fail_node", "network": "d9", "node": 1},
        {"event": "release_node", "network": "m"},
        {"event": "compromise_network", "network": "d3"},
    ])
    def test_event_target_outside_topology_exit2(self, tmp_path, event):
        data = json.loads(
            (ROOT / "docs" / "examples" / "scenario.json").read_text())
        data["schedule"].insert(2, event)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", path, "--state", state]) == 2
        assert not state.exists()
        assert not (tmp_path / "scenario.report.json").exists()

    def test_state_lacking_event_target_exit2(self, tmp_path):
        small = self._scenario(tmp_path, [{"event": "deal"}])
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", small, "--state", state]) == 0
        saved = state.read_bytes()
        data = json.loads(small.read_text())
        data["topology"]["networks"][1]["node_count"] = 4
        data["schedule"] = [
            {"event": "compromise_node", "network": "d1", "node": 4}]
        bigger = tmp_path / "bigger.json"
        bigger.write_text(json.dumps(data))
        assert run(["simulate", "--scenario", bigger,
                    "--state", state]) == 2
        assert state.read_bytes() == saved

    def test_second_deal_exit2(self, tmp_path, capsys):
        # The adversary would hold one mother share from each of two
        # independent dealings and combine them as if from one.
        data = json.loads(
            (ROOT / "docs" / "examples" / "scenario.json").read_text())
        data["schedule"] = [
            {"event": "deal"},
            {"event": "compromise_node", "network": "m", "node": 1},
            {"event": "release_node", "network": "m", "node": 1},
            {"event": "deal"},
            {"event": "compromise_node", "network": "m", "node": 2},
            {"event": "hndl_decrypt_classical"},
            {"event": "attempt_reconstruct", "actor": "adversary"},
        ]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", path, "--state", state]) == 2
        assert "dealt once" in capsys.readouterr().err
        assert not state.exists()
        assert not (tmp_path / "scenario.report.json").exists()

    def test_deal_on_dealt_state_exit2(self, tmp_path):
        first = self._scenario(tmp_path, [
            {"event": "deal"},
            {"event": "compromise_node", "network": "m", "node": 1}])
        state = tmp_path / "world.state"
        assert run(["simulate", "--scenario", first, "--state", state]) == 0
        saved = state.read_bytes()
        second = self._scenario(tmp_path, [
            {"event": "deal"},
            {"event": "compromise_node", "network": "m", "node": 2},
            {"event": "attempt_reconstruct", "actor": "adversary"}])
        report = tmp_path / "second.json"
        assert run(["simulate", "--scenario", second, "--state", state,
                    "--report", report]) == 2
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
        values |= {v for entries in sim.transcripts.values()
                   for entry in entries for v in entry["values"]}
        values |= {v for captured in sim.adversary.values() for v in captured}
        assert len(values) > 300
        for v in values:
            assert format(v, "x").encode() not in blob
            assert str(v).encode() not in blob

    def test_malformed_scenario_exit2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schedule": [{"event": "??"}]}')
        assert run(["simulate", "--scenario", path]) == 2

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
        # through the tracer's stand-in for the OS entropy source.
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
        counts = traced("reconstruct", "--topology", topo, "--shares", out,
                        "--out", dest)
        assert counts["protocol.reconstruct.calls"] == 1
        assert dest.read_bytes() == secret.read_bytes()


class TestUnwritableOutput:
    SCENARIO = ROOT / "docs" / "examples" / "scenario.json"

    @pytest.mark.parametrize("case", [
        "deal-out-is-a-file", "reconstruct-out-is-a-directory",
        "reconstruct-out-is-cwd", "reconstruct-out-parent-missing",
        "simulate-report-dir-missing", "simulate-state-dir-missing"])
    def test_exit2(self, workspace, capsys, monkeypatch, case):
        tmp, topo, secret = workspace
        shares = tmp / "shares"
        assert run(["deal", "--topology", topo, "--secret", secret,
                    "--out", shares, "--seed", "1"]) == 0
        monkeypatch.chdir(tmp)
        missing = tmp / "missing" / "out"
        rebuild = ["reconstruct", "--topology", topo, "--shares", shares,
                   "--out"]
        argv = {
            "deal-out-is-a-file": ["deal", "--topology", topo, "--secret",
                                   secret, "--out", secret],
            "reconstruct-out-is-a-directory": rebuild + [shares],
            "reconstruct-out-is-cwd": rebuild + ["."],
            "reconstruct-out-parent-missing": rebuild + [missing],
            "simulate-report-dir-missing": ["simulate", "--scenario",
                                            self.SCENARIO, "--report",
                                            missing],
            "simulate-state-dir-missing": ["simulate", "--scenario",
                                           self.SCENARIO, "--report",
                                           tmp / "r.json", "--state",
                                           missing],
        }[case]
        capsys.readouterr()
        assert run(argv) == 2
        assert "error: cannot " in capsys.readouterr().err
        # No partial output is left behind.
        assert not list(tmp.rglob("*.tmp"))
        assert not missing.parent.exists()


class TestDocumentedExamples:
    """The documented formats load through the same code the CLI uses."""

    def test_formats_md_topology(self, tmp_path):
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text[text.index("## Topology file"):]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "topology.json"
        path.write_text(example)
        assert run(["thresholds", "--topology", path]) == 0

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


_REMOVE = object()


def _replace(doc, path, value):
    """A deep copy of `doc` with the entry at `path` (keys and indices)
    set to `value`, or removed when `value` is _REMOVE."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _REMOVE:
        del target[last]
    else:
        target[last] = value
    return doc


# Numbers JSON_VALUES lacks: json.loads reads Infinity and NaN.
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])


def malformed_topologies(topology):
    """Topology documents (dicts or other JSON values), each invalid one
    way, built from the valid topology dict `topology`."""
    nets = topology["networks"]
    ids = [n["id"] for n in nets]
    q = int(topology["modulus"], 16)

    def at(path):
        return lambda v: _replace(topology, path, v)

    def bad_int(valid):
        return (JSON_VALUES.filter(lambda v: not _int_in(v, valid))
                | NON_FINITE)

    per_network = []
    for i, net in enumerate(nets):
        keys = ["id", "node_count", "inner_degree", "link", "mother"]
        per_network += [
            st.sampled_from(keys).map(
                lambda k, i=i: _replace(topology, ["networks", i, k],
                                        _REMOVE)),
            (JSON_VALUES.filter(lambda v: not isinstance(v, str))
             | st.sampled_from([x for x in ids if x != net["id"]])).map(
                at(["networks", i, "id"])),
            (bad_int(range(net["inner_degree"] + 1, q))
             | st.integers(min_value=q)).map(
                at(["networks", i, "node_count"])),
            bad_int(range(net["node_count"])).map(
                at(["networks", i, "inner_degree"])),
            JSON_VALUES.filter(lambda v, w=net["link"]: v != w).map(
                at(["networks", i, "link"])),
            JSON_VALUES.filter(lambda v, m=net["mother"]: v is not m).map(
                at(["networks", i, "mother"])),
            JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(
                at(["networks", i])),
        ]
    return st.one_of(
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(["format_version", "modulus", "networks",
                         "outer_degree"]).map(
            lambda k: _replace(topology, [k], _REMOVE)),
        JSON_VALUES.filter(lambda v: not _int_in(v, range(1, 2))).map(
            at(["format_version"])),
        JSON_VALUES.filter(lambda v: not _is_valid_modulus(v)).map(
            at(["modulus"])),
        bad_int(range(1, len(nets))).map(at(["outer_degree"])),
        JSON_VALUES.map(at(["networks"])),
        *per_network)


def malformed_scenarios(scenario):
    """Scenario documents, each invalid one way, built from the valid
    scenario dict `scenario`."""

    def at(path):
        return lambda v: _replace(scenario, path, v)

    def not_hex(value):
        try:
            bytes.fromhex(value)
            return False
        except (TypeError, ValueError):
            return True

    schedule = scenario["schedule"]
    ids = [n["id"] for n in scenario["topology"]["networks"]]
    nodes = scenario["topology"]["networks"][1]["node_count"]
    node_events = ["compromise_node", "release_node", "fail_node"]
    return st.one_of(
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(sorted(scenario)).map(
            lambda k: _replace(scenario, [k], _REMOVE)),
        malformed_topologies(scenario["topology"]).map(at(["topology"])),
        # A prime too small to carry byte chunks.
        st.integers(5, 2**16 - 1).filter(is_probable_prime).map(
            lambda q: format(q, "x")).map(at(["topology", "modulus"])),
        JSON_VALUES.filter(not_hex).map(at(["secret_hex"])),
        JSON_VALUES.filter(lambda v: v not in ("", [], {})).map(
            at(["schedule"])),
        st.tuples(st.integers(0, len(schedule) - 1), JSON_VALUES).map(
            lambda iv: _replace(scenario, ["schedule", iv[0]], iv[1])),
        st.tuples(st.integers(0, len(schedule) - 1),
                  JSON_VALUES.filter(lambda v: not isinstance(v, str)
                                     or v not in EVENT_KINDS)).map(
            lambda iv: _replace(scenario, ["schedule", iv[0], "event"],
                                iv[1])),
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
        # A refresh before the deal, or with no deal at all.
        st.integers(0, len(schedule)).map(
            lambda i: {**scenario, "schedule": [
                ev for ev in schedule[:i] if ev["event"] != "deal"]
                + [{"event": "refresh"}] + schedule[i:]}),
    )


def malformed_states(state):
    """Simulator state payloads, each invalid one way, built from the
    valid state dict `state`: not one of them loads."""

    def at(path):
        return lambda v: _replace(state, path, v)

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
            lambda k: _replace(state, [k], _REMOVE)),
        st.tuples(st.text(max_size=8).filter(lambda k: k not in state),
                  JSON_VALUES).map(lambda kv: {**state, kv[0]: kv[1]}),
        JSON_VALUES.filter(lambda v: not _int_in(v, range(2, 3))).map(
            at(["version"])),
        malformed_topologies(state["topology"]).map(at(["topology"])),
        st.integers(5, 2**16 - 1).filter(is_probable_prime).map(
            lambda q: format(q, "x")).map(at(["topology", "modulus"])),
        JSON_VALUES.filter(lambda v: not canonical_hex(v)).map(
            at(["secret"])),
        (JSON_VALUES.filter(lambda v: type(v) is not int)
         | NON_FINITE).map(at(["seed"])),
        JSON_VALUES.filter(lambda v: not isinstance(v, list)).map(
            at(["history"])),
        st.tuples(st.integers(0, len(history) - 1), JSON_VALUES).map(
            lambda iv: _replace(state, ["history", iv[0]], iv[1])),
        st.tuples(st.integers(0, len(history) - 1),
                  JSON_VALUES.filter(lambda v: not isinstance(v, str)
                                     or v not in EVENT_KINDS)
                  | st.just("attempt_reconstruct")).map(
            lambda iv: _replace(state, ["history", iv[0], "event"], iv[1])),
        st.tuples(st.integers(0, len(history) - 1),
                  st.text(max_size=8).filter(
                      lambda k: k not in ("event", "network", "node")),
                  JSON_VALUES).map(
            lambda ikv: _replace(state, ["history", ikv[0], ikv[1]],
                                 ikv[2])),
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
    manifest dict `manifest`, or whose epoch is not an integer."""
    digest = manifest["topology_digest"]
    return st.one_of(
        JSON_VALUES.filter(lambda v: type(v) is not int).map(
            lambda v: {**manifest, "epoch": v}),
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from(sorted(manifest)).map(
            lambda k: _replace(manifest, [k], _REMOVE)).filter(
            lambda m: "topology_digest" not in m),
        (JSON_VALUES | st.text("0123456789abcdef", min_size=64, max_size=64)
         | st.just(digest.upper())).filter(lambda v: v != digest).map(
            lambda v: {**manifest, "topology_digest": v}),
    )


def _state_file(payload: bytes) -> bytes:
    """A simulator state file around `payload`: magic, length, payload."""
    return b"MSS1" + struct.pack(">Q", len(payload)) + payload


class TestMalformedJson:
    """Every JSON file the CLI reads maps a malformed document to exit 2,
    never a traceback."""

    EXAMPLES = ROOT / "docs" / "examples"

    @pytest.mark.parametrize("edit", [
        lambda t: [],
        lambda t: {**t, "networks": [1, 2]},
        lambda t: _replace(t, ["networks", 1, "id"], ["d1"]),  # unhashable
        lambda t: _replace(t, ["networks", 1, "id"], 7),
        lambda t: _replace(t, ["networks", 1, "node_count"], float("inf")),
        lambda t: DEEP,
        lambda t: _replace(t, ["networks", 1, "node_count"], 3.9),
        lambda t: _replace(t, ["networks", 1, "node_count"], "3"),
        lambda t: _replace(t, ["networks", 1, "inner_degree"], 1.5),
        lambda t: _replace(t, ["outer_degree"], True),
        lambda t: _replace(t, ["format_version"], 1.0),
        lambda t: _replace(t, ["networks", 0, "mother"], 1),
        lambda t: _replace(t, ["networks", 1, "mother"], None),
        *(lambda t, spell=spell: _replace(t, ["modulus"],
                                          spell(t["modulus"]))
          for spell in NONCANONICAL_HEX.values()),
    ], ids=["not-an-object", "networks-not-objects", "id-list", "id-int",
            "node_count-inf", "deep", "node_count-float", "node_count-str",
            "inner_degree-float", "outer_degree-bool", "format_version-float",
            "mother-int", "mother-null",
            *(f"modulus-{name}" for name in NONCANONICAL_HEX)])
    def test_topology_exit2(self, tmp_path, edit):
        data = json.loads((self.EXAMPLES / "topology.json").read_text())
        path = tmp_path / "t.json"
        path.write_bytes(_encode(edit(data)))
        assert run(["thresholds", "--topology", path]) == 2

    @pytest.mark.parametrize("edit", [
        lambda s: _replace(s, ["topology", "modulus"], "101"),  # 257
        lambda s: _replace(s, ["schedule", 1, "event"], ["refresh"]),
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "fail_node", "network": "d1", "node": float("inf")}]},
        lambda s: DEEP,
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "compromise_node", "network": "d1", "node": 1.7}]},
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "release_node", "network": "d1", "node": "1"}]},
        lambda s: {**s, "schedule": s["schedule"] + [
            {"event": "fail_node", "network": "d1", "node": True}]},
        lambda s: _replace(s, ["topology", "networks", 2, "node_count"],
                           3.0),
        lambda s: {**s, "schedule": [
            {"event": "compromise_node", "network": "m", "node": 1},
            {"event": "refresh"}, {"event": "deal"}]},
    ], ids=["modulus-257", "event-list", "node-inf", "deep", "node-float",
            "node-str", "node-bool", "topology-node_count-float",
            "refresh-before-deal"])
    def test_scenario_exit2(self, tmp_path, edit):
        data = json.loads((self.EXAMPLES / "scenario.json").read_text())
        path = tmp_path / "s.json"
        path.write_bytes(_encode(edit(data)))
        report = tmp_path / "r.json"
        assert run(["simulate", "--scenario", path, "--report", report]) == 2
        assert not report.exists()

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
        blob = _state_file(json.dumps(edit(state)).encode())
        path.write_bytes(blob)
        report = tmp_path / "r.json"
        assert run(["simulate", "--scenario", scenario, "--state", path,
                    "--report", report]) == 2
        assert "cannot load state" in capsys.readouterr().err
        assert path.read_bytes() == blob
        assert not report.exists()

    def test_state_fuzz_exit2(self, tmp_path, capsys):
        path, state, scenario = self._state(tmp_path)
        report = tmp_path / "r.json"

        @settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
        @given(malformed_states(state).map(_encode).map(_state_file)
               | st.binary(max_size=40).map(_state_file)
               | st.binary(max_size=40))
        def check(blob):
            path.write_bytes(blob)
            assert run(["simulate", "--scenario", scenario, "--state", path,
                        "--report", report]) == 2
            assert path.read_bytes() == blob
            assert not report.exists()

        check()
        capsys.readouterr()
