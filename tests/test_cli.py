import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from multishare.cli import main
from multishare.field import DEFAULT_MODULUS
from multishare.formats import topology_to_dict
from multishare.protocol import LinkKind, NetworkSpec, Topology
from multishare.simnet import load_state

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
        write_topology(big, q=257, counts=(9, 9, 9), degrees=(1, 1, 1))
        assert run(["thresholds", "--topology", big, "--oracle"]) == 4
        assert "20" in capsys.readouterr().err


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


class TestDocumentedExamples:
    """The documented formats load through the same code the CLI uses."""

    def test_formats_md_topology(self, tmp_path):
        text = (ROOT / "docs" / "formats.md").read_text()
        section = text[text.index("## Topology file"):]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "topology.json"
        path.write_text(example)
        assert run(["thresholds", "--topology", path]) == 0

    def test_example_topology(self):
        assert run(["thresholds", "--topology",
                    ROOT / "docs" / "examples" / "topology.json"]) == 0

    def test_example_scenario(self, tmp_path, capsys):
        assert run(["simulate", "--scenario",
                    ROOT / "docs" / "examples" / "scenario.json",
                    "--report", tmp_path / "report.json"]) == 0
        assert "adversary: Reconstructs" in capsys.readouterr().out

