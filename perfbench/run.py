"""multishare benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload vault|adversary|sweep --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/`
as users run it without installing: `PYTHONPATH=src python3 -m
multishare.cli ...`, one process at a time, each a fresh interpreter (the
oracle's memo is process-global, so a warm process would flatter later
passes).

A run generates its inputs from --seed, sets up, and then measures a fixed
number of passes of the workload's job, sized so that they take about
--seconds on a 2-core host. Every output is checked; a failed or wrong
operation counts in `failed`. The last line of standard output is one JSON
object:

  --trace 0   the end-to-end metrics, measured untraced:
                setup_s       median wall time of `thresholds` (no
                              oracle) on the workload's topology
                job_s         median wall time of one pass of the job
                peak_rss_mib  highest max-RSS of the run's processes
  --trace 1   the per-layer metrics: half the untraced passes, then one
              traced pass whose spans give each layer's self time and
              counts, the tracing overhead (traced minus untraced) and the
              share of process wall time the spans cover.

Lines before the last give the per-pass figures, the workload's own
throughputs and a host-noise record (a fixed big-int loop and the
steal/iowait share from /proc/stat) so drift of the host can be told from
a regression.

Extra options, for the self-test only: --scale tiny runs a few-second
version of each workload; --inject-fault corrupts one output per pass to
prove the checks count it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from jobs import THRESHOLD_FIELDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))

E2E_METRICS = ("setup_s", "job_s", "peak_rss_mib")

# Wall time of one pass on a 2-core host (Python 3.11): the pass count of a
# run is round(--seconds / this), so a run does the same work on every
# host and every commit. A tiny run makes one pass.
NOMINAL_PASS_S = {"vault": 14.0, "adversary": 10.0, "sweep": 4.6}
SETUP_SAMPLES = 7
CALIBRATION_ROUNDS = 200_000
RUN_DEADLINE_S = 170.0


@dataclass
class Proc:
    code: int
    wall: float
    rss_mib: float
    output: str
    label: str
    spans: Path | None = None


@dataclass
class Pass:
    procs: list
    named: dict = field(default_factory=dict)  # workload throughputs

    @property
    def wall(self):
        return sum(p.wall for p in self.procs)


class Bench:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures = []
        self.nproc = 0

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")
        return ok

    def run(self, argv, traced=False, label="proc"):
        """Run one process to the end and return its wall time and max
        RSS. Traced CLI commands go through tracing.py instead."""
        self.nproc += 1
        log = self.work / f"{self.nproc:04d}-{label}.log"
        spans = None
        if traced:
            spans = self.work / f"{self.nproc:04d}-{label}.spans.json"
            if argv[:3] == [PY, "-m", "multishare.cli"]:
                argv = [PY, str(HERE / "tracing.py"), str(spans), "cli",
                        *argv[3:]]
            else:  # jobs.py MODE ARGS...
                argv = [PY, str(HERE / "tracing.py"), str(spans), *argv[2:]]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL, cwd=ROOT, env=ENV)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return Proc(p.returncode, wall, ru.ru_maxrss / 1024,
                    log.read_text(errors="replace"), label, spans)

    def cli(self, *argv, traced=False):
        return self.run([PY, "-m", "multishare.cli", *map(str, argv)],
                        traced, label=argv[0])


# ---------------------------------------------------------------------------
# Workloads. Each writes its inputs, names its set-up topology, and runs
# and checks one pass of its job.


class Vault:
    """Operator lifecycle: deal, refresh, reconstruct, byte-compare."""

    name = "vault"

    def prepare(self, bench):
        outer, nets = inputs.VAULT_TOPOLOGY
        self.topology_spec = (outer, nets)
        self.topology = bench.work / "topology.json"
        inputs.write_json(self.topology, inputs.topology_doc(outer, nets))
        self.secret = inputs.vault_secret(bench.args.seed, bench.args.scale)
        self.secret_path = bench.work / "secret.bin"
        self.secret_path.write_bytes(self.secret)

    def run_pass(self, bench, i, traced):
        shares = bench.work / f"shares-{i}"
        recovered = bench.work / f"recovered-{i}.bin"
        topo = self.topology
        # No --seed: deal and refresh draw from the OS, as users run them.
        deal = bench.cli("deal", "--topology", topo, "--secret",
                         self.secret_path, "--out", shares, traced=traced)
        refresh = bench.cli("refresh", "--topology", topo, "--shares",
                            shares, traced=traced)
        rec = bench.cli("reconstruct", "--topology", topo, "--shares",
                        shares, "--out", recovered, traced=traced)
        for label, p in (("deal", deal), ("refresh", refresh),
                         ("reconstruct", rec)):
            bench.check(f"vault {label}", p.code == 0,
                        f"exit {p.code}: {p.output[-300:]}")
        stored = sum(f.stat().st_size for f in shares.iterdir()) \
            if shares.is_dir() else 0
        try:
            manifest = json.loads((shares / "manifest.json").read_text())
            data = recovered.read_bytes()
        except (OSError, ValueError) as exc:
            manifest, data = {}, None
            bench.check("vault outputs", False, str(exc))
        else:
            if bench.args.inject_fault:
                data = data[:-1]
            bench.check("vault recovered bytes", data == self.secret,
                        f"{len(data)} bytes recovered, "
                        f"{len(self.secret)} dealt")
            bench.check("vault manifest epoch", manifest.get("epoch") == 1,
                        f"epoch {manifest.get('epoch')!r}")
        shutil.rmtree(shares, ignore_errors=True)
        recovered.unlink(missing_ok=True)
        mib = len(self.secret) / 2**20
        return Pass([deal, refresh, rec], {
            "deal_mibps": mib / deal.wall,
            "refresh_mibps": mib / refresh.wall,
            "reconstruct_mibps": mib / rec.wall,
            "storage_amplification": stored / len(self.secret),
        })


class Adversary:
    """Slow mobile adversary over many refresh epochs, via `simulate
    --state`."""

    name = "adversary"

    def prepare(self, bench):
        self.rounds = inputs.ADVERSARY_ROUNDS[bench.args.scale]
        outer, nets = inputs.ADVERSARY_TOPOLOGY
        self.topology_spec = (outer, nets)
        self.topology = bench.work / "topology.json"
        inputs.write_json(self.topology, inputs.topology_doc(outer, nets))
        self.scenario = bench.work / "scenario.json"
        inputs.write_json(self.scenario, inputs.adversary_scenario(
            bench.args.seed, bench.args.scale))

    def run_pass(self, bench, i, traced):
        state = bench.work / f"world-{i}.state"
        report_path = bench.work / f"report-{i}.json"
        p = bench.cli("simulate", "--scenario", self.scenario, "--seed",
                      bench.args.seed, "--state", state, "--report",
                      report_path, traced=traced)
        if bench.check("adversary simulate", p.code == 0,
                       f"exit {p.code}: {p.output[-300:]}"):
            try:
                self.check_report(bench, report_path, state)
            except (OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                bench.check("adversary report", False, repr(exc))
        state.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        return Pass([p], {"simulate_rounds_per_s": self.rounds / p.wall})

    def check_report(self, bench, report_path, state):
        report = json.loads(report_path.read_text())
        attempts = [e["outcome"] for e in report["events"]
                    if e["event"] == "attempt_reconstruct"]
        adversary = [a for a in attempts if a["actor"] == "adversary"]
        owner = [a for a in attempts if a["actor"] == "owner"]
        final = "NoInformation" if bench.args.inject_fault \
            else "Reconstructs"
        expected = ["NoInformation"] * (len(adversary) - 1) + [final]
        bench.check("adversary verdicts",
                    [a["verdict"] for a in adversary] == expected
                    and adversary[-1]["matches"] is True,
                    f"{[a['verdict'] for a in adversary]}")
        bench.check("adversary final verdict",
                    report["adversary_verdict"] == final
                    and report["adversary_recovered_secret"] is True,
                    f"{report['adversary_verdict']}")
        bench.check("owner attempts",
                    all(a["result"] == "ok" and a["matches"] for a in owner)
                    and report["owner_available"] is True
                    and report["epoch"] == self.rounds,
                    f"{owner} {report['owner_available']}")
        from multishare.simnet import load_state  # src/ is on sys.path
        try:
            sim = load_state(state)
            ok = sim.epoch == self.rounds and sim.dealt
            detail = f"epoch {sim.epoch}"
        except Exception as exc:  # any failure to load is a wrong output
            ok, detail = False, repr(exc)
        bench.check("state file loads", ok, detail)


class Sweep:
    """Analyst's threshold sweep over a sample of small topologies."""

    name = "sweep"

    def prepare(self, bench):
        outer, nets = inputs.SWEEP_TOPOLOGY
        self.topology_spec = (outer, nets)
        self.topology = bench.work / "topology.json"
        inputs.write_json(self.topology, inputs.topology_doc(outer, nets))
        self.sample = inputs.sweep_sample(bench.args.seed, bench.args.scale)
        self.sample_path = bench.work / "sample.json"
        self.sample_path.write_text(json.dumps(self.sample))

    def run_pass(self, bench, i, traced):
        out = bench.work / f"thresholds-{i}.json"
        p = bench.run([PY, str(HERE / "jobs.py"), "sweep",
                       str(self.sample_path), str(out)], traced, "sweep")
        try:
            result = json.loads(out.read_text()) if p.code == 0 else []
        except (OSError, ValueError):
            result = []
        if bench.args.inject_fault and result:
            result[0][1][1] += 1  # one exhaustive t_nodes off by one
        out.unlink(missing_ok=True)
        bench.check("sweep job", p.code == 0 and len(result) ==
                    len(self.sample), f"exit {p.code}: {p.output[-300:]}")
        for (outer, nets), got in zip(self.sample, result):
            formula = dict(zip(THRESHOLD_FIELDS, got[0]))
            exhaustive = dict(zip(THRESHOLD_FIELDS, got[1]))
            want, kill = inputs.expected_formula(outer, nets)
            l, t_p = len(nets), outer + 1
            ok = (all(formula[k] == v for k, v in want.items())
                  and all(exhaustive[k] == formula[k]
                          for k in ("t_networks", "t_nodes", "t_f0"))
                  # The closed form's documented quirk: it disables one
                  # daughter too few. Checked, never "fixed".
                  and exhaustive["t_f1"] == formula["t_f1"] + kill[l - t_p]
                  and all(t["t_fail"] == min(t["t_f0"], t["t_f1"])
                          for t in (formula, exhaustive)))
            bench.check("sweep thresholds", ok,
                        f"{outer} {nets}: {formula} vs {exhaustive}")
        return Pass([p], {"sweep_topologies_per_s": len(self.sample) /
                          p.wall})


WORKLOADS = {w.name: w for w in (Vault, Adversary, Sweep)}
NAMED = ("deal_mibps", "refresh_mibps", "reconstruct_mibps",
         "storage_amplification", "simulate_rounds_per_s",
         "sweep_topologies_per_s")


def check_setup(bench, workload, p):
    """`thresholds` prints the closed form; compare it with ours."""
    outer, nets = workload.topology_spec
    want, _ = inputs.expected_formula(outer, nets)
    want["t_fail"] = min(want["t_f0"], want["t_f1"])
    got = {}
    for line in p.output.splitlines():
        key, sep, value = line.strip().partition(" = ")
        key = key.strip()
        if sep and key in want and key not in got and value.isdigit():
            got[key] = int(value)
    bench.check("thresholds", p.code == 0 and got == want,
                f"exit {p.code}: {got} != {want}")


# ---------------------------------------------------------------------------
# Host-noise record


def calibrate():
    """Fixed pure-Python big-int work; its time tracks the host's speed."""
    q, x = inputs.MODULUS, 1
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        x = (x * x + i) % q
    return time.perf_counter() - t0


def cpu_jiffies():
    """(total, iowait, steal) from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[4], fields[7] if len(fields) > 7 else 0


# ---------------------------------------------------------------------------
# Trace analysis


def layer_metrics(procs):
    """Per-layer self time and counts from the traced processes' spans.

    A span's self time is its duration minus its child spans and the
    untraced-leaf time (entropy draws) charged to it."""
    self_s, calls, counts = Counter(), Counter(), Counter()
    covered = wall = 0.0
    maxima = ("field.elim_max_cols", "simnet.rows_at_final_verdict",
              "simnet.state_bytes")
    for p in procs:
        wall += p.wall
        try:
            data = json.loads(p.spans.read_text())
        except (OSError, ValueError):
            continue
        spans = data["spans"]
        child = [0.0] * len(spans)
        roots = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                roots += end - start
        covered += roots
        print(f"traced {p.label}: wall {p.wall:.3f} s, spans cover "
              f"{roots / p.wall:.1%}")
        for i, (name, start, end, parent, leaf) in enumerate(spans):
            self_s[name] += end - start - child[i] - leaf
            calls[name] += 1
        for key, value in data["counts"].items():
            if key in maxima:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    self_s["field.entropy"] = counts["field.entropy_s"]

    def s(name):
        return self_s[name]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "field.entropy_draws": counts["field.entropy_draws"],
        "field.entropy_bits": counts["field.entropy_bits"],
        "field.entropy_s": counts["field.entropy_s"],
        "field.entropy_accept_ratio": ratio(counts["field.entropy_accepted"],
                                            counts["field.entropy_draws"]),
        "field.primality_calls": calls["field.is_probable_prime"],
        "field.primality_s": s("field.is_probable_prime"),
        "field.elim_calls": calls["field.express_over_rows"],
        "field.elim_rows": counts["field.elim_rows"],
        "field.elim_max_cols": counts["field.elim_max_cols"],
        "field.elim_s": s("field.express_over_rows"),
        "poly.weight_calls": calls["poly.lagrange_zero_weights"]
        + calls["poly.birkhoff_matrix_row"],
        "poly.weight_s": s("poly.lagrange_zero_weights")
        + s("poly.birkhoff_matrix_row"),
        "protocol.values_dealt": counts["protocol.values_dealt"],
        "protocol.topology_s": s("protocol.topology"),
        "protocol.thresholds_exhaustive_s":
            s("protocol.compute_thresholds_exhaustive"),
        "protocol.oracle_calls": calls["protocol.access_oracle"],
        "protocol.oracle_memo_hit_ratio": 1 - ratio(
            calls["protocol.access_oracle"],
            counts["protocol.count_vectors"])
        if counts["protocol.count_vectors"] else 0.0,
        "formats.encoded_bytes": counts["formats.encoded_bytes"],
        "simnet.rows_at_final_verdict":
            counts["simnet.rows_at_final_verdict"],
        "simnet.state_bytes": counts["simnet.state_bytes"],
        "simnet.run_scenario_calls": calls["simnet.run_scenario"],
        "simnet.verdict_s": s("simnet.adversary_verdict"),
        "cli.self_s": s("cli.main"),
        "cli.read_bytes": counts["cli.read_bytes"],
        "cli.write_bytes": counts["cli.write_bytes"],
        "cli.files_written": counts["cli.files_written"],
        "trace.coverage": ratio(covered, wall),
    }
    for fn in ("encode_secret", "deal", "refresh", "apply_node_refresh",
               "reconstruct", "decode_secret"):
        m[f"protocol.{fn}_s"] = s(f"protocol.{fn}")
    for fn in ("share_to_dict", "canonical_json", "share_from_dict"):
        m[f"formats.{fn}_s"] = s(f"formats.{fn}")
    for fn in ("owner_store", "owner_refresh", "owner_reconstruct",
               "adversary_rows", "save_state"):
        m[f"simnet.{fn}_s"] = s(f"simnet.{fn}")
    for layer in ("field", "poly", "protocol", "formats", "simnet"):
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer)
    return m


# ---------------------------------------------------------------------------


def e2e(setups, passes):
    procs = [p for ps in passes for p in ps.procs] + setups
    return {
        "setup_s": statistics.median(p.wall for p in setups),
        "job_s": statistics.median(ps.wall for ps in passes),
        "peak_rss_mib": max(p.rss_mib for p in procs),
    }


def measure(bench, workload, n_passes, traced):
    """Interleave the set-up samples with the passes."""
    setups, passes = [], []
    per_pass = math.ceil(SETUP_SAMPLES / n_passes)
    for i in range(n_passes):
        for _ in range(min(per_pass, SETUP_SAMPLES - len(setups))):
            p = bench.cli("thresholds", "--topology", workload.topology,
                          traced=traced)
            check_setup(bench, workload, p)
            setups.append(p)
        if time.monotonic() > bench.deadline:
            bench.check("run deadline", False, f"pass {i} not started")
            break
        passes.append(workload.run_pass(bench, f"{int(traced)}-{i}",
                                        traced))
    return setups, passes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject-fault", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "multishare" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch))
    try:
        return bench_main(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def bench_main(args, work):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    started = time.monotonic()
    bench = Bench(args, work)
    workload = WORKLOADS[args.workload]()
    workload.prepare(bench)
    n_passes = 1 if args.scale == "tiny" else max(
        1, round(args.seconds / NOMINAL_PASS_S[args.workload]))

    jiffies0 = cpu_jiffies()
    calib = [calibrate() for _ in range(3)]
    # Compile the program's bytecode once, so no measured process pays it.
    bench.run([PY, "-c", "import multishare.cli"], label="warm")

    if args.trace:
        setups, passes = measure(bench, workload, max(1, n_passes // 2),
                                 False)
        t_setups, t_passes = measure(bench, workload, 1, True)
    else:
        setups, passes = measure(bench, workload, n_passes, False)
    calib += [calibrate() for _ in range(3)]
    jiffies1 = cpu_jiffies()

    host = {"host.calibration_s": statistics.median(calib),
            "host.steal_share": 0.0, "host.iowait_share": 0.0}
    if jiffies0 and jiffies1:
        total = max(1, jiffies1[0] - jiffies0[0])
        host["host.iowait_share"] = (jiffies1[1] - jiffies0[1]) / total
        host["host.steal_share"] = (jiffies1[2] - jiffies0[2]) / total

    named = dict.fromkeys(NAMED, 0.0)
    for k in passes[0].named if passes else ():
        named[k] = statistics.median(ps.named[k] for ps in passes)
    untraced = e2e(setups, passes) if passes else {}
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"passes {len(passes)} setups {len(setups)}")
    print("pass wall s: " + " ".join(f"{ps.wall:.3f}" for ps in passes))
    print("setup wall s: " + " ".join(f"{p.wall:.4f}" for p in setups))
    for k, v in {**untraced, **named, **host}.items():
        print(f"  {k} = {v:.6g}")

    failed = len(bench.failures)
    for line in bench.failures[:20]:
        print(f"FAILED {line}")
    if args.trace:
        traced = e2e(t_setups, t_passes) if t_passes else {}
        metrics = layer_metrics([p for ps in t_passes for p in ps.procs]
                                + t_setups)
        for k in E2E_METRICS:
            metrics[f"trace.overhead.{k}"] = \
                traced.get(k, 0.0) - untraced.get(k, 0.0)
        metrics.update(named)
        metrics.update(host)
        metrics["error_rate"] = failed / max(1, bench.attempted)
    else:
        metrics = {k: untraced.get(k, 0.0) for k in E2E_METRICS}
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(f"run wall s: {time.monotonic() - started:.1f}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(1, bench.attempted),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
