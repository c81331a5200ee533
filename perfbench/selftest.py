"""Self-test of the benchmark, on a tiny size of every workload.

    python3 perfbench/selftest.py

Checks that each workload prints every metric of BENCHMARK.json by name
with its unit, with no failed operation; that an injected wrong output (a
truncated recovered file, a flipped expected verdict, an exhaustive
threshold off by one) is counted as failed rather than passing; that the
traced run's spans hold no share values or secret bytes; and that the
benchmark refuses to run where there is no program source. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PY = sys.executable


def expect(ok, what):
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [PY, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc, what):
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}\n"
           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res, kind, what):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} "
           f"or their units differ from BENCHMARK.json")
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: keys {sorted(res)}")


def check_workloads():
    for w in (m["name"] for m in SPEC["workloads"]):
        res = result(bench(w, 0), f"{w} trace 0")
        check_metrics(res, "end_to_end", f"{w} trace 0")
        expect(res["correct"] and res["failed"] == 0 and
               res["attempted"] >= 1, f"{w} trace 0: {res}")
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               f"{w} trace 0: a zero end-to-end metric")

        res = result(bench(w, 1), f"{w} trace 1")
        check_metrics(res, "per_layer", f"{w} trace 1")
        expect(res["correct"] and res["metrics"]["error_rate"]["value"] == 0,
               f"{w} trace 1: {res['failed']} failed")

        res = result(bench(w, 1, "--inject-fault"), f"{w} fault")
        expect(not res["correct"] and res["failed"] >= 1
               and res["metrics"]["error_rate"]["value"] > 0,
               f"{w}: an injected wrong output was not counted")
        print(f"selftest {w}: PASS")


def check_spans_hold_no_secrets(tmp):
    """Trace a tiny deal and look for every secret byte string and share
    value in the spans file."""
    sys.path.insert(0, str(HERE))
    import inputs
    topo = tmp / "topology.json"
    inputs.write_json(topo, inputs.topology_doc(*inputs.VAULT_TOPOLOGY))
    secret = bytes(range(256)) * 4
    (tmp / "secret.bin").write_bytes(secret)
    spans = tmp / "spans.json"
    proc = subprocess.run(
        [PY, str(HERE / "tracing.py"), str(spans), "cli", "deal",
         "--topology", str(topo), "--secret", str(tmp / "secret.bin"),
         "--out", str(tmp / "shares"), "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"traced deal: {proc.stderr[-2000:]}")
    text = spans.read_text()
    data = json.loads(text)
    for rec in data["spans"]:
        expect(len(rec) == 5 and isinstance(rec[0], str)
               and all(isinstance(x, (int, float)) for x in rec[1:]),
               f"span record {rec!r} carries more than names and times")
    expect(all(isinstance(v, (int, float)) for v in data["counts"].values()),
           "a trace count is not a number")
    values = set()
    for path in (tmp / "shares").glob("*.share.json"):
        for hexval in json.loads(path.read_text())["values"]:
            if len(hexval) >= 8:
                values |= {hexval, str(int(hexval, 16))}
    expect(values, "no share values to look for")
    leaked = [v for v in values if v in text]
    expect(not leaked and secret[:16].hex() not in text,
           f"spans hold share values or secret bytes: {leaked[:3]}")
    print("selftest spans hold no secrets: PASS")


def check_refuses_without_source(tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("vault", 0, cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "the benchmark ran without a program to measure")
    print("selftest refuses without source: PASS")


def main():
    tmp = ROOT / ".perfbench_tmp" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_refuses_without_source(tmp)
        check_spans_hold_no_secrets(tmp)
        check_workloads()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print("selftest: PASS")


if __name__ == "__main__":
    main()
