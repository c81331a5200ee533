"""In-process jobs that the benchmark starts in a fresh interpreter.

    python3 perfbench/jobs.py sweep SAMPLE.json OUT.json

`sweep` is the analyst's threshold sweep: build each sampled topology at
q = 2^127 - 1 and compute its closed-form and exhaustive thresholds. The
result file holds, per topology, the two threshold tuples in the order of
THRESHOLD_FIELDS.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from inputs import MODULUS  # noqa: E402

THRESHOLD_FIELDS = ("t_networks", "t_nodes", "t_f0", "t_f1", "t_fail")


def sweep(sample, modulus):
    from multishare import protocol
    out = []
    for outer, nets in sample:
        specs = [protocol.NetworkSpec(
                    "m" if i == 0 else f"d{i}", n, d,
                    protocol.LinkKind.ITS if i == 0
                    else protocol.LinkKind.CLASSICAL)
                 for i, (n, d) in enumerate(nets)]
        topology = protocol.Topology(modulus, tuple(specs), 0, outer)
        formula = protocol.compute_thresholds_formula(topology)
        exhaustive = protocol.compute_thresholds_exhaustive(topology)
        out.append([[getattr(t, f) for f in THRESHOLD_FIELDS]
                    for t in (formula, exhaustive)])
    return out


def run_sweep(sample_path, out_path):
    sample = json.loads(Path(sample_path).read_text(encoding="utf-8"))
    result = sweep(sample, MODULUS)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "sweep":
        sys.exit("usage: jobs.py sweep SAMPLE.json OUT.json")
    run_sweep(sys.argv[2], sys.argv[3])
