"""Check that the vault commands' memory stays flat at a large secret.

    python3 tools/check_vault_memory.py [--mib 16] [--limit-mib 26]

Deals, refreshes and reconstructs a random secret of --mib MiB on the
example topology (docs/examples/topology.json: three networks of three
nodes, outer degree 1), in a temporary directory outside the checkout.
Each command runs in a fresh interpreter started from this small one, so
that its ru_maxrss is its own (a child's ru_maxrss also counts the
high-water RSS of the process that started it). Prints each command's
peak RSS and wall time, and exits 1 if any peak exceeds --limit-mib MiB,
a command fails, or the recovered secret differs from the dealt one.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(argv):
    """(exit status, peak RSS in MiB, wall seconds) of one CLI command."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "multishare.cli",
                             *map(str, argv)],
                            stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024,
            time.perf_counter() - start)


def same_bytes(a: Path, b: Path) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(1 << 20), fb.read(1 << 20)
            if x != y:
                return False
            if not x:
                return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mib", type=int, default=16)
    ap.add_argument("--limit-mib", type=float, default=26.0)
    args = ap.parse_args(argv)
    topology = ROOT / "docs" / "examples" / "topology.json"
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Made and compared a MiB at a time: what this process holds counts
        # in every command's ru_maxrss.
        with open(tmp / "secret.bin", "wb") as file:
            for _ in range(args.mib):
                file.write(os.urandom(1 << 20))
        shares, out = tmp / "shares", tmp / "recovered.bin"
        for command in (
                ["deal", "--topology", topology, "--secret",
                 tmp / "secret.bin", "--out", shares],
                ["refresh", "--topology", topology, "--shares", shares],
                ["reconstruct", "--topology", topology, "--shares", shares,
                 "--out", out]):
            code, peak, wall = run(command)
            print(f"{command[0]:<12} exit {code}  peak {peak:6.1f} MiB  "
                  f"{wall:6.1f} s")
            if code != 0:
                failed.append(f"{command[0]} exited {code}")
            elif peak > args.limit_mib:
                failed.append(f"{command[0]} peaked at {peak:.1f} MiB, "
                              f"above {args.limit_mib} MiB")
        if not failed and not same_bytes(tmp / "secret.bin", out):
            failed.append("the recovered secret differs from the dealt one")
    for line in failed:
        print(f"FAILED: {line}")
    print(f"{args.mib} MiB secret: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
