"""Check that the vault commands' memory stays flat at a large secret.

    python3 tools/check_vault_memory.py [--mib 16] [--limit-mib 26]

Deals, refreshes and reconstructs a random secret of --mib MiB on the
example topology (docs/examples/topology.json: three networks of three
nodes, outer degree 1), in a temporary directory outside the checkout.
Each command runs in a fresh interpreter started from this small one, so
that its ru_maxrss is its own (a child's ru_maxrss also counts the
high-water RSS of the process that started it). A bare interpreter
(`-c pass`), started the same way, runs first: its line is the host's
floor, the share of each command that is the interpreter alone. After
deal and after refresh, each share file must be in share format v2: say
"format_version":2 and have the size its chunk_count gives. Prints the
floor's and each command's peak RSS and wall time, and exits 1 if any
command's peak exceeds --limit-mib MiB, a command fails, a share file is
not v2 at its size, or the recovered secret differs from the dealt
one.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(argv):
    """(exit status, peak RSS in MiB, wall seconds) of this interpreter
    run with the arguments `argv`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *map(str, argv)],
                            stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024,
            time.perf_counter() - start)


def report_line(name: str, code: int, peak: float, wall: float) -> str:
    """The printed line of one run."""
    return (f"{name:<14} exit {code}  peak {peak:6.1f} MiB  "
            f"{wall:6.2f} s")


def share_file_faults(shares: Path) -> list:
    """What is wrong with the share files in `shares` as share format v2
    files: each must say "format_version":2, and its size must be that of
    its header, through `"values":[`, then chunk_count values of 2w hex
    digits (w the byte width of modulus - 1), each in quotes and a comma
    between each two, then `]}` and a newline. Read from each header
    alone, by a regular expression: this small interpreter imports no
    more than it must."""
    faults = []
    for path in sorted(shares.glob("*.share.json")):
        with open(path, "rb") as file:
            head = file.read(1 << 16)
        values = head.find(b'"values":[') + len(b'"values":[')
        fields = dict(re.findall(
            rb'"(chunk_count|format_version|modulus)":"?([0-9a-f]+)',
            head[:values]))
        if fields.get(b"format_version") != b"2":
            faults.append(f"{path.name} is not in share format v2")
            continue
        width = ((int(fields[b"modulus"], 16) - 1).bit_length() + 7) // 8
        digits = 2 * width
        count = int(fields[b"chunk_count"])
        size = values + max(count * (digits + 3) - 1, 0) + 3
        if path.stat().st_size != size:
            faults.append(f"{path.name} has {path.stat().st_size} bytes, "
                          f"not the {size} of {count} values")
    return faults


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
        print(report_line("python -c pass", *run(["-c", "pass"])))
        for command in (
                ["deal", "--topology", topology, "--secret",
                 tmp / "secret.bin", "--out", shares],
                ["refresh", "--topology", topology, "--shares", shares],
                ["reconstruct", "--topology", topology, "--shares", shares,
                 "--out", out]):
            code, peak, wall = run(["-m", "multishare.cli", *command])
            print(report_line(command[0], code, peak, wall))
            if code != 0:
                failed.append(f"{command[0]} exited {code}")
            elif peak > args.limit_mib:
                failed.append(f"{command[0]} peaked at {peak:.1f} MiB, "
                              f"above {args.limit_mib} MiB")
            if command[0] != "reconstruct":
                failed += [f"after {command[0]}: {fault}"
                           for fault in share_file_faults(shares)]
        if not failed and not same_bytes(tmp / "secret.bin", out):
            failed.append("the recovered secret differs from the dealt one")
    for line in failed:
        print(f"FAILED: {line}")
    print(f"{args.mib} MiB secret: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
