"""List the statements and raise sites under src/multishare/ that the
test suite does not reach.

    python3 tools/linecov.py [PYTEST_ARGS...]

Runs pytest in this process (by default on the whole suite, as the
tier-1 command does) with a sys.settrace line tracer on the package's
files, then prints each statement that no test ran, as FILE:LINE, saying
whether it is a `raise`, and how many statements and raise sites were
reached. A statement counts as reached when any of its lines ran.
Docstrings are not statements here. CLI runs that tests start as
subprocesses are not traced, so this is a lower bound. Exits 1 when some
raise site is unreached, else with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multishare"


def statements(path: Path):
    """(first line, last line, whether it is a raise) of each statement in
    the source file at `path`, but docstrings and the global and nonlocal
    declarations, which run no code."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.stmt) and not (
                isinstance(node, (ast.Global, ast.Nonlocal))
                or isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            yield node.lineno, node.end_lineno, isinstance(node, ast.Raise)


def main(argv) -> int:
    import pytest

    ran = {str(path): set() for path in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or ["--continue-on-collection-errors"])])
    finally:
        sys.settrace(None)
    sites = []  # (FILE:LINE, reached, is a raise) per statement
    for name, lines in sorted(ran.items()):
        where = os.path.relpath(name, ROOT)
        for first, last, is_raise in sorted(statements(Path(name))):
            sites.append((f"{where}:{first}",
                          not lines.isdisjoint(range(first, last + 1)),
                          is_raise))
    for where, reached, is_raise in sites:
        if not reached:
            print(f"{where}: unreached {'raise' if is_raise else 'statement'}")
    for kind, raises_only in (("statements", False), ("raises", True)):
        chosen = [reached for _, reached, is_raise in sites
                  if is_raise or not raises_only]
        print(f"{kind} reached: {sum(chosen)} of {len(chosen)}")
    missed = any(is_raise and not reached for _, reached, is_raise in sites)
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
