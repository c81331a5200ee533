"""Mutate lines of a source file one change at a time, and report which
mutants a pytest selection kills.

    python3 tools/mutants.py FILE [LINES | --diff REV] [--guards]
        [--workdir DIR] [-- PYTEST_ARGS...]

FILE is a path under the repository; LINES a list such as `12,40-45`
(every line when left out). --diff REV takes instead the lines that the
hunks of `git diff -U0 REV -- FILE` add or change, so that only what
changed since REV is mutated. Each mutant is one change to one node that
starts on those lines: a comparison operator negated (`<` to `>=`, `in`
to `not in`, ...) or swapped (`<` to `>`), a boolean operator swapped
(`and` to `or`) or its operation negated (`not (...)`), a `not` dropped,
an int constant plus one, or an arithmetic or bitwise operator swapped
(`+` with `-`, `<<` with `>>`, `&` with `|`). With --guards, only the
test of an `if`, `elif` or `while` whose body raises is mutated.

The repository is copied into DIR once (into a temporary directory,
deleted at the end, by default), and each mutant is written into the
copy's FILE, the rest of the file as it is, so the repository itself is
never changed. PYTEST_ARGS run in the copy, with its src/ on PYTHONPATH;
without them, the test modules that TESTS maps FILE's module to run. A
mutant is killed when pytest exits other than 0 or runs past TIMEOUT
seconds. The selection must pass on the unchanged copy first. Prints one
JSON object: the killed and the surviving mutants, each with its line,
its column, the qualified name of the function it lies in (`Class.method`,
or `<module>`) and the text of the changed node before and after. The
function and the two texts name a mutant across a change that moves
lines, so that the survivors of two versions can be compared. Uses the
standard library only; it is not part of the test suite, since each
mutant runs the selection once.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seconds a run of the selection may take: a mutant can make a loop
# endless.
TIMEOUT = 300
# Not copied: version control and what building and testing leave.
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "*.egg-info")
# The test modules that exercise each module under src/multishare/: the
# selection when no PYTEST_ARGS are given.
CLI_TESTS = ["test_cli", "test_refusals"]
TESTS = {"field": ["test_field"],
         "formats": ["test_formats", *CLI_TESTS],
         "vault": ["test_vault", *CLI_TESTS],
         "cli": CLI_TESTS,
         "protocol": ["test_protocol", "test_acceptance"],
         "simnet": ["test_simnet", *CLI_TESTS]}

NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
           ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
           ast.NotIn: ast.In}
SWAPPED = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE,
           ast.GtE: ast.LtE}
BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LShift: ast.RShift,
          ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
          ast.BitOr: ast.BitAnd}
# The nodes that a mutant's function is named after.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# A hunk header of a unified diff; its groups are the first line of the
# new side and its count of lines (1 when left out).
HUNK = re.compile(r"^@@ -[0-9,]+ \+([0-9]+)(?:,([0-9]+))? @@", re.M)


def line_set(text: str) -> set:
    lines = set()
    for part in text.split(","):
        first, _, last = part.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    return lines


def diff_lines(diff: str) -> set:
    """The lines of the new file that the hunks of `diff`, the text of a
    `git diff -U0`, add or change; a hunk that only deletes adds none."""
    lines = set()
    for hunk in HUNK.finditer(diff):
        start = int(hunk[1])
        lines.update(range(start, start + int(hunk[2] or 1)))
    return lines


def guard_tests(tree) -> list:
    """The test of each `if`, `elif` and `while` whose body raises."""
    return [node.test for node in ast.walk(tree)
            if isinstance(node, (ast.If, ast.While))
            and any(isinstance(inner, ast.Raise)
                    for stmt in node.body for inner in ast.walk(stmt))]


def variants(node) -> list:
    """The mutated copies of `node` itself (not of the nodes in it)."""
    found = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for table in (NEGATED, SWAPPED):
                if type(op) in table:
                    new = copy.deepcopy(node)
                    new.ops[i] = table[type(op)]()
                    found.append(new)
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        found += [new, ast.UnaryOp(ast.Not(), copy.deepcopy(node))]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        found.append(copy.deepcopy(node.operand))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        found.append(ast.Constant(node.value + 1))
    elif isinstance(node, ast.BinOp) and type(node.op) in BINARY:
        new = copy.deepcopy(node)
        new.op = BINARY[type(node.op)]()
        found.append(new)
    return found


def scopes(tree) -> dict:
    """The qualified name of the function or class that each node of
    `tree` lies in (`Class.method`, `function.inner`), by the node's id;
    `<module>` for a node in none."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            found[id(child)] = prefix[:-1] or "<module>"
            visit(child, f"{prefix}{child.name}."
                  if isinstance(child, SCOPES) else prefix)

    visit(tree, "")
    return found


def mutants(source: str, lines, guards: bool) -> list:
    """(line, column, function, before, after, mutated source) of each
    mutant; `function` is the qualified name of the scope it lies in
    (scopes)."""
    tree = ast.parse(source)
    scope = scopes(tree)
    roots = guard_tests(tree) if guards else [tree]
    rows = source.splitlines(keepends=True)
    starts = [0]
    for row in rows:
        starts.append(starts[-1] + len(row.encode()))
    data = source.encode()

    def offset(line, col):
        return starts[line - 1] + col

    found, seen = [], set()
    for root in roots:
        for node in ast.walk(root):
            if (not hasattr(node, "lineno") or id(node) in seen
                    or lines is not None and node.lineno not in lines):
                continue
            seen.add(id(node))
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            before = data[start:end].decode()
            for new in variants(node):
                after = ast.unparse(new)
                text = (data[:start] + f"({after})".encode()
                        + data[end:]).decode()
                found.append((node.lineno, node.col_offset, scope[id(node)],
                              before, after, text))
    return found


def passes(copy_root: Path, pytest_args) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy_root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *pytest_args], cwd=copy_root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file")
    parser.add_argument("lines", nargs="?")
    parser.add_argument("--diff", metavar="REV")
    parser.add_argument("--guards", action="store_true")
    parser.add_argument("--workdir")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, pytest_args = parser.parse_args(argv[:split]), argv[split + 1:]
    source_path = Path(args.file).resolve().relative_to(ROOT)
    lines = line_set(args.lines) if args.lines else None
    if args.diff:
        if args.lines:
            parser.error("give LINES or --diff, not both")
        lines = diff_lines(subprocess.run(
            ["git", "diff", "-U0", args.diff, "--", str(source_path)],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout)
    if not pytest_args:
        if source_path.stem not in TESTS:
            parser.error(f"give PYTEST_ARGS: no tests are mapped to "
                         f"{source_path.stem}")
        pytest_args = [f"tests/{name}.py" for name in TESTS[source_path.stem]]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy_root = Path(args.workdir or scratch) / "repo"
        shutil.rmtree(copy_root, ignore_errors=True)
        shutil.copytree(ROOT, copy_root, ignore=IGNORED, symlinks=True)
        if not passes(copy_root, pytest_args):
            print(f"the selection fails on the unchanged copy in "
                  f"{copy_root}", file=sys.stderr)
            return 2
        report = {"file": str(source_path), "lines": args.lines,
                  "diff": args.diff, "guards": args.guards,
                  "selection": pytest_args,
                  "killed": [], "survived": []}
        source = (ROOT / source_path).read_text(encoding="utf-8")
        for line, col, function, before, after, text in mutants(
                source, lines, args.guards):
            (copy_root / source_path).write_text(text, encoding="utf-8")
            killed = not passes(copy_root, pytest_args)
            report["killed" if killed else "survived"].append(
                {"line": line, "col": col, "function": function,
                 "before": before, "after": after})
        (copy_root / source_path).write_text(source, encoding="utf-8")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
