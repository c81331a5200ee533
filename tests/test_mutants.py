"""The guard mutants of tools/mutants.py: exactly the changes its
docstring lists, of the test of each `if`, `elif` and `while` whose body
raises, and of no other. The mutation checks that justify deleting a
test rest on them."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)

SOURCE = '''\
def f(x, y, items):
    if x < 1 and not y:
        raise ValueError("low")
    while x in items or y:
        raise KeyError(x)
    if x == 2:
        return x
    elif x <= y:
        if y:
            raise OSError(y)
    return not y
'''
# (line, before, after) of each guard mutant of SOURCE, in the order made.
GUARD_MUTANTS = [
    (2, "x < 1 and not y", "x < 1 or not y"),
    (2, "x < 1 and not y", "not (x < 1 and (not y))"),
    (2, "x < 1", "x >= 1"),
    (2, "x < 1", "x > 1"),
    (2, "not y", "y"),
    (2, "1", "2"),
    (4, "x in items or y", "x in items and y"),
    (4, "x in items or y", "not (x in items or y)"),
    (4, "x in items", "x not in items"),
    (8, "x <= y", "x > y"),
    (8, "x <= y", "x >= y"),
]


def test_guard_mutants():
    # The `if x == 2` guard returns, so it is not mutated, nor is the
    # `not y` that the function returns; `elif x <= y` raises in a
    # nested block, and `if y` has no operator to change.
    found = mutants.mutants(SOURCE, None, guards=True)
    assert [(line, before, after) for line, _, before, after, _ in found
            ] == GUARD_MUTANTS
    lines = SOURCE.splitlines(keepends=True)
    for line, col, before, after, text in found:
        # The node's text is replaced in place, in parentheses, and the
        # rest of the source is kept.
        row = lines[line - 1]
        assert row[col:col + len(before)] == before
        assert text == "".join(
            [*lines[:line - 1],
             row[:col] + f"({after})" + row[col + len(before):],
             *lines[line:]])
        ast.parse(text)


def test_lines_select_the_mutants():
    assert [(line, before, after) for line, _, before, after, _ in
            mutants.mutants(SOURCE, mutants.line_set("4-8"), guards=True)
            ] == [m for m in GUARD_MUTANTS if 4 <= m[0] <= 8]
