"""The mutants of tools/mutants.py: exactly the changes its docstring
lists, anywhere by default, and with --guards in the test of each `if`,
`elif` and `while` whose body raises and in no other, each named after
the function it lies in. The mutation checks that justify deleting a
test rest on the guard mutants, and those of a routine's arithmetic on
the default ones."""

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


class C:
    def g(self, x):
        def inner():
            if x is None:
                raise TypeError(x)
        return inner


if __name__ != "__main__":
    raise SystemExit(1)
'''
# (line, function, before, after) of each guard mutant of SOURCE, in the
# order made.
GUARD_MUTANTS = [
    (22, "<module>", '__name__ != "__main__"', "__name__ == '__main__'"),
    (2, "f", "x < 1 and not y", "x < 1 or not y"),
    (2, "f", "x < 1 and not y", "not (x < 1 and (not y))"),
    (2, "f", "x < 1", "x >= 1"),
    (2, "f", "x < 1", "x > 1"),
    (2, "f", "not y", "y"),
    (2, "f", "1", "2"),
    (4, "f", "x in items or y", "x in items and y"),
    (4, "f", "x in items or y", "not (x in items or y)"),
    (4, "f", "x in items", "x not in items"),
    (8, "f", "x <= y", "x > y"),
    (8, "f", "x <= y", "x >= y"),
    (17, "C.g.inner", "x is None", "x is not None"),
]
# (line, function, before, after) of every mutant of SOURCE, in the order
# made: a walk of the tree, breadth first.
ALL_MUTANTS = [
    (22, "<module>", '__name__ != "__main__"', "__name__ == '__main__'"),
    (2, "f", "x < 1 and not y", "x < 1 or not y"),
    (2, "f", "x < 1 and not y", "not (x < 1 and (not y))"),
    (4, "f", "x in items or y", "x in items and y"),
    (4, "f", "x in items or y", "not (x in items or y)"),
    (6, "f", "x == 2", "x != 2"),
    (11, "f", "not y", "y"),
    (2, "f", "x < 1", "x >= 1"),
    (2, "f", "x < 1", "x > 1"),
    (2, "f", "not y", "y"),
    (4, "f", "x in items", "x not in items"),
    (6, "f", "2", "3"),
    (8, "f", "x <= y", "x > y"),
    (8, "f", "x <= y", "x >= y"),
    (23, "<module>", "1", "2"),
    (2, "f", "1", "2"),
    (17, "C.g.inner", "x is None", "x is not None"),
]


def named(found) -> list:
    """(line, function, before, after) of each mutant in `found`."""
    return [(line, function, before, after)
            for line, _, function, before, after, _ in found]


def check_in_place(found, source=SOURCE):
    """Each mutant replaces its node's text in place, in parentheses, and
    keeps the rest of the source, which still parses."""
    lines = source.splitlines(keepends=True)
    for line, col, _, before, after, text in found:
        row = lines[line - 1]
        assert row[col:col + len(before)] == before
        assert text == "".join(
            [*lines[:line - 1],
             row[:col] + f"({after})" + row[col + len(before):],
             *lines[line:]])
        ast.parse(text)


def test_guard_mutants():
    # The `if x == 2` guard returns, so it is not mutated, nor is the
    # `not y` that the function returns; `elif x <= y` raises in a
    # nested block, and `if y` has no operator to change. Each mutant is
    # named after the function it lies in, a nested one by its path, and
    # the module's guard after `<module>`.
    found = mutants.mutants(SOURCE, None, guards=True)
    assert named(found) == GUARD_MUTANTS
    check_in_place(found)


def test_all_mutants():
    # Without --guards, every comparison, boolean operator, `not` and int
    # constant is changed, guard or not: the `if x == 2` that returns, the
    # `not y` that the function returns, and the constant 2.
    found = mutants.mutants(SOURCE, None, guards=False)
    assert named(found) == ALL_MUTANTS
    assert set(GUARD_MUTANTS) <= set(ALL_MUTANTS)
    check_in_place(found)


# Arithmetic and bitwise operators: `+`, `-`, `<<`, `>>`, `&` and `|`
# are swapped, `*` is not.
ARITHMETIC = '''\
def h(x, y):
    if x + 1 > y:
        raise ValueError(x - y)
    return (x << 2 | y >> 1) & x * 3
'''


def test_arithmetic_and_bitwise_swaps():
    # With --guards, only the `+` in the guard's test is swapped, beside
    # the guard's comparison and constant.
    found = mutants.mutants(ARITHMETIC, None, guards=True)
    assert named(found) == [
        (2, "h", "x + 1 > y", "x + 1 <= y"),
        (2, "h", "x + 1 > y", "x + 1 < y"),
        (2, "h", "x + 1", "x - 1"),
        (2, "h", "1", "2"),
    ]
    check_in_place(found, ARITHMETIC)
    found = mutants.mutants(ARITHMETIC, None, guards=False)
    assert named(found) == [
        (2, "h", "x + 1 > y", "x + 1 <= y"),
        (2, "h", "x + 1 > y", "x + 1 < y"),
        (4, "h", "(x << 2 | y >> 1) & x * 3", "x << 2 | y >> 1 | x * 3"),
        (2, "h", "x + 1", "x - 1"),
        (4, "h", "x << 2 | y >> 1", "x << 2 & y >> 1"),
        (2, "h", "1", "2"),
        (3, "h", "x - y", "x + y"),
        (4, "h", "x << 2", "x >> 2"),
        (4, "h", "y >> 1", "y << 1"),
        (4, "h", "3", "4"),
        (4, "h", "2", "3"),
        (4, "h", "1", "2"),
    ]
    check_in_place(found, ARITHMETIC)


def test_lines_select_the_mutants():
    for guards, made in ((True, GUARD_MUTANTS), (False, ALL_MUTANTS)):
        assert named(mutants.mutants(SOURCE, mutants.line_set("4-8"),
                                     guards)) == [
            m for m in made if 4 <= m[0] <= 8]


# A `git diff -U0` of SOURCE: hunks that change line 2, add lines 6 and 7,
# delete only, and change one line into three (17-19), with a content
# line that looks like a hunk header.
DIFF = """\
diff --git a/x.py b/x.py
index 0123456..89abcde 100644
--- a/x.py
+++ b/x.py
@@ -2 +2 @@ def f(x, y, items):
-    if x <= 1 and not y:
+    if x < 1 and not y:
@@ -5,0 +6,2 @@ def f(x, y, items):
+    if x == 2:
+        return x
@@ -9,2 +10,0 @@ def f(x, y, items):
-@@ -1 +1 @@
-    pass
@@ -16 +17,3 @@ class C:
-        def inner(): pass
+        def inner():
+            if x is None:
+                raise TypeError(x)
"""


def test_diff_lines():
    lines = mutants.diff_lines(DIFF)
    assert lines == {2, 6, 7, 17, 18, 19}
    assert named(mutants.mutants(SOURCE, lines, guards=True)) == [
        m for m in GUARD_MUTANTS if m[0] in lines]
    assert mutants.diff_lines("") == set()


def test_line_set():
    assert mutants.line_set("3,7-9") == {3, 7, 8, 9}
    assert mutants.line_set("5") == {5}


def test_selections_exist():
    # Every test module that a default selection names is a file.
    assert [name for names in mutants.TESTS.values() for name in names
            if not (ROOT / "tests" / f"{name}.py").is_file()] == []
