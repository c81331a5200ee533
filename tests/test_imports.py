"""Every name that a module of the package imports is used in it: an
import that nothing uses is dead code. The exceptions are listed below,
each with its reason. And no module imports `dataclasses`, whose own
imports would add to every command's start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multishare"
TRACER = ROOT / "perfbench" / "tracing.py"

# (module, name): why the module imports a name it does not use. The
# benchmark's tracer wraps each of these at the name it is looked up by,
# and Tracer.patch raises for a name that is missing. They go once the
# tracer wraps the names the commands run instead (ROADMAP item 1b).
TRACER_ONLY = "looked up here by name by perfbench/tracing.py"
UNUSED = {
    ("cli", "encode_secret"): TRACER_ONLY,
    ("cli", "decode_secret"): TRACER_ONLY,
    ("protocol", "lagrange_zero_weights"): TRACER_ONLY,
}
# The package root imports the public names for the package's users.
REEXPORTS = {"__init__"}
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in REEXPORTS)


def unused_imports(module: str) -> list:
    """The names that `module` imports and never reads, sorted."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert [name for name in unused_imports(module)
            if (module, name) not in UNUSED] == []


def test_each_exception_still_holds():
    # An exception whose name is now used, or no longer imported, or no
    # longer looked up by the tracer, leaves the list.
    tracer = TRACER.read_text(encoding="utf-8")
    for (module, name), reason in UNUSED.items():
        assert name in unused_imports(module), (module, name)
        if reason == TRACER_ONLY:
            assert f'"{name}"' in tracer, (module, name)


# What importing `dataclasses` brings into a process besides itself: with
# it, about 12 ms of every command's start-up.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name


def modules_after(statement: str) -> set:
    """The modules a fresh interpreter holds after `statement`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"{statement}; import sys; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_start_up_imports_nothing_heavy():
    bare = modules_after("pass")
    added = modules_after("import multishare.cli") - bare
    assert "multishare.cli" in added
    assert sorted(added & HEAVY) == []
