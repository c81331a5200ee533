"""Every name that a module of the package imports is used in it: an
import that nothing uses is dead code. The exceptions are listed below,
each with its reason."""

import ast
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
