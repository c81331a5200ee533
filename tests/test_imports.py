"""Every name that a module of the package imports is used in it, and
every function, method and class it defines is named somewhere else in
the package: an import or a definition that nothing uses is dead code.
The exceptions are listed below, each with its reason. No module
imports `dataclasses`, whose own imports would add to every command's
start-up. And no test module imports another."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from multishare.simnet import EVENTS

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


def references(tree) -> Counter:
    """How often each name is read in `tree`: as a name, as an attribute,
    or as a name imported from a module."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def definitions(tree, prefix=""):
    """(qualified name, node) of each function, method and class defined
    in `tree`, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def unreferenced_definitions() -> list:
    """(module, qualified name) of each definition in the package, dunder
    methods aside, whose name is read nowhere in the package outside its
    own body. Names are matched by spelling alone, so a definition that
    shares its name with something in use is not caught."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    package = sum(map(references, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if package[name] == references(node)[name]:
                found.append((module, qualified))
    return found


# (module, qualified name): why a definition that the package does not
# name is kept, besides those named by perfbench/tracing.py (which wraps
# them by name) and the Simulation methods that simnet.EVENTS names.
UNREFERENCED = {
    ("cli", "_Parser.error"): "argparse calls it on a usage error",
    ("protocol", "Topology._make"): "NamedTuple's _replace calls it, so "
                                    "that a replaced topology is checked",
}


def test_every_definition_is_used():
    tracer = TRACER.read_text(encoding="utf-8")
    dispatched = {method for method, _ in EVENTS.values()}
    assert [(module, qualified)
            for module, qualified in unreferenced_definitions()
            if (module, qualified) not in UNREFERENCED
            and f'"{qualified.rpartition(".")[2]}"' not in tracer
            and not (module == "simnet"
                     and qualified.startswith("Simulation.")
                     and qualified[len("Simulation."):] in dispatched)
            ] == []


def test_each_kept_definition_is_still_unreferenced():
    # A definition that the package now names, or that is gone, leaves
    # the list.
    found = unreferenced_definitions()
    for key in UNREFERENCED:
        assert key in found, key


# What importing `dataclasses` brings into a process besides itself: with
# it, about 12 ms of every command's start-up.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def imported_modules(path: Path) -> list:
    """The module that each import statement in file `path` names (None
    for `from . import ...`)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module)
    return names


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in imported_modules(path), path.name


def test_no_test_module_imports_another():
    # What several test modules share lives in tests/support.py and
    # tests/reference.py, so that each test module reads and runs alone.
    assert [(path.name, name)
            for path in sorted((ROOT / "tests").glob("*.py"))
            for name in imported_modules(path)
            if name and name.split(".")[0].startswith("test_")] == []


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


def test_link_kind_is_named_where_topologies_are_made():
    # A network's link follows from its role: the mother's is ITS, each
    # daughter's classical. Topology checks that and formats reads it;
    # the simulator asks whether a network is the mother.
    naming = {path.name for path in SRC.glob("*.py") if references(
        ast.parse(path.read_text(encoding="utf-8")))["LinkKind"]}
    assert naming == {"protocol.py", "formats.py", "__init__.py"}


def history_appends(tree) -> int:
    """How many calls `history.append(...)` there are in `tree`."""
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "append"
               and isinstance(node.func.value, ast.Attribute)
               and node.func.value.attr == "history"
               for node in ast.walk(tree))


def test_history_is_recorded_in_one_place():
    # Each history entry is built from EVENTS, in Simulation._record.
    tree = ast.parse((SRC / "simnet.py").read_text(encoding="utf-8"))
    record = dict(definitions(tree))["Simulation._record"]
    assert history_appends(tree) == history_appends(record) == 1
