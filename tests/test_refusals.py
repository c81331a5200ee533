"""Every refusal is a row of docs/refusals.md, and every row a refusal.

Each `raise` under src/multishare/ is read with ast, and its message made
a template: an f-string's variable parts read as {…}, module constants
are resolved, a conditional gives both arms, and `self.NAME` is the
string its class assigns to it. An exception whose constructor builds
its message (CliError, formats.UnreadableShare), and a helper that
raises with a message made of its arguments (HELPERS), are read at each
call with the arguments given there. Each template must match a row of
the table, each row some template, and each row's exit code must be the
one cli.main gives the class (CliError's first argument for a CliError).
The raises that are not refusals are listed in APART, each with its
reason, as tests/test_imports.py lists its exceptions."""

import argparse
import ast
import contextlib
import io
import itertools
import re
from pathlib import Path

import pytest

from multishare import cli, errors, formats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multishare"
TABLE = ROOT / "docs" / "refusals.md"

# A variable part of a message.
PART = "{…}"

# Helpers that raise with a message built from their arguments: each call
# is a refusal, read with the arguments it passes.
HELPERS = {"_failing_as", "_read_json"}

# (module, function, template): why a raise is not a row of the table.
# A ValueError is a row only where a caller turns it into a refusal.
GUARD = "a ValueError for a caller's mistake; no command reaches it"
APART = {
    ("cli", "_Parser.error", "64"):
        "argparse's own message, printed after the usage line; the usage "
        "table says so in prose",
    ("protocol", "reconstruct", PART):
        "Infeasible(detail), built in a variable: the `infeasible: ` row "
        "states its parts",
    ("formats", "manifest_from_dict", PART):
        "the KeyError's or TypeError's text, after `cannot read manifest "
        "{path}: `, whose row names it",
    ("protocol", "decode_secret", "no chunks"):
        "a share file holds at least one chunk, so no command decodes none",
    ("protocol", "SecretDecoder.close", "no chunks"):
        "a share file holds at least one chunk, so no command decodes none",
    ("simnet", "Simulation.owner_refresh", "nothing dealt yet"):
        "an Infeasible reached only in a state's replay, printed after "
        "`corrupt state: `, whose row names it, with that row's exit 2",
    ("simnet", "Simulation.owner_reconstruct", "nothing dealt yet"):
        "the owner's outcome in the report (attempt), not a refusal",
    ("simnet", "Simulation.owner_store", "the secret is already dealt"):
        "check_deal_order refuses a second deal first",
    ("protocol", "Topology.__post_init__", "mother index out of range"):
        "topology_from_dict passes the index of the one mother",
    ("protocol", "Topology.derivative_point",
     f"{PART} is not a daughter network"): GUARD,
    ("protocol", "lagrange_zero_weights", "duplicate x coordinates"):
        "check_shares refuses a node given twice first",
    ("protocol", "lagrange_zero_weights",
     "interpolation point x=0 is not allowed"):
        "node indices start at 1 (check_shares)",
    ("protocol", "NetworkRefresh.delta", "no such node"): GUARD,
    ("protocol", "apply_node_refresh",
     "refresh does not match share position"): GUARD,
    ("protocol", "apply_node_refresh", "delta epoch does not match share"):
        GUARD,
    ("protocol", "apply_node_refresh", "chunk count mismatch"): GUARD,
    ("protocol", "AdversaryKnowledge.add",
     f"no node {PART} in network {PART}"): GUARD,
    ("protocol", "AdversaryKnowledge.add", f"no {PART} of epoch {PART}"):
        GUARD,
    ("formats", "ShareValues.__getitem__",
     "a share file's values are read in order"): GUARD,
    ("field", "Block.__getitem__", "block index out of range"):
        "an IndexError for a caller's mistake; no command reaches it",
    ("field", "as_block", "a value is out of range for the modulus"):
        "a caller's mistake; each reader checks its values first",
    ("field", "from_words", "a value is out of range for the modulus"):
        "a chunk of chunk_size bytes is below the modulus",
    ("field", "from_hex", "a value is out of range for the modulus"):
        "the share reader re-raises it as CorruptData(OUT_OF_RANGE), a row",
    ("field", "from_hex", "an upper-case hex digit"):
        "the share reader re-raises it as CorruptData(NOT_FIXED_HEX), a row",
    ("field", "to_words", f"a value does not fit in {PART} bytes"):
        "SecretDecoder catches it and reports `chunk value out of range`, "
        "a row",
    ("field", "weighted_column_sum", "columns differ in length"): GUARD,
    ("field", "weighted_column_sum", "too many weights for one sum"): GUARD,
    ("field", "express_over_rows",
     "row length does not match vector length"): GUARD,
}


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def functions(tree, prefix=""):
    """(qualified name, node) of each function and class in `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from functions(node, f"{prefix}{node.name}.")
        else:
            yield from functions(node, prefix)


def constants() -> dict:
    """The package's module-level str and int constants, by name."""
    found = {}
    for tree in TREES.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and type(node.value.value) in (str, int)):
                found[node.targets[0].id] = node.value.value
    return found


CONSTANTS = constants()
# `self.NAME = <an f-string>` in any method: a message a class keeps.
ATTRIBUTES = {target.attr: node.value
              for tree in TREES.values() for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.JoinedStr)
              for target in node.targets
              if isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)
              and target.value.id == "self"}


def body(function):
    """The nodes of `function`, but not of the functions and classes
    defined in it."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            todo += ast.iter_child_nodes(node)


def templates(node, env) -> set:
    """The texts `node` may evaluate to, each variable part as PART. `env`
    maps a name to the (node, env) it is bound to."""
    if isinstance(node, ast.Constant):
        return {str(node.value)}
    if isinstance(node, ast.Name):
        if node.id in env:
            return templates(*env[node.id])
        if node.id in CONSTANTS:
            return {str(CONSTANTS[node.id])}
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr in ATTRIBUTES):
        return templates(ATTRIBUTES[node.attr], {})
    if isinstance(node, ast.IfExp):
        return templates(node.body, env) | templates(node.orelse, env)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return {a + b for a in templates(node.left, env)
                for b in templates(node.right, env)}
    if isinstance(node, ast.JoinedStr):
        parts = [templates(part.value, env)
                 if isinstance(part, ast.FormattedValue)
                 and part.conversion == -1 and part.format_spec is None
                 else templates(part, env)
                 if isinstance(part, ast.Constant) else {PART}
                 for part in node.values]
        return {"".join(texts) for texts in itertools.product(*parts)}
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        return {re.sub(r"\{[^}]*\}", PART, text)
                for text in templates(node.func.value, env)}
    return {PART}


def class_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr


def constructors() -> dict:
    """Each package class whose __init__ passes a message to
    super().__init__: its parameters, and that message."""
    found = {}
    for tree in TREES.values():
        for name, node in functions(tree):
            if not name.endswith(".__init__"):
                continue
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "__init__" and call.args):
                    params = [a.arg for a in node.args.args[1:]]
                    found[name.split(".")[-2]] = (params, call.args[0])
    return found


CONSTRUCTORS = constructors()


def bind(params, call, env) -> dict:
    return {**{p: (arg, env) for p, arg in zip(params, call.args)},
            **{k.arg: (k.value, env) for k in call.keywords}}


def raised(call: ast.Call, env):
    """(class, CliError's code node or None, message templates) of the
    exception that `call` makes."""
    cls = class_name(call)
    if cls in CONSTRUCTORS:
        params, message = CONSTRUCTORS[cls]
        bound = bind(params, call, env)
        code = bound.get("code")
        return cls, code, templates(message, bound)
    return cls, None, (templates(call.args[0], env) if call.args else set())


def sites() -> list:
    """(module, function, class, code, template) of each refusal that a
    raise under src/multishare/ can make; a raise in one of HELPERS is
    read at each call of the helper instead. `code` is CliError's, or
    None."""
    helpers = {}  # name: (parameters, the raise's call)
    for tree in TREES.values():
        for name, node in functions(tree):
            if name in HELPERS:
                call, = [r.exc for r in ast.walk(node)
                         if isinstance(r, ast.Raise) and r.exc]
                helpers[name] = ([a.arg for a in node.args.args], call)
    assert set(helpers) == HELPERS
    found = []
    for module, tree in TREES.items():
        for name, node in functions(tree):
            if not isinstance(node, ast.FunctionDef) or name in HELPERS:
                continue
            calls = []  # (the exception's call, its env)
            for inner in body(node):
                if isinstance(inner, ast.Raise) and isinstance(
                        inner.exc, ast.Call):
                    calls.append((inner.exc, {}))
                elif (isinstance(inner, ast.Call)
                      and isinstance(inner.func, ast.Name)
                      and inner.func.id in helpers):
                    params, call = helpers[inner.func.id]
                    calls.append((call, bind(params, inner, {})))
            for call, env in calls:
                cls, code, texts = raised(call, env)
                if code is not None:
                    code, = map(int, templates(*code))
                for text in texts:
                    found.append((module, name, cls, code, text))
    return found


SITES = sites()


def main_prints(monkeypatch, exc):
    """The exit code cli.main returns when a command raises `exc`, and
    what it prints after `error: `."""
    def command(args):
        raise exc

    monkeypatch.setattr(cli, "build_parser", lambda: argparse.Namespace(
        parse_args=lambda argv: argparse.Namespace(func=command)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([])
    assert err.getvalue().startswith("error: ")
    return code, err.getvalue()[len("error: "):-1]


def exception_class(name: str):
    for module in (errors, formats, cli):
        if isinstance(getattr(module, name, None), type):
            return getattr(module, name)
    return None


def row_regex(template: str):
    """A pattern that a row's message matches when `template` can print
    it: PART matches any text, the row's own {…} names included."""
    return re.compile(".*".join(map(re.escape, template.split(PART))))


def table_rows() -> list:
    """(exit code, message) of each row of docs/refusals.md."""
    text = TABLE.read_text(encoding="utf-8")
    return [(int(code), message) for code, message in re.findall(
        r"^\| (\d+) \| `([^`]+)` \|", text, re.M)]


@pytest.fixture(scope="module")
def refusals():
    """(code, template, where) of each refusal: every raise outside APART,
    a ValueError at exit 2, where a caller wraps it; and each prefix
    cli.main adds to a message of a class, at that class's code."""
    found = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module, function, cls, code, text in SITES:
            if (module, function, text) in APART:
                continue
            where = f"{module}.{function}"
            if code is not None:
                found.append((code, text, where))
            elif cls == "ValueError":
                found.append((cli.EXIT_INPUT, text, where))
            else:
                exc = exception_class(cls)
                assert exc is not None, (where, cls)
                instance = exc.__new__(exc)
                Exception.__init__(instance, text)
                printed = main_prints(monkeypatch, instance)
                found.append((printed[0], text, where))
        for exc in vars(errors).values():
            if isinstance(exc, type) and issubclass(exc, Exception):
                code, printed = main_prints(monkeypatch, exc("MESSAGE"))
                prefix = printed[:-len("MESSAGE")]
                if prefix:
                    found.append((code, prefix + PART,
                                  f"cli.main {exc.__name__}"))
    return found


def test_every_refusal_is_a_row(refusals):
    rows = table_rows()
    assert [(code, text, where) for code, text, where in refusals
            if not any(row_regex(text).fullmatch(message)
                       for _, message in rows)] == []


def test_every_row_is_a_refusal(refusals):
    # A row whose refusal was deleted or reworded cannot stay.
    assert [(code, message) for code, message in table_rows()
            if not any(row_regex(text).fullmatch(message)
                       for _, text, _ in refusals)] == []


def test_each_row_has_its_refusals_exit_code(refusals):
    assert [(code, message, where, expected)
            for code, message in table_rows()
            for expected, text, where in refusals
            if row_regex(text).fullmatch(message) and code != expected] == []


def test_each_row_is_stated_once():
    messages = [message for _, message in table_rows()]
    assert sorted(m for m in messages if messages.count(m) > 1) == []


def test_each_apart_raise_is_still_there():
    # A raise listed apart that is gone, or reworded, leaves the list.
    found = {(module, function, text)
             for module, function, _, _, text in SITES}
    assert sorted(set(APART) - found) == []
