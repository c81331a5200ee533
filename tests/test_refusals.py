"""Every refusal is a row of docs/refusals.md, every row a refusal, and
every row is run.

The table is tied to the code both ways. Each `raise` under
src/multishare/ is read with ast, and its message made a template: an
f-string's variable parts read as {…}, module constants are resolved, a
conditional gives both arms, and `self.NAME` is the string its class
assigns to it. An exception whose constructor builds its message
(CliError, formats.UnreadableShare), and a helper that raises with a
message made of its arguments (HELPERS), are read at each call with the
arguments given there. Each template must match a row of the table, and
each row some template. The raises that are not refusals are listed in
APART, each with its reason, as tests/test_imports.py lists its
exceptions.

And each row is made to happen. A trigger (TRIGGERS) is an input that
makes a command refuse: an edit of the workspace that every case starts
from (a topology, a secret, a dealt vault and a scenario), a change to
the command line, or a fault that a hook injects. It names the rows its
refusal prints, outermost first, with their variable parts. It is run in
process under each command that all of those rows list, and the command
must exit with the rows' code, print on stderr `error: ` and the rows
filled in, one inside the next, print nothing on stdout, and leave every
file and directory of the workspace as it was. Every row is printed so
under every command it lists, but the few in UNTRIGGERED, each of which
names the test that prints it."""

import argparse
import ast
import contextlib
import errno
import fcntl
import io
import itertools
import json
import operator
import os
import re
import struct
from pathlib import Path
from typing import NamedTuple

import pytest

from multishare import cli, errors, formats, vault
from multishare.field import (BLOCK_WORDS, DEFAULT_MODULUS,
                              deterministic_rng)
from multishare.formats import canonical_json, topology_to_dict
from multishare.protocol import deal, encode_secret
from support import (DEEP, DELETE, ESCAPING_IDS, INJECTED, NONCANONICAL_HEX,
                     FaultyFiles, at, bounded, make_topology, run,
                     state_file, tree)

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
    ("vault", "appending.append", f"cannot write {PART}: not a file name"):
        "a path without a name (`.`, `/`) is a directory, which every "
        "command refuses as an output first (exit 64)",
    ("protocol", "decode_secret", "no chunks"):
        "a share file holds at least one chunk, so no command decodes none",
    ("protocol", "SecretDecoder.close", "no chunks"):
        "a share file holds at least one chunk, so no command decodes none",
    ("simnet", "Simulation.owner_refresh", "nothing dealt yet"):
        "check_deal_order refuses a refresh before the deal first, in a "
        "schedule run on a --state and in a state's history",
    ("simnet", "Simulation.owner_reconstruct", "nothing dealt yet"):
        "the owner's outcome in the report (attempt), not a refusal",
    ("simnet", "Simulation.owner_store", "the secret is already dealt"):
        "check_deal_order refuses a second deal first",
    ("protocol", "Topology.__post_init__", "mother index out of range"):
        "topology_from_dict passes the index of the one mother",
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



def raised(call: ast.Call, env) -> set:
    """The message templates of the exception that `call` makes."""
    cls = class_name(call)
    if cls in CONSTRUCTORS:
        params, message = CONSTRUCTORS[cls]
        return templates(message, bind(params, call, env))
    return templates(call.args[0], env) if call.args else set()


def sites() -> list:
    """(module, function, template) of each refusal that a raise under
    src/multishare/ can make; a raise in one of HELPERS is read at each
    call of the helper instead."""
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
                found += [(module, name, text) for text in raised(call, env)]
    return found


SITES = sites()


def main_prints(monkeypatch, exc) -> str:
    """What cli.main prints after `error: ` when a command raises `exc`."""
    def command(args):
        raise exc

    monkeypatch.setattr(cli, "build_parser", lambda: argparse.Namespace(
        parse_args=lambda argv: argparse.Namespace(func=command)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        cli.main([])
    assert err.getvalue().startswith("error: ")
    return err.getvalue()[len("error: "):-1]


def row_regex(template: str):
    """A pattern that a row's message matches when `template` can print
    it: PART matches any text, the row's own {…} names included."""
    return re.compile(".*".join(map(re.escape, template.split(PART))))


COMMANDS = ("deal", "refresh", "reconstruct", "thresholds", "simulate")


class Row(NamedTuple):
    code: int
    section: str
    commands: tuple  # `all` in the table: COMMANDS


def table_rows() -> list:
    """(message, Row) of each row of docs/refusals.md, in order."""
    rows, section = [], None
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            section = line[3:]
        elif re.match(r"\| \d", line):
            code, message, commands = re.fullmatch(
                r"\| (\d+) \| `([^`]+)` \| .* \| ([a-z, ]+) \|", line).groups()
            rows.append((message, Row(int(code), section, COMMANDS
                                      if commands == "all"
                                      else tuple(commands.split(", ")))))
    return rows


ROWS = dict(table_rows())


@pytest.fixture(scope="module")
def refusals():
    """(template, where) of each refusal: every raise outside APART, and
    each prefix that cli.main adds to the message of an error class."""
    found = [(text, f"{module}.{function}")
             for module, function, text in SITES
             if (module, function, text) not in APART]
    with pytest.MonkeyPatch.context() as monkeypatch:
        for exc in vars(errors).values():
            if isinstance(exc, type) and issubclass(exc, Exception):
                printed = main_prints(monkeypatch, exc("MESSAGE"))
                if printed != "MESSAGE":
                    found.append((printed[:-len("MESSAGE")] + PART,
                                  f"cli.main {exc.__name__}"))
    return found


def test_every_refusal_is_a_row(refusals):
    assert [(text, where) for text, where in refusals
            if not any(map(row_regex(text).fullmatch, ROWS))] == []


def test_every_row_is_a_refusal(refusals):
    # A row whose refusal was deleted or reworded cannot stay.
    assert [message for message in ROWS
            if not any(row_regex(text).fullmatch(message)
                       for text, _ in refusals)] == []


def test_each_row_is_stated_once():
    messages = [message for message, _ in table_rows()]
    assert sorted(m for m in messages if messages.count(m) > 1) == []


def test_each_apart_raise_is_still_there():
    # A raise listed apart that is gone, or reworded, leaves the list.
    found = {(module, function, text) for module, function, text in SITES}
    assert sorted(set(APART) - found) == []


# -- The rows run -------------------------------------------------------

SECRET = b"the crown jewels " * 3  # four chunks at the default modulus
SCHEDULE = [{"event": "deal"}, {"event": "refresh"}]
# Seeded files that a case starts without, for triggers to copy in: a
# vault of another deal of the same secret, and the state that a run of
# the scenario saves.
SPARE = ("other/", "world.state")


@pytest.fixture(scope="module")
def seeded(tmp_path_factory) -> dict:
    """The bytes of every file of the workspace and of every spare, by its
    path relative to the workspace."""
    root = tmp_path_factory.mktemp("seed")
    doc = topology_to_dict(make_topology(DEFAULT_MODULUS))
    (root / "topology.json").write_text(json.dumps(doc))
    (root / "secret.bin").write_bytes(SECRET)
    (root / "scenario.json").write_text(json.dumps(
        {"topology": doc, "secret_hex": SECRET.hex(), "schedule": SCHEDULE}))
    for out, seed in (("shares", 1), ("other", 8)):
        assert run(["deal", "--topology", root / "topology.json", "--secret",
                    root / "secret.bin", "--out", root / out,
                    "--seed", seed]) == 0
    assert run(["simulate", "--scenario", root / "scenario.json", "--state",
                root / "world.state", "--report", root / "report.json"]) == 0
    (root / "report.json").unlink()
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Workspace(NamedTuple):
    root: Path
    seed: dict
    monkeypatch: pytest.MonkeyPatch

    def write(self, rel: str, data: bytes) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def read_json(self, rel: str):
        return json.loads((self.root / rel).read_bytes())


@pytest.fixture
def workspace(tmp_path, seeded, monkeypatch) -> Workspace:
    w = Workspace(tmp_path, seeded, monkeypatch)
    for rel, data in seeded.items():
        if not rel.startswith(SPARE):
            w.write(rel, data)
    return w


class P(str):
    """A path in the workspace, relative to it."""


class Reason:
    """The text of the error that call(*args) raises: what a refusal quotes
    of the operating system or the JSON parser. A P in `args` is the path
    in the workspace."""

    def __init__(self, call, *args):
        self.call, self.args = call, args


def resolve(value, root: Path):
    if isinstance(value, P):
        return str(root / value)
    if isinstance(value, Reason):
        with pytest.raises(Exception) as err:
            value.call(*(resolve(a, root) for a in value.args))
        return str(err.value)
    return value


def oserror(code: int, path: str):
    raise OSError(code, os.strerror(code), path)


def decoded(payload: bytes):
    """A state file's payload, as load_state reads it."""
    return json.loads(payload.decode("utf-8"))


# Each command's command line, but for the changes a trigger makes.
ARGV = {
    "deal": ("--topology", P("topology.json"), "--secret", P("secret.bin"),
             "--out", P("new")),
    "refresh": ("--topology", P("topology.json"), "--shares", P("shares")),
    "reconstruct": ("--topology", P("topology.json"), "--shares",
                    P("shares"), "--out", P("r.bin")),
    "thresholds": ("--topology", P("topology.json")),
    "simulate": ("--scenario", P("scenario.json"), "--report",
                 P("report.json")),
}


def command_line(command: str, changes: dict, root: Path) -> list:
    options = dict(zip(ARGV[command][::2], ARGV[command][1::2]))
    options.update(changes)
    files = options.pop("files", ())
    argv = [command]
    for option, value in options.items():
        argv += ([] if value is None else [option] if value is True
                 else [option, value])
    return [resolve(a, root) for a in [*argv, *files]]


class Trigger(NamedTuple):
    """An input that makes a command refuse. `chain` is the rows printed,
    outermost first: a row is its message, or a tuple of its message and
    its parts in order, and a chain of one row may be that row; or
    {command: chain}. `setup` edits the workspace and installs hooks, in
    turn; a step may return the function that runs the command line.
    `argv` changes ARGV: an option given None is dropped, and one given
    True is a flag; "files" are the share files listed. `commands` are
    those of the rows' commands it is run under, all of them when
    empty."""
    chain: object
    setup: tuple
    argv: dict
    commands: tuple


def T(chain, *setup, argv=None, commands=()) -> Trigger:
    return Trigger(chain, setup, argv or {}, commands)


# What a command prints before the rows of a table: simulate reads its
# topology inside the scenario, and reconstruct prints the share set's
# refusals (but those of exit code 3) after `corrupt shares: `.
WRAPS = {("Topology file", "simulate"): "cannot load scenario: {reason}",
         ("Share set", "reconstruct"): "corrupt shares: {reason}"}


def row_of(message: str) -> Row:
    """The row of a message that a chain names (ARMS)."""
    return ROWS[ARMS.get(message, message)]


def chain_of(trigger: Trigger, command: str) -> list:
    chain = trigger.chain
    chain = chain[command] if isinstance(chain, dict) else chain
    return [(row,) if isinstance(row, str) else row
            for row in ([chain] if isinstance(chain, (str, tuple))
                        else chain)]


def rows_of(trigger: Trigger, command: str) -> list:
    """(message, *parts) of each row that `trigger` prints under
    `command`, outermost first, WRAPS's prefix included."""
    chain = chain_of(trigger, command)
    outer = chain[0][0]
    wrap = WRAPS.get((row_of(outer).section, command))
    if wrap not in (None, outer) and ROWS[wrap].code == row_of(outer).code:
        chain = [(wrap,), *chain]
    return chain


def commands_of(trigger: Trigger) -> tuple:
    """The commands `trigger` is run under: those that each of its rows
    lists, or that its chain is given for."""
    if trigger.commands:
        return trigger.commands
    if isinstance(trigger.chain, dict):
        return tuple(trigger.chain)
    return tuple(command for command in COMMANDS if all(
        command in row_of(message).commands
        for message, *_ in chain_of(trigger, command)))


def printed(rows: list, root: Path) -> str:
    """The rows filled in, each in the last {…} of the one before."""
    text = None
    for message, *parts in reversed(rows):
        values = [str(resolve(part, root)) for part in parts]
        values += [] if text is None else [text]
        assert len(re.findall(r"\{[^}]*\}", message)) == len(values), message
        values = iter(values)
        text = re.sub(r"\{[^}]*\}", lambda _: next(values), message)
    return text


# Edits of the workspace. A change is a function of a JSON document, or
# the path of an entry in it and the entry's new value (support.at).
def change(args) -> callable:
    return args[0] if len(args) == 1 else lambda doc: at(doc, *args)


def as_json(doc) -> bytes:
    return json.dumps(doc).encode()


def as_share(doc) -> bytes:
    return canonical_json(doc) + b"\n"


def edit(rel: str, encode, *args):
    return lambda w: w.write(rel, encode(change(args)(w.read_json(rel))))


def topology(*args):
    """The topology changed, in its file and in the scenario."""
    def setup(w):
        doc = change(args)(w.read_json("topology.json"))
        w.write("topology.json", as_json(doc))
        w.write("scenario.json", as_json(
            {**w.read_json("scenario.json"), "topology": doc}))
    return setup


def share(rel: str, *args):
    return edit(rel, as_share, *args)


def manifest(*args):
    return edit(MANIFEST, as_json, *args)


def scenario(*args):
    return edit("scenario.json", as_json, *args)


def state(*args):
    """The saved state, its payload changed."""
    return write("world.state", lambda seed: state_file(as_json(
        change(args)(json.loads(seed["world.state"][12:])))))


def write(rel: str, data):
    """`rel` written with `data`: bytes, or a function of the seed."""
    return lambda w: w.write(rel, data(w.seed) if callable(data) else data)


def copy(src: str, dst: str):
    return write(dst, operator.itemgetter(src))


def v1(doc) -> dict:
    """The share file `doc` in share format v1."""
    return {**doc, "format_version": 1,
            "values": [format(int(v, 16), "x") for v in doc["values"]]}


def cut(rel: str, size: int):
    """`rel` cut to its first `size` bytes."""
    return write(rel, lambda seed: seed[rel][:size])


def remove(*rels):
    def setup(w):
        for rel in rels:
            (w.root / rel).unlink()
    return setup


def here(w):
    """The command runs with the workspace as its working directory."""
    w.monkeypatch.chdir(w.root)


def no_chunks(w):
    """Every share file says chunk_count 0 and holds no value."""
    for rel in SHARES:
        share(rel, lambda doc: {**doc, "chunk_count": 0, "values": []})(w)


def mkdir(rel: str):
    return lambda w: (w.root / rel).mkdir()


def symlink(rel: str, target):
    """`rel` made a symbolic link to `target`, a P or a path."""
    return lambda w: (w.root / rel).symlink_to(resolve(target, w.root))


def fifo(rel: str):
    """`rel` made a FIFO, in place of any file there. A command that opened
    it to read would wait for a writer, so the case runs bounded."""
    def setup(w):
        (w.root / rel).unlink(missing_ok=True)
        os.mkfifo(w.root / rel)
        return bounded
    return setup


def daughters(count: int, modulus: str = "101", outer: int = 1):
    """The topology at `modulus` (q = 257 by default) of outer degree
    `outer`, with `count` daughters like d1."""
    return topology(lambda doc: {
        **doc, "modulus": modulus, "outer_degree": outer, "networks": [
            doc["networks"][0], *({**doc["networks"][1], "id": f"d{a}"}
                                  for a in range(1, count + 1))]})


def given_twice(rel: str, lists):
    """The share file `rel` with "values" given twice, the two lists
    lists(its own, those of D2_1) as they are written."""
    def setup(w):
        whole, other = w.seed[rel], w.seed[D2_1]
        head = whole[:whole.index(b"[")]
        first, last = lists(whole[len(head):-2], other[other.index(b"["):-2])
        w.write(rel, head + first + b',"values":' + last + b"}\n")
    return setup


def last_value(spell):
    """A share file's first value in its last block that holds a letter,
    spelt spell(value)."""
    def change(doc):
        values = doc["values"]
        i = next(i for i in range(BLOCK_WORDS + 1, len(values))
                 if re.search("[a-f]", values[i]))
        return at(doc, ["values", i], spell)
    return change


def last_digit(rel: str, byte: bytes):
    """The first digit of the last value of `rel` replaced by `byte`."""
    def setup(w):
        data = (w.root / rel).read_bytes()
        i = data.rindex(b',"') + 2
        w.write(rel, data[:i] + byte + data[i + 1:])
    return setup


def vault_of(chunks: list):
    """The vault replaced by a deal of `chunks` under the topology file's
    topology: chunks that decode to no secret."""
    def setup(w):
        topology = formats.topology_from_dict(w.read_json("topology.json"))
        q = topology.modulus
        remove(*SHARES)(w)
        for shares in deal(chunks, topology, deterministic_rng(0)).values():
            for s in shares:
                name = vault.SHARE_NAME.format(s.network_id, s.node_index)
                w.write(f"shares/{name}",
                        formats.share_file_block(s, q, 0, len(chunks)))
        w.write(MANIFEST, as_share(formats.manifest_dict(
            formats.topology_digest(topology), len(chunks), 0, [])))
    return setup


# Hooks.
def faulty(k: int):
    """The k-th file mutation fails (FaultyFiles)."""
    return lambda w: lambda argv: FaultyFiles(k).run(w.monkeypatch, argv)


def unlistable(rel: str):
    """Listing `rel` fails as it would without read permission, which a
    directory still gives root."""
    def setup(w):
        path, iterdir = w.root / rel, Path.iterdir
        w.monkeypatch.setattr(Path, "iterdir", lambda p: oserror(
            errno.EACCES, str(p)) if p == path else iterdir(p))
    return setup


def in_use(rel: str):
    """The directory `rel` is locked while the command runs, as another
    command would hold it."""
    def setup(w):
        def runner(argv):
            with vault.locked(w.root / rel):
                return run(argv)
        return runner
    return setup


def lockless(w):
    """The file system takes no lock."""
    def flock(fd, operation):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))
    w.monkeypatch.setattr(fcntl, "flock", flock)


def opened(secret_file):
    """deal opens its secret as the io.FileIO subclass `secret_file`."""
    return lambda w: w.monkeypatch.setattr(
        cli, "open", lambda path, mode: secret_file(path), raising=False)


class Unreadable(io.FileIO):
    def read(self, n=-1):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


class Shrunk(io.FileIO):
    """A file that ends a byte before its size."""

    def read(self, n=-1):
        return super().read(n)[:-1]


def touched(w):
    """Each share file is rewritten, by its modification time, as a block
    of it is about to be read."""
    real = formats.ShareValues.__getitem__

    def read(values, index):
        info = os.stat(values.path)
        os.utime(values.path, ns=(info.st_atime_ns, info.st_mtime_ns + 1))
        return real(values, index)

    w.monkeypatch.setattr(formats.ShareValues, "__getitem__", read)


# Rows that wrap others, and texts that several triggers print.
READ_TOPOLOGY = "cannot read topology {path}: {reason}"
INVALID = "invalid topology: {reason}"
CHUNKING = "modulus must be at least 2^16 for byte chunking"
READ_SHARE = "cannot read share {path}: {reason}"
READ_MANIFEST = "cannot read manifest {path}: {reason}"
LOAD_SCENARIO = "cannot load scenario: {reason}"
MALFORMED = "malformed scenario: {reason}"
FIT = "event {event} does not fit the topology: {reason}"
RUN = "cannot run the schedule: {reason}"
LOAD_STATE = "cannot load state: {reason}"
CORRUPT_STATE = "corrupt state: {reason}"
INTEGER = "{key} must be an integer, not {value}"
NOT_HEX = "a hex value is not lowercase hex without leading zeros"
HEX = "a value is not lowercase hex of {digits} digits"
SIZE = ("the file has {size} bytes, not the {expected} that its chunk_count "
        "of {count} values of {digits} hex digits gives")
NOT_CANONICAL = ("not in the layout the tools write (canonical JSON and a "
                 "newline)")
VERSION = "unsupported format_version {version}"
COUNT = "chunk_count does not match values"
DIR = "cannot read directory {dir}: {reason}"
IN_USE = "{dir} is in use by another multishare command"
NO_LOCKS = str(OSError(errno.ENOLCK, os.strerror(errno.ENOLCK)))
GIVES = "{path} gives {field} {value}, the share files {theirs}"
STALE = "{path} lists as stale nodes that {fault}: {nodes}"
NOT_A_NODE = "share {network}/{node} is not a node of the topology"
TWICE = "share {network}/{node} given twice"
NOT_REGULAR = "{option} {path} is not a regular file"
VAULT_FILE = "--out {path} is a file of the vault in {dir}"
HOLDS = ("{dir} already holds a vault ({names}, ...); deal into a new "
         "directory")
# HOLDS as a list of three names or fewer prints it, without `, ...`.
HOLDS_FEW = "{dir} already holds a vault ({names}); deal into a new directory"
# Each message that a conditional part prints other than its row states
# it, and the row's message.
ARMS = {HOLDS_FEW: HOLDS}
INPUT = "{option} {path} is the {what} file {input}"
WRITE = "cannot write {path}: {reason}"
FAILED = "{command} failed, no file changed: {reason}"
DEALT_TWICE = ("the secret is dealt once and then refreshed; this schedule "
               "deals it again")
EARLY_REFRESH = "this schedule refreshes before the secret is dealt"
DIFFERS = "the state's {what} {verb} from the scenario's"

M1 = "shares/m_001.share.json"
M2 = "shares/m_002.share.json"
D1_1 = "shares/d1_001.share.json"
D1_2 = "shares/d1_002.share.json"
D2_1 = "shares/d2_001.share.json"
D2_2 = "shares/d2_002.share.json"
D2_3 = "shares/d2_003.share.json"
MANIFEST = "shares/manifest.json"
STAGED = "shares/m_001.share.json.staged-1"
SHARES = [f"shares/{n}_00{j}.share.json" for n in ("d1", "d2", "m")
          for j in (1, 2, 3)]
QUORUM = [P(f"shares/{n}.share.json")
          for n in ("m_001", "m_002", "d1_001", "d1_002")]
LISTED = {"--shares": None, "files": QUORUM}
STATE = {"--state": P("world.state")}
INTO_EMPTY = {"--out": P("empty")}
# The bytes of a share file of the workspace's mother up to `"values":`.
VALUES_AT = 132
# A vault of two blocks.
LONG_COUNT = BLOCK_WORDS + 9
LONG_SIZE = 143814  # the bytes of its share file of d1/2
LONG = vault_of([0] * LONG_COUNT)


def last_plus_one(text: str) -> str:
    return f"{(int(text, 16) + 1) % DEFAULT_MODULUS:032x}"


def event(ev: dict):
    """The scenario with `ev` after its schedule."""
    return scenario(["schedule"], [*SCHEDULE, ev])


# Each output option, and the command it is given to.
OUTPUTS = (("--out", "reconstruct"), ("--report", "simulate"),
           ("--state", "simulate"))

EV_FIELD = {"event": "attempt_reconstruct", "actr": "adversary"}
EV_NO_NODE = {"event": "release_node", "network": "m"}
EV_NODE_STR = {"event": "release_node", "network": "d1", "node": "1"}
EV_NETWORK = {"event": "compromise_network", "network": "d3"}
EV_NODE = {"event": "compromise_node", "network": "d1", "node": 7}
EV_FAIL_D9 = {"event": "fail_node", "network": "d9", "node": 1}
EV_NODES = {"event": "compromise_node", "network": "d1", "node": 1,
            "nodes": [2]}
EV_NETWORK_NODE = {"event": "compromise_network", "network": "m", "node": 1}

TRIGGERS = [
    # Usage.
    T("give --shares or share files, not both", argv={"files": QUORUM}),

    # Topology file.
    T((READ_TOPOLOGY, P("topology.json"), Reason(json.loads, "{")),
      write("topology.json", b"{")),
    T((READ_TOPOLOGY, P("topology.json"), Reason(json.loads, DEEP)),
      write("topology.json", DEEP.encode())),
    T((READ_TOPOLOGY, P("topology.json"), Reason(bytes.decode, b"\xff")),
      write("topology.json", b"\xff")),
    T((READ_TOPOLOGY, P("missing.json"),
       Reason(oserror, errno.ENOENT, P("missing.json"))),
      argv={"--topology": P("missing.json")}),
    T("a topology is a JSON object", topology(lambda doc: [])),
    T(("malformed topology file: {reason}", "'modulus'"),
      topology(["modulus"], DELETE)),
    T(("malformed topology file: {reason}", "'modulus'"),
      topology(lambda doc: {"format_version": 1})),
    T(("malformed topology file: {reason}", "'QKD' is not a valid LinkKind"),
      topology(["networks", 1, "link"], "QKD")),
    T((VERSION, 2), topology(["format_version"], 2)),
    T([(READ_SHARE, P(M1)), (VERSION, 3)],
      share(M1, ["format_version"], 3)),
    *(T((INTEGER, path[-1], shown), topology(path, value))
      for path, value, shown in (
          (["format_version"], 1.0, 1.0),
          (["outer_degree"], True, True),
          (["networks", 2, "node_count"], 3.0, 3.0),
          (["networks", 1, "node_count"], 3.9, 3.9),
          (["networks", 1, "node_count"], "3", "'3'"),
          (["networks", 1, "node_count"], float("inf"), "inf"),
          (["networks", 1, "inner_degree"], 1.5, 1.5))),
    T([LOAD_STATE, CORRUPT_STATE, (INTEGER, "seed", True)],
      state(["seed"], True), argv=STATE),
    T([LOAD_STATE, CORRUPT_STATE, (INTEGER, "seed", 1.9)],
      state(["seed"], 1.9), argv=STATE),
    *(T(NOT_HEX, topology(["modulus"], spell))
      for spell in NONCANONICAL_HEX.values()),
    T("networks must be a list of JSON objects",
      topology(["networks"], [1, 2])),
    *(T("mother must be true or false",
        topology(["networks", i, "mother"], value))
      for i, value in ((0, 1), (1, None))),
    T("exactly one network must be the mother",
      topology(["networks", 1, "mother"], True)),
    *(T("network ids must be strings", topology(["networks", 1, "id"], i))
      for i in (7, ["d1"])),
    *(T(("network id {id} contains / or NUL, or a lone surrogate", repr(i)),
        topology(["networks", 1, "id"], i)) for i in ESCAPING_IDS),
    T("modulus must be at least 257", topology(["modulus"], "fb")),
    T([INVALID, "need at least two networks"],
      topology(lambda doc: {**doc, "networks": doc["networks"][:1]})),
    T([INVALID, "outer degree must be in 1..(networks-1)"],
      topology(["outer_degree"], 3)),
    *(T([INVALID, "daughter count must be below modulus"], daughters(count))
      for count in (257, 258)),
    T([INVALID, "duplicate network ids"],
      topology(["networks", 2, "id"], "d1")),
    T([INVALID, "modulus must be prime"], topology(["modulus"], "102")),
    T([INVALID, ("network {id}: need at least one node", "d1")],
      topology(["networks", 1, "node_count"], 0)),
    T([INVALID, ("network {id}: negative degree", "d1")],
      topology(["networks", 1, "inner_degree"], -1)),
    T([INVALID, ("network {id}: quorum exceeds node count", "d1")],
      topology(["networks", 1, "inner_degree"], 3)),
    T([INVALID, ("network {id}: node count must be below modulus", "d1")],
      topology(lambda doc: at(at(doc, ["modulus"], "101"),
                              ["networks", 1, "node_count"], 257))),
    T([INVALID, ("network {id}: expected {link} link", "d1", "Classical")],
      topology(["networks", 1, "link"], "ITS")),
    T([INVALID, ("network {id}: expected {link} link", "m", "ITS")],
      topology(["networks", 0, "link"], "Classical")),
    # A staged file that reconstruct would settle stays as it is.
    *(T({"deal": [("topology {path}: {reason}", P("topology.json")),
                  CHUNKING],
         "reconstruct": [("topology {path}: {reason}", P("topology.json")),
                         CHUNKING],
         "simulate": [LOAD_SCENARIO, MALFORMED, CHUNKING]},
        small, write(STAGED, b"{}"))
      for small in (topology(["modulus"], "101"),
                    topology(["modulus"], "fff1"), daughters(256))),
    *(T([("topology {path}: {reason}", P("topology.json")), CHUNKING],
        topology(["modulus"], q), write(STAGED, b"{}"), argv=LISTED,
        commands=("reconstruct",)) for q in ("101", "fff1")),
    # Shapes whose secret may need fewer networks than the outer degree
    # says: deal refuses them before it makes --out.
    T([("topology {path}: {reason}", P("topology.json")),
       ("the access structure of {count} networks at outer degree {degree} "
        "is not certified at modulus {q}, and cannot be checked beyond 12 "
        "networks", 13, 6, 65537)], daughters(12, "10001", 6)),
    T(("topology {path}: networks {ids} reconstruct with fewer than outer "
       "degree + 1", P("topology.json"), "m, d3, d5, d6, d7, d11"),
      daughters(11, "1000f", 6)),

    # Secret file.
    T(("cannot read secret: {reason}",
       Reason(oserror, errno.ENOENT, P("missing.bin"))),
      argv={"--secret": P("missing.bin")}),
    T(("cannot read secret: {reason}", Reason(oserror, errno.EIO, None)),
      opened(Unreadable)),
    # A file object without a descriptor: its stat fails.
    T(("cannot read secret: {reason}", Reason(io.BytesIO().fileno)),
      opened(lambda path: io.BytesIO(b"x"))),
    T(("the secret has {size} bytes; its 4-byte length header holds at most "
       "4294967295", 2**32),
      lambda w: os.truncate(w.root / "secret.bin", 2**32)),  # sparse
    T("the secret is shorter than its size", opened(Shrunk)),

    # Vault directory and manifest.
    T(("{dir} is not a directory", P("missing")),
      argv={"--shares": P("missing")}),
    T(("{dir} is not a directory", P(M1)), argv={"--shares": P(M1)}),
    T((DIR, P("shares"), Reason(oserror, errno.EACCES, P("shares"))),
      unlistable("shares"), commands=("refresh", "reconstruct")),
    T((DIR, P("shares"), Reason(oserror, errno.EACCES, P("shares"))),
      unlistable("shares"), argv={"--out": P("shares")}, commands=("deal",)),
    # A listed share file's directory is opened to lock it.
    T((DIR, P("missing"), Reason(oserror, errno.ENOENT, P("missing"))),
      argv={**LISTED, "files": [P("missing/m_001.share.json"),
                                *QUORUM[1:]]}, commands=("reconstruct",)),
    T((IN_USE, P("shares")), in_use("shares"),
      commands=("refresh", "reconstruct")),
    T((IN_USE, P("shares")), in_use("shares"), argv=LISTED,
      commands=("reconstruct",)),
    T((IN_USE, P("empty")), mkdir("empty"), in_use("empty"),
      argv=INTO_EMPTY, commands=("deal",)),
    T(("cannot lock {dir}: {reason}", P("shares"), NO_LOCKS), lockless,
      commands=("refresh", "reconstruct")),
    T(("cannot lock {dir}: {reason}", P("new"), NO_LOCKS), lockless,
      commands=("deal",)),
    T("no share files found", remove(*SHARES)),
    T("no share files found", argv={"--shares": None},
      commands=("reconstruct",)),
    T((HOLDS, P("shares"),
       "d1_001.share.json, d1_002.share.json, d1_003.share.json"),
      argv={"--out": P("shares")}),
    # One file of a vault in --out is one too many.
    *(T((HOLDS_FEW, P("empty"), name), write(f"empty/{name}", b"kept"),
        argv=INTO_EMPTY)
      for name in ("manifest.json", "m_001.share.json",
                   "backup-d1.share.json", "d1_002.share.json.staged-1",
                   "manifest.json.staged-3")),
    T(("cannot delete the files of an uncommitted deal in {dir}: {reason}",
       P("empty"), INJECTED),
      write("empty/m_001.share.json.staged-0", b"uncommitted"), faulty(1),
      argv=INTO_EMPTY),
    *(T(("cannot make directory {dir}: {reason}", P(out),
         Reason(os.mkdir, P(out))), argv={"--out": P(out)})
      for out in ("secret.bin", "secret.bin/x")),
    # --out is made, and its flush fails.
    T(("cannot make directory {dir}: {reason}", P("new"), INJECTED),
      faulty(1)),
    T(("cannot settle the staged files of an earlier deal or refresh in "
       "{dir}: {reason}", P("shares"), INJECTED),
      write("shares/m_001.share.json.staged-5", b"{}"), faulty(1)),
    *(T((READ_MANIFEST, P(MANIFEST), Reason(json.loads, text)),
        write(MANIFEST, text.encode())) for text in ("{not json", DEEP)),
    T((READ_MANIFEST, P(MANIFEST),
       Reason(operator.getitem, [], "topology_digest")),
      write(MANIFEST, b"[]")),
    T((READ_MANIFEST, P(MANIFEST), "'topology_digest'"),
      write(MANIFEST, b"{}")),
    *(T((READ_MANIFEST, P(MANIFEST), f"'{key}'"), manifest([key], DELETE))
      for key in ("epoch", "format_version", "chunk_count", "stale")),
    *(T([(READ_MANIFEST, P(MANIFEST)), (VERSION, version)],
        manifest(["format_version"], version)) for version in (0, 2, 7, -1)),
    *(T([(READ_MANIFEST, P(MANIFEST)), (INTEGER, key, shown)],
        manifest([key], value)) for key, value, shown in (
            ("epoch", "0", "'0'"),
            ("format_version", 1.0, 1.0), ("format_version", True, True),
            ("format_version", "1", "'1'"), ("format_version", None, None),
            ("format_version", [1], [1]),
            ("chunk_count", 1.0, 1.0), ("chunk_count", "1", "'1'"),
            ("chunk_count", True, True))),
    *(T([(READ_MANIFEST, P(MANIFEST)), "chunk_count must be at least 1"],
        manifest(["chunk_count"], count)) for count in (0, -1)),
    *(T([(READ_MANIFEST, P(MANIFEST)),
         "stale must be a list of network/node names"],
        manifest(["stale"], stale))
      for stale in ("nonsense", None, ["m"], ["m/0"], ["m/01"], ["a/b/1"],
                    ["m/١"], [1])),
    T(("{path} was written for another topology", P(MANIFEST)),
      manifest(["topology_digest"], "0" * 64)),
    T(("{path} was written for another topology", P(MANIFEST)),
      topology(["outer_degree"], 2)),
    *(T((GIVES, P(MANIFEST), field, value, theirs), manifest([field], value))
      for field, value, theirs in (("epoch", 5, 0), ("epoch", 1, 0),
                                   ("chunk_count", 5, 4),
                                   ("chunk_count", 1, 4))),
    # Nodes that have a share file are named before those the topology
    # lacks.
    *(T((STALE, P(MANIFEST), "have a share file", nodes),
        manifest(["stale"], stale))
      for stale, nodes in ((["m/1"], "m/1"),
                           (["m/1", "d2/2", "d1/9"], "d2/2, m/1"))),
    T((STALE, P(MANIFEST), "the topology lacks", "d2/4, x/1"),
      manifest(["stale"], ["x/1", "d2/4"])),
    T((STALE, P(MANIFEST), "the topology lacks", "m/9, x/1"),
      remove(D2_3), manifest(["stale"], ["x/1", "d2/3", "m/9"])),
    # A share file moved out of the vault and linked back.
    T(("{path} is a symbolic link; put the share file itself in the vault "
       "directory", P(M1)), copy(M1, "moved.share.json"), remove(M1),
      symlink(M1, P("moved.share.json"))),

    # Share files.
    *(T([(READ_SHARE, P(D2_3)), "not a regular file"], *setup)
      for setup in ((fifo(D2_3),), (remove(D2_3), mkdir(D2_3)),
                    (remove(D2_3), symlink(D2_3, os.devnull)))),
    T([(READ_SHARE, P(D2_3)), "not a regular file"], fifo(D2_3),
      argv={**LISTED, "files": [P(rel) for rel in SHARES]},
      commands=("reconstruct",)),
    *(T([(READ_MANIFEST, P(MANIFEST)), "not a regular file"], *setup)
      for setup in ((fifo(MANIFEST),), (remove(MANIFEST), mkdir(MANIFEST)),
                    (remove(MANIFEST), symlink(MANIFEST, os.devnull)))),
    T([(READ_SHARE, P(M1)), NOT_CANONICAL],
      write(M1, lambda seed: as_json(json.loads(seed[M1])) + b"\n")),
    T([(READ_SHARE, P(M1)), NOT_CANONICAL], write(M1, DEEP.encode())),
    # Cut in the header, before `"values":` ends, at its end, and after
    # the `[` that follows it.
    *(T([(READ_SHARE, P(M2)), NOT_CANONICAL], cut(M2, end))
      for end in (0, 1, 100, VALUES_AT - 1)),
    T([(READ_SHARE, P(M2)), "values must be a list"], cut(M2, VALUES_AT)),
    T([(READ_SHARE, P(M2)), (SIZE, VALUES_AT + 1, 275, 4, 32)],
      cut(M2, VALUES_AT + 1)),
    *(T([(READ_SHARE, P(M1)), ("malformed share file: {reason}", f"'{key}'")],
        share(M1, [key], DELETE)) for key in ("epoch", "chunk_count",
                                              "node_index")),
    T([(READ_SHARE, P(M1)), "share modulus does not match the topology"],
      share(M1, ["modulus"], format(2**521 - 1, "x"))),
    T([(READ_SHARE, P("shares/d1_001.share.json")),
       "share modulus does not match the topology"],
      *(share(rel, ["modulus"], format(2**521 - 1, "x")) for rel in SHARES)),
    T([(READ_SHARE, P(M1)), NOT_HEX], share(M1, ["modulus"], str.upper)),
    *(T([(READ_SHARE, P(D1_1)), NOT_HEX], share(D1_1, ["modulus"], spell))
      for spell in NONCANONICAL_HEX.values()),
    T([(READ_SHARE, P(M1)), NOT_HEX], share(M1, lambda doc: at(
        v1(doc), ["values", 0], lambda v: "0" + v))),
    # A value that is not a string.
    T([(READ_SHARE, P(M1)), NOT_CANONICAL], share(M1, lambda doc: at(
        v1(doc), ["values", 0], lambda v: int(v, 16)))),
    *(T([(READ_SHARE, P(M1)), (INTEGER, key, shown)], share(M1, [key], value))
      for key, value, shown in (
          ("node_index", 1.9, 1.9), ("node_index", True, True),
          ("node_index", "1", "'1'"), ("epoch", True, True),
          ("epoch", False, False), ("chunk_count", 4.0, 4.0),
          ("format_version", True, True))),
    T([(READ_SHARE, P(M1)), "network_id must be a string"],
      share(M1, ["network_id"], 7)),
    T([(READ_SHARE, P(M1)), "values must be a list"],
      share(M1, ["values"], "abcd")),
    T([(READ_SHARE, P(M1)), COUNT],
      share(M1, ["chunk_count"], 0)),
    *(T(chain, no_chunks, *setup) for chain, setup in (
        ([(READ_SHARE, P(D1_1)), COUNT], ()),
        ([(READ_MANIFEST, P(MANIFEST)), "chunk_count must be at least 1"],
         (manifest(["chunk_count"], 0),)),
        ([(READ_SHARE, P(D1_1)), COUNT], (remove(MANIFEST),)))),
    T([(READ_SHARE, P(M1)), COUNT], share(M1, lambda doc: at(
        v1(doc), ["values"], lambda values: values + values[:1]))),
    # More values than the file has bytes: in a file cut in its first
    # value, which is not read then, and too many for len().
    T([(READ_SHARE, P(M1)), COUNT], write(M1, lambda seed: as_share(
        {**v1(json.loads(seed[M1])), "chunk_count": 1000})[:150])),
    T([(READ_SHARE, P(M1)), COUNT],
      share(M1, lambda doc: {**v1(doc), "chunk_count": 2**63})),
    T([(READ_SHARE, P(M1)), (SIZE, 274, 275, 4, 32)],
      share(M1, ["values", 3], lambda v: v[1:])),
    # A value spelt another way, at another length or at the same.
    *(T([(READ_SHARE, P(D1_1)), reason], share(D1_1, ["values", 0], spell))
      for spell, reason in zip(NONCANONICAL_HEX.values(), (
          (SIZE, 279, 276, 4, 32), (SIZE, 278, 276, 4, 32), (HEX, 32),
          (SIZE, 277, 276, 4, 32), (SIZE, 277, 276, 4, 32),
          (SIZE, 277, 276, 4, 32), (SIZE, 356, 276, 4, 32)))),
    # A key given twice: the values after a list of their own, or of
    # another share, or a header field after the values.
    *(T([(READ_SHARE, P(D2_3)), (SIZE, size, 276, 4, 32)],
        given_twice(D2_3, change)) for change, size in (
            (lambda mine, other: (json.dumps(json.loads(other)).encode(),
                                  mine), 430),
            (lambda mine, other: (mine, mine), 427),
            (lambda mine, other: (mine, other), 427))),
    T([(READ_SHARE, P(D2_3)), (SIZE, 286, 276, 4, 32)],
      write(D2_3, lambda seed: seed[D2_3][:-2] + b',"epoch":1}\n')),
    T([(READ_SHARE, P(M1)), (HEX, 32)],
      share(M1, ["values", 0], lambda v: "g" + v[1:])),
    T([(READ_SHARE, P(M1)), "a value is out of range for the modulus"],
      share(M1, ["values", 0], "7" + "f" * 31)),
    T([(READ_SHARE, P(M1)), "the file ends early"],
      write(M1, lambda seed: as_share(v1(json.loads(seed[M1])))[:-6])),
    T([(READ_SHARE, P("shares/d1_001.share.json")),
       "changed while it was read"], touched),
    # In the last block of a vault of two.
    *(T([(READ_SHARE, P(D1_2)), reason], LONG,
        share(D1_2, last_value(spell))) for spell, reason in (
            (str.upper, (HEX, 32)), (lambda v: "g" + v[1:], (HEX, 32)),
            (lambda v: v[1:],
             (SIZE, LONG_SIZE - 1, LONG_SIZE, LONG_COUNT, 32)),
            (lambda v: f"{DEFAULT_MODULUS:032x}",
             "a value is out of range for the modulus"))),
    T([(READ_SHARE, P(D1_2)),
       (SIZE, LONG_SIZE + 1, LONG_SIZE, LONG_COUNT, 32)], LONG,
      lambda w: w.write(D1_2, (w.root / D1_2).read_bytes() + b"\n")),
    *(T([(READ_SHARE, P(D1_2)), reason], LONG, last_digit(D1_2, byte))
      for byte, reason in (
          (b"A", (HEX, 32)), (b"f", "a value is out of range for the modulus"),
          (b"g", (HEX, 32)), (b" ", (HEX, 32)), (b'"', (HEX, 32)),
          (b",", (HEX, 32)), (b"\x80", (HEX, 32)))),

    # Share set.
    *(T(["EpochMismatch: {reason}", ("shares span epochs {epochs}", epochs)],
        share("shares/d1_001.share.json", ["epoch"], epoch))
      for epoch, epochs in ((1, "[0, 1]"), (5, "[0, 5]"))),
    # A value fewer in m/3's file, and in each of d1's.
    *(T(("inconsistent chunk counts {counts}", "[3, 4]"),
        *(share(rel, lambda doc: {
            **doc, "chunk_count": 3, "values": doc["values"][:3]})
          for rel in rels))
      for rels in (["shares/m_003.share.json"], SHARES[:3])),
    *(T((NOT_A_NODE, "d1", node), copy("shares/d1_003.share.json",
                                       "shares/x.share.json"),
        share("shares/x.share.json", ["node_index"], node))
      for node in (0, 9, 2**127)),
    T((NOT_A_NODE, "d9", 3), copy("shares/d1_003.share.json",
                                  "shares/x.share.json"),
      share("shares/x.share.json", ["network_id"], "d9")),
    T((TWICE, "d1", 3), copy("shares/d1_003.share.json",
                             "shares/d1_003_copy.share.json")),
    T((TWICE, "m", 1), argv={**LISTED, "files": QUORUM[:1] + QUORUM},
      commands=("reconstruct",)),
    T(("infeasible: {reason}",
       "mother quorum not met (m: 0/2, d1: 2/2, d2: 2/2)"),
      argv={**LISTED, "files": [P(name) for name in SHARES[:6]]}),
    T(("network {id}: the share of node {node} disagrees with nodes "
       "{quorum}", "d1", 3, "[1, 2]"),
      share("shares/d1_001.share.json", ["values", 0], last_plus_one)),
    T(("network {id}: the share of node {node} disagrees with nodes "
       "{quorum}", "d1", 3, "[1, 2]"),
      vault_of(encode_secret(b"the crown jewels are in the tower")),
      share(D1_1, ["values", 0], last_plus_one)),
    T(("network {id}: its inner secret disagrees with networks {networks}",
       "d2", "['m', 'd1']"),
      *(copy(f"other/d2_00{j}.share.json", f"shares/d2_00{j}.share.json")
        for j in (1, 2, 3))),
    T(("network {id}: its inner secret disagrees with networks {networks}",
       "d2", "['m', 'd1']"),
      *(copy(f"other/d2_00{j}.share.json", f"shares/d2_00{j}.share.json")
        for j in (1, 2)),
      argv={**LISTED, "files": [*QUORUM, P(D2_1), P(D2_2)]},
      commands=("reconstruct",)),
    T("chunk value out of range", vault_of([2**120])),
    T("truncated chunk stream",
      topology(["modulus"], "10001"), vault_of([0])),
    T("declared length exceeds payload", vault_of([100 << 88])),
    T("nonzero padding", vault_of([1])),

    # Outputs.
    *(T((NOT_REGULAR, option, P(rel)), fifo("fifo"),
        symlink("link", P("fifo")), argv={option: P(rel)},
        commands=(command,))
      for option, command in OUTPUTS
      for rel in ("shares", "fifo", "link")),
    *(T((NOT_REGULAR, option, "."), here, argv={option: "."},
        commands=(command,)) for option, command in OUTPUTS),
    T((INPUT, "--out", P("topology.json"), "topology", P("topology.json")),
      argv={"--out": P("topology.json")}, commands=("reconstruct",)),
    T((INPUT, "--report", P("scenario.json"), "scenario", P("scenario.json")),
      argv={"--report": P("scenario.json")}, commands=("simulate",)),
    # A state not saved yet, and one saved; the --report a link to it.
    *(T((INPUT, "--report", P(rel), "state", P("world.state")), *saved,
        symlink("link", P("world.state")),
        argv={**STATE, "--report": P(rel)}, commands=("simulate",))
      for rel in ("world.state", "link")
      for saved in ((), (copy("world.state", "world.state"),))),
    T((INPUT, "--state", P("scenario.json"), "scenario", P("scenario.json")),
      argv={"--state": P("scenario.json")}, commands=("simulate",)),
    T((INPUT, "--out", P("topology.json"), "topology", P("topology.json")),
      argv={**LISTED, "--out": P("topology.json")}, commands=("reconstruct",)),
    T((INPUT, "--out", P("link.json"), "topology", P("topology.json")),
      symlink("link.json", P("topology.json")),
      argv={**LISTED, "--out": P("link.json")}, commands=("reconstruct",)),
    # A staged file of the vault is one of its files too.
    *(T((VAULT_FILE, P(out), P("shares")), write(STAGED, b"{}"),
        symlink("link.bin", P("shares/m_002.share.json")),
        argv={**given, "--out": P(out)})
      for given in ({}, LISTED)
      for out in (MANIFEST, M1, D2_3, "shares/new.share.json",
                  "shares/m_001.share.json.staged-0", STAGED, "link.bin",
                  "shares/../shares/d2_003.share.json")),
    T(("--out {path} is a share file being read", P("m1.bin")),
      copy(M1, "m1.bin"),
      argv={**LISTED, "files": [P("m1.bin"), *QUORUM[1:]],
            "--out": P("m1.bin")}),
    *(T((WRITE, P(f"missing/{option[2:]}"),
         Reason(open, P(f"missing/{option[2:]}.tmp"), "wb")),
        argv={option: P(f"missing/{option[2:]}")}, commands=(command,))
      for option, command in OUTPUTS),
    # The first mutation after --out is made and flushed.
    T((FAILED, "deal", INJECTED), faulty(3), commands=("deal",)),
    T((FAILED, "refresh", INJECTED), faulty(1), commands=("refresh",)),

    # Scenario file.
    *(T(("cannot read scenario {path}: {reason}", P("scenario.json"),
         Reason(json.loads, text)), write("scenario.json", text.encode()))
      for text in ("{", DEEP)),
    T(("cannot read scenario {path}: {reason}", P("missing.json"),
       Reason(oserror, errno.ENOENT, P("missing.json"))),
      argv={"--scenario": P("missing.json")}),
    T([LOAD_SCENARIO, (MALFORMED, "'schedule'")],
      scenario(["schedule"], DELETE)),
    T([LOAD_SCENARIO, (MALFORMED, "'topology'")],
      write("scenario.json", b'{"schedule": [{"event": "??"}]}')),
    # Spellings that bytes.fromhex takes.
    *(T([LOAD_SCENARIO, MALFORMED,
         "secret_hex must be lowercase hex of even length"],
        scenario(["secret_hex"], spell))
      for spell in (str.upper, lambda h: h + "\n", lambda h: h + "a",
                    lambda h: " ".join(h[i:i + 2]
                                       for i in range(0, len(h), 2)))),
    *(T([LOAD_SCENARIO, ("unknown event {event}", ev)], event(ev))
      for ev in ({"event": "??"}, {"event": ["refresh"]})),
    *(T([LOAD_SCENARIO, ("event {event} takes no field {field}", ev,
                         repr(field))], event(ev))
      for ev, field in ((EV_FIELD, "actr"), (EV_NODES, "nodes"),
                        (EV_NETWORK_NODE, "node"))),
    *(T([LOAD_SCENARIO, ("event {event}: the actor is owner or adversary",
                         ev)], event(ev))
      for ev in ({"event": "attempt_reconstruct", "actor": actor}
                 for actor in ("Adversary", "owner ", 7, []))),
    T([LOAD_SCENARIO, (FIT, EV_NO_NODE, "'node'")], event(EV_NO_NODE)),
    *(T([LOAD_SCENARIO, (FIT, ev), ("unknown network {id}", ev["network"])],
        event(ev)) for ev in (EV_NETWORK, EV_FAIL_D9)),
    T([LOAD_SCENARIO, (FIT, EV_NODE),
       ("no node {node} in network {id}", 7, "d1")], event(EV_NODE)),
    *(T([LOAD_SCENARIO, (FIT, ev), (INTEGER, "node", shown)], event(ev))
      for ev, shown in (
          ({"event": "release_node", "network": "d1", "node": "1"}, "'1'"),
          ({"event": "compromise_node", "network": "d1", "node": 1.7}, 1.7),
          ({"event": "fail_node", "network": "d1", "node": True}, True),
          ({"event": "fail_node", "network": "d1", "node": float("inf")},
           "inf"))),
    T([LOAD_SCENARIO, DEALT_TWICE], scenario(["schedule"], [
        {"event": "deal"},
        {"event": "compromise_node", "network": "m", "node": 1},
        {"event": "release_node", "network": "m", "node": 1},
        {"event": "deal"},
        {"event": "compromise_node", "network": "m", "node": 2},
        {"event": "hndl_decrypt_classical"},
        {"event": "attempt_reconstruct", "actor": "adversary"}]),
      argv=STATE),
    T([RUN, DEALT_TWICE], copy("world.state", "world.state"), argv=STATE),
    *(T([RUN, EARLY_REFRESH], scenario(["schedule"], schedule))
      for schedule in (SCHEDULE[::-1], [
          {"event": "compromise_node", "network": "m", "node": 1},
          *SCHEDULE[::-1]])),
    T([LOAD_STATE, CORRUPT_STATE, EARLY_REFRESH],
      state(["history"], SCHEDULE[::-1]), argv=STATE),

    # State file.
    T([LOAD_STATE, "bad magic; not a simulation state file"],
      write("world.state", b"XXXX"), argv=STATE),
    *(T([LOAD_STATE, "truncated state file"],
        write("world.state", blob), argv=STATE)
      for blob in (b"MSS1", b"MSS1" + bytes(7))),
    T([LOAD_STATE, ("payload length {size} does not match header {length}",
                    2, 5)],
      write("world.state", b"MSS1" + struct.pack(">Q", 5) + b"{}"),
      argv=STATE),
    *(T([LOAD_STATE, ("undecodable state payload: {reason}",
                      Reason(decoded, payload))],
        write("world.state", state_file(payload)), argv=STATE)
      for payload in (b"\xff", b"{", b"")),
    T([LOAD_STATE, ("unsupported version {version}", 1)],
      state(["version"], 1), argv=STATE),
    T([LOAD_STATE, ("unsupported version {version}", 1)],
      state(lambda s: {**s, "version": 1, "epoch": 1, "chunk_count": 2,
                       "dealt": True, "hndl": True, "nodes": [],
                       "transcripts": {}, "adversary": [],
                       "rng_state": [3, [0] * 625, None]}), argv=STATE),
    T([LOAD_STATE, (CORRUPT_STATE, "'seed'")], state(["seed"], DELETE),
      argv=STATE),
    *(T([LOAD_STATE, "corrupt state: not as save_state writes it"],
        state([key], value), argv=STATE)
      for key, value in (("extra", 1), ("epoch", 1.9), ("dealt", "no"))),
    T([LOAD_STATE, CORRUPT_STATE, DEALT_TWICE],
      state(["history"], lambda h: h + [{"event": "deal"}]), argv=STATE),
    T([LOAD_STATE, CORRUPT_STATE, (FIT, EV_NODE_STR),
       (INTEGER, "node", "'1'")],
      state(["history"], lambda h: h + [EV_NODE_STR]), argv=STATE),
    T((DIFFERS, "secret", "differs"), copy("world.state", "world.state"),
      scenario(["secret_hex"], "00" * 8), argv=STATE),
    T((DIFFERS, "topology", "differs"), copy("world.state", "world.state"),
      scenario(["topology", "networks", 1, "node_count"], 4), argv=STATE),
    T((DIFFERS, "topology and secret", "differ"),
      copy("world.state", "world.state"), scenario(["secret_hex"], "00" * 8),
      scenario(["topology", "networks", 1, "node_count"], 4), argv=STATE),
]

# Rows that no trigger prints, each with the test that does.
UNTRIGGERED = {
    "cannot write {path}: flushing its directory failed: {reason}":
        "the output has taken its name by then, so the workspace changes: "
        "tests/test_cli.py::TestReconstruct::test_flushes_the_output and "
        "::TestSimulate::test_fault_at_every_write",
    "epoch {epoch} is committed, but not every share has its final name; "
    "the next refresh or reconstruct --shares finishes it: {reason}":
        "the vault holds its new epoch by then: tests/test_cli.py::TestDeal"
        "::test_fault_at_every_mutation and ::TestRefreshFaults"
        "::test_fault_at_every_mutation",
}


def cases():
    """(trigger, command, id) of each case."""
    count = {}
    for trigger in TRIGGERS:
        for command in commands_of(trigger):
            message = chain_of(trigger, command)[-1][0]
            row = ARMS.get(message, message)
            n = count[row, command] = count.get((row, command), 0) + 1
            slug = re.sub(r"\W+", "-", row).strip("-")[:40]
            yield trigger, command, f"{slug}-{n}-{command}"


CASES = list(cases())


@pytest.mark.parametrize("trigger, command",
                         [case[:2] for case in CASES],
                         ids=[case[2] for case in CASES])
def test_row_is_refused(trigger, command, workspace, capsys):
    rows = rows_of(trigger, command)
    assert [message for message, *_ in rows
            if command not in row_of(message).commands] == []
    code, = {row_of(message).code for message, *_ in rows}
    runner = run
    for step in trigger.setup:
        runner = step(workspace) or runner
    root = workspace.root
    line = f"error: {printed(rows, root)}\n"
    argv = command_line(command, trigger.argv, root)
    before = tree(root)
    capsys.readouterr()
    assert runner(argv) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (line, "")
    assert tree(root) == before


def test_every_row_is_triggered():
    shown = {(ARMS.get(message, message), command)
             for trigger, command, _ in CASES
             for message, *_ in rows_of(trigger, command)}
    assert [(message, command) for message, row in ROWS.items()
            if message not in UNTRIGGERED for command in row.commands
            if (message, command) not in shown] == []
    # A row that a trigger prints, or that is gone, leaves the list.
    assert [message for message in UNTRIGGERED if message not in ROWS
            or any(message == m for m, _ in shown)] == []

