"""Command-line frontend: deal, reconstruct, refresh, thresholds, simulate.

Exit codes are a stable scripting contract:
  0 success, 2 input error, 3 protocol infeasibility, 4 capacity,
  64 usage.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from .errors import (CapacityError, CorruptData, EpochMismatch, Infeasible,
                     MultishareError, StateError)
from .field import BLOCK_WORDS, crypto_rng, deterministic_rng
from . import formats, vault
from .protocol import (SecretDecoder, Topology,
                       apply_node_refresh, check_shares, chunk_count,
                       chunk_size, closed_form_certified,
                       compute_thresholds_exhaustive,
                       compute_thresholds_formula, deal, reconstruct,
                       refresh, secret_blocks, weaker_shape_witness,
                       EXHAUSTIVE_NETWORK_BOUND)
# Not called here, since the vault commands work block by block
# (secret_blocks, SecretDecoder), but looked up here by name by the
# benchmark's tracer (perfbench/tracing.py).
from .protocol import decode_secret, encode_secret  # noqa: F401
from .simnet import (Scenario, Simulation, check_deal_order, load_state,
                     run_scenario)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4
EXIT_USAGE = 64


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_json(path, what: str, regular: bool = False):
    """The JSON document in file `path`; exit 2 when it cannot be read or
    parsed, nesting too deep included. A `regular` file is opened by
    vault.open_regular: exit 2 too when it is a FIFO or another file that
    is not a regular file. Otherwise a pipe, such as `<(...)`, is read."""
    try:
        if regular:
            with io.TextIOWrapper(vault.open_regular(path),
                                  encoding="utf-8") as file:
                return json.loads(file.read())
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError, CorruptData) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {what} {path}: {exc}")


def _load_topology(path: str, chunking: bool = False) -> Topology:
    """The topology in file `path`; exit 2 when it cannot be read or is
    not valid. Deal and reconstruct, which turn a secret into chunks and
    back, load it `chunking`: then also exit 2, before any file is
    touched, when the modulus is too small to hold a chunk (chunk_size)."""
    try:
        topology = formats.topology_from_dict(_read_json(path, "topology"))
        if chunking:
            chunk_size(topology.modulus)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"topology {path}: {exc}")
    return topology


def _json_line(obj) -> bytes:
    return formats.canonical_json(obj) + b"\n"


@contextmanager
def _share_file_errors(paths: List[Path], modulus: int):
    """A CorruptData or EpochMismatch from the block raised as the error
    of the share files at `paths`: the first of them, in order, that
    cannot be read whole decides, and if each can, the error met. The
    files are read again from the start to find it."""
    try:
        yield
    except (CorruptData, EpochMismatch):
        for p in paths:
            formats.read_share(p, modulus).values.read_rest()
        raise


def _secret_reader(file):
    """The size of the open secret file, and read(n) for its bytes. A
    regular file's size is taken from stat before any byte is read; any
    other file (a pipe, say) is read whole first."""
    try:
        info = os.fstat(file.fileno())
        if stat.S_ISREG(info.st_mode):
            size = info.st_size
        else:
            file = io.BytesIO(file.read())
            size = len(file.getvalue())
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read secret: {exc}")

    def read(n: int) -> bytes:
        try:
            return file.read(n)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot read secret: {exc}")

    return size, read


@contextmanager
def _open_vault(share_dir: Path, topology: Topology, digest: str):
    """Hold the lock of the vault in `share_dir` (vault.locked) in the
    block, which gets the vault's share files, settled (vault.settle);
    their shares, headers read; the shares' epoch and chunk count; and the
    names ("network/index") of the topology's nodes without a share file,
    in topology order. Exit 2 when there is no directory or no share file,
    and, before settling, when another command holds the lock, the
    manifest cannot be read (a FIFO, say) or its topology_digest is not
    `digest`, `topology`'s. The shares are checked as a set
    (check_shares, _share_file_errors), then against the manifest: exit 2
    when its epoch or chunk_count is not theirs, or it lists as stale a
    node that has a share file or `topology` lacks."""
    names = vault.listing(share_dir)
    if names is None:
        raise CliError(EXIT_INPUT, f"{share_dir} is not a directory")
    with vault.locked(share_dir):
        names = vault.listing(share_dir) or ()  # as the lock found it
        manifest = share_dir / vault.MANIFEST
        given, stale = {}, []  # what the manifest gives
        if vault.MANIFEST in names:
            data = _read_json(manifest, "manifest", regular=True)
            try:
                written_for, epoch, count, stale = \
                    formats.manifest_from_dict(data)
            except CorruptData as exc:
                raise CliError(EXIT_INPUT, f"cannot read manifest "
                                           f"{manifest}: {exc}")
            if written_for != digest:
                raise CliError(EXIT_INPUT, f"{manifest} was written for "
                                           f"another topology")
            given = {"epoch": epoch, "chunk_count": count}
        paths = vault.settle(share_dir, given.get("epoch"))
        if not paths:
            raise CliError(EXIT_INPUT, "no share files found")
        q = topology.modulus
        with _share_file_errors(paths, q):
            shares = [formats.read_share(p, q) for p in paths]
            epoch, count, _ = check_shares(shares, topology)
        found = {"epoch": epoch, "chunk_count": count}
        for name, value in given.items():
            if value != found[name]:
                raise CliError(EXIT_INPUT, f"{manifest} gives {name} "
                                           f"{value}, the share files "
                                           f"{found[name]}")
        held = {f"{s.network_id}/{s.node_index}" for s in shares}
        nodes = [f"{net.id}/{j}" for net in topology.networks
                 for j in range(1, net.node_count + 1)]
        for fault, names in (
                ("have a share file", held.intersection(stale)),
                ("the topology lacks", set(stale).difference(nodes))):
            if names:
                raise CliError(EXIT_INPUT, f"{manifest} lists as stale "
                               f"nodes that {fault}: "
                               f"{', '.join(sorted(names))}")
        yield (paths, shares, epoch, count,
               [n for n in nodes if n not in held])


def _check_output(path, option: str, inputs: Dict[str, Path]) -> None:
    """Exit 64 when the output `path`, once symbolic links are followed,
    is something other than a regular file (a directory, a FIFO or a
    device, say): writing it would replace that with a regular file, and
    reading a FIFO would wait for a writer. A path that does not exist yet
    passes that check. Exit 64 too when it is a file being read: one of
    `inputs`, which names each ("topology", say) and gives its path."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # not there yet
        regular = True
    if not regular:
        raise CliError(EXIT_USAGE, f"{option} {path} is not a regular file")
    target = os.path.realpath(path)
    for what, read in inputs.items():
        if target == os.path.realpath(read):
            raise CliError(EXIT_USAGE, f"{option} {path} is the {what} file "
                                       f"{read}")


def _check_out(out: Path, topology: Path, share_dir: Optional[Path],
               files: List[Path]) -> None:
    """Exit 64 when `out` is not a regular file or is the `topology` file
    (_check_output); or when writing it would replace a share file being
    read (one of `files`, or, given the vault directory `share_dir`, one
    of its share files), or would put a file named as a vault's are
    (vault.is_vault_file) into `share_dir` or into the directory of any of
    `files`."""
    _check_output(out, "--out", {"topology": topology})
    target = os.path.realpath(out)
    if share_dir is not None:
        vaults = {os.path.realpath(share_dir)}
        files = vault.share_files(share_dir)
    else:
        vaults = {os.path.dirname(os.path.realpath(p)) for p in files}
    directory, name = os.path.split(target)
    if directory in vaults and vault.is_vault_file(name):
        raise CliError(EXIT_USAGE, f"--out {out} is a file of the vault in "
                                   f"{share_dir or directory}")
    if target in map(os.path.realpath, files):
        raise CliError(EXIT_USAGE, f"--out {out} is a share file being "
                                   f"read")


def cmd_deal(args) -> int:
    """Deal the secret BLOCK_WORDS chunks at a time: each block is read
    from the secret file and dealt (deal, one call per block), and each
    node's share of it is appended to the node's share file as soon as
    it is evaluated, so the command holds a block of the secret and one
    node's share of it, not a column. The vault is committed at epoch 0
    as a refresh commits its epoch (see vault.Commit): a deal that exits
    0 has its vault on disk, and one that stops part-way leaves either
    the whole vault or files that the next deal, refresh or reconstruct
    --shares deletes; one refused before its commit also removes the
    directories it made for --out. It holds the lock of --out from the
    moment --out exists (vault.new_vault_dir). A secret is dealt only on
    a shape where it needs the mother and outer degree daughters, as the
    closed form assumes: any other shape (weaker_shape_witness) exits 2
    before --out is made."""
    topology = _load_topology(args.topology, chunking=True)
    q = topology.modulus
    try:
        witness = weaker_shape_witness(q, topology.outer_degree,
                                       len(topology.networks))
    except CapacityError as exc:
        raise CliError(EXIT_INPUT, f"topology {args.topology}: {exc}")
    if witness is not None:
        order = topology.positions()
        raise CliError(EXIT_INPUT, f"topology {args.topology}: networks "
                       f"{', '.join(order[i].id for i in witness)} "
                       f"reconstruct with fewer than outer degree + 1")
    digest = formats.topology_digest(topology)
    try:
        secret = open(args.secret, "rb")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read secret: {exc}")
    with secret:
        size, read = _secret_reader(secret)
        count = chunk_count(size, q)
        out_dir = Path(args.out)
        rng = (crypto_rng() if args.seed is None
               else deterministic_rng(args.seed))
        with vault.new_vault_dir(out_dir), \
                vault.Commit(out_dir, 0, "deal") as commit:
            for start, chunks in zip(range(0, count, BLOCK_WORDS),
                                     secret_blocks(read, size, q)):
                deal(chunks, topology, rng, sink=lambda share: commit.append(
                    out_dir / vault.SHARE_NAME.format(share.network_id,
                                                      share.node_index),
                    formats.share_file_block(share, q, start, count)))
            nodes = commit.commit(_json_line(
                formats.manifest_dict(digest, count, 0, [])))
    print(f"dealt {count} chunks to {nodes} nodes in {out_dir}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    """Recover the secret BLOCK_WORDS chunks at a time: the share files'
    headers are read first (from a --shares vault, then checked: see
    _open_vault), then reconstruct checks them as a set, reads each file's
    next block in turn, checks it and hands the recovered chunks on,
    decoded, to the output's temporary file (see protocol.reconstruct).
    An error in the share files is that of the first file that cannot be
    read whole (_share_file_errors). An --out that would overwrite the
    topology or a share file being read, or a file of the vault they are
    read from, is a usage error (_check_out)."""
    if args.shares and args.files:
        raise CliError(EXIT_USAGE, "give --shares or share files, not both")
    _check_out(Path(args.out), Path(args.topology),
               Path(args.shares) if args.shares else None,
               [Path(p) for p in args.files])
    topology = _load_topology(args.topology, chunking=True)
    q = topology.modulus
    decoder = SecretDecoder(q)
    try:
        with ExitStack() as held:  # the vaults' locks, to the end
            if args.shares:
                paths, shares, *_ = held.enter_context(_open_vault(
                    Path(args.shares), topology,
                    formats.topology_digest(topology)))
            else:
                paths = [Path(p) for p in args.files]
                if not paths:
                    raise CliError(EXIT_INPUT, "no share files found")
                # Shared with other readers, so that no refresh commits
                # while the files are read.
                for directory in sorted({os.path.dirname(os.path.realpath(p))
                                         for p in paths}):
                    held.enter_context(vault.locked(Path(directory),
                                                    shared=True))
                shares = (formats.read_share(p, q) for p in paths)
            with _share_file_errors(paths, q), \
                    vault.appending(Path(args.out)) as append:
                reconstruct(shares, topology,
                            sink=lambda chunks: append(decoder.feed(chunks)))
                decoder.close()
    except formats.UnreadableShare:
        raise
    except CorruptData as exc:
        raise CliError(EXIT_INPUT, f"corrupt shares: {exc}")
    print(f"reconstructed {decoder.size} bytes to {args.out}")
    return EXIT_OK


def cmd_refresh(args) -> int:
    """Advance every share one epoch, BLOCK_WORDS chunks at a time: the
    vault is opened (_open_vault: it is locked to the end, and the share
    files' headers are read and checked); then, per block, the round's
    refresh columns are drawn (refresh, one call per block), and each
    share file's block is read, updated (apply_node_refresh) and appended
    to its staged file in turn.
    The columns are always drawn from the operating system (crypto_rng):
    a refresh protects the secret only if they are fresh and uniform in
    every round, so it takes no seed.
    The updated shares are committed at the new epoch by one atomic
    replace of the manifest (see vault.Commit). An error in the share
    files is that of the first file that cannot be read whole
    (_share_file_errors), as in reconstruct."""
    topology = _load_topology(args.topology)
    q = topology.modulus
    share_dir = Path(args.shares)
    digest = formats.topology_digest(topology)
    with _open_vault(share_dir, topology, digest) as (
            paths, shares, epoch, count, stale):
        rng = crypto_rng()
        with _share_file_errors(paths, q), \
                vault.Commit(share_dir, epoch + 1, "refresh") as commit:
            for start in range(0, count, BLOCK_WORDS):
                n = min(BLOCK_WORDS, count - start)
                deltas = refresh(topology, n, epoch, rng)
                for path, share in zip(paths, shares):
                    updated = apply_node_refresh(
                        share._replace(values=share.values[start:start + n]),
                        deltas[share.network_id])
                    commit.append(path, formats.share_file_block(
                        updated, q, start, count))
            refreshed = commit.commit(_json_line(formats.manifest_dict(
                digest, count, epoch + 1, stale)))
    print(f"refreshed {refreshed} shares to epoch {epoch + 1}"
          + (f"; stale: {', '.join(stale)}" if stale else ""))
    return EXIT_OK


def _print_thresholds(title: str, thresholds) -> None:
    print(title)
    for name, value in zip(thresholds._fields, thresholds):
        print(f"  {name:<10} = {value}")


def cmd_thresholds(args) -> int:
    """Print the closed-form thresholds, whether they are certified at
    the topology's modulus (closed_form_certified), the exhaustive
    thresholds and a line for each that differs. When the exhaustive
    search refuses the topology (CapacityError), a line says that nothing
    checked the closed form instead."""
    topology = _load_topology(args.topology)
    formula = compute_thresholds_formula(topology)
    certified = closed_form_certified(topology.modulus, topology.outer_degree,
                                      len(topology.networks))
    _print_thresholds("formula thresholds (T = degree + 1):", formula)
    print(f"closed form {'' if certified else 'not '}certified at modulus "
          f"{topology.modulus}")
    try:
        exhaustive = compute_thresholds_exhaustive(topology)
    except CapacityError:
        print(f"nothing checked the closed form: the exhaustive search "
              f"takes at most {EXHAUSTIVE_NETWORK_BOUND} networks")
        return EXIT_OK
    _print_thresholds("exhaustive-search thresholds:", exhaustive)
    for name, a, b in zip(formula._fields, formula, exhaustive):
        if a != b:
            note = (" (the closed form disables one daughter too few)"
                    if name in ("t_f1", "t_fail") else "")
            print(f"DISCREPANCY: {name} formula={a} exhaustive={b}{note}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    """Run the scenario's schedule, on the world saved in --state when it
    exists, and write the report (and save the world to --state). A
    --report or --state that is not a regular file, or that would replace
    a file being read (the scenario, or the state for --report), is a
    usage error (_check_output), found before any file is read."""
    report_path = Path(args.report) if args.report else \
        Path(args.scenario).with_suffix(".report.json")
    scenario = {"scenario": Path(args.scenario)}
    state = {"state": Path(args.state)} if args.state else {}
    _check_output(report_path, "--report", {**scenario, **state})
    if args.state:
        _check_output(args.state, "--state", scenario)
    data = _read_json(args.scenario, "scenario")
    try:
        scenario = Scenario.from_dict(data)
    except (ValueError, CorruptData) as exc:
        raise CliError(EXIT_INPUT, f"cannot load scenario: {exc}")
    if args.state and Path(args.state).exists():
        try:
            sim = load_state(args.state)
        except (StateError, OSError) as exc:
            raise CliError(EXIT_INPUT, f"cannot load state: {exc}")
        differs = [name for name, saved, given in (
            ("topology", sim.topology, scenario.topology),
            ("secret", sim.secret, scenario.secret)) if saved != given]
        if differs:
            verb = "differ" if len(differs) > 1 else "differs"
            raise CliError(EXIT_INPUT, f"the state's {' and '.join(differs)}"
                                       f" {verb} from the scenario's")
    else:
        sim = Simulation(scenario.topology, scenario.secret, args.seed)
    try:
        check_deal_order(scenario.schedule, sim.dealt)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"cannot run the schedule: {exc}")
    report = run_scenario(scenario, sim=sim)
    # The report is staged before the state is saved and takes its name
    # after, so that a run whose state cannot be saved leaves no report
    # and any earlier state file as it was.
    with vault.writing(report_path, _json_line(report)):
        if args.state:
            sim.save_state(args.state)
    print(f"adversary: {report['adversary_verdict']}")
    print(f"owner available: {report['owner_available']}")
    print(f"epoch: {report['epoch']}")
    print(f"report written to {report_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multishare",
                     description="split, refresh and reconstruct secrets "
                                 "across multiple networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deal", help="split a secret file into share files")
    p.add_argument("--topology", required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_deal)

    p = sub.add_parser("reconstruct", help="recover the secret from shares")
    p.add_argument("--topology", required=True)
    p.add_argument("--shares", help="directory of *.share.json files")
    p.add_argument("files", nargs="*", help="individual share files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("refresh", help="advance all shares one epoch")
    p.add_argument("--topology", required=True)
    p.add_argument("--shares", required=True)
    p.set_defaults(func=cmd_refresh)

    p = sub.add_parser("thresholds", help="report security thresholds")
    p.add_argument("--topology", required=True)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", help="run an adversary scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state", help="continue the simulation saved here, "
                                   "and save it here")
    p.add_argument("--report", help="where to write the JSON report")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EpochMismatch as exc:
        print(f"error: EpochMismatch: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Infeasible as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MultishareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
