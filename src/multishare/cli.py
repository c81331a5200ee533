"""Command-line frontend: deal, reconstruct, refresh, thresholds, simulate.

Exit codes are a stable scripting contract:
  0 success, 2 input error, 3 protocol infeasibility, 4 capacity,
  64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .errors import (CapacityError, CorruptData, EpochMismatch, Infeasible,
                     MultishareError, StateError)
from .field import crypto_rng, deterministic_rng
from . import formats
from .protocol import (NodeShare, Topology, apply_node_refresh,
                       checked_shares, compute_thresholds_exhaustive,
                       compute_thresholds_formula, deal, decode_secret,
                       encode_secret, reconstruct, refresh,
                       EXHAUSTIVE_DEGREE_BOUND, EXHAUSTIVE_NETWORK_BOUND)
from .simnet import (Scenario, Simulation, check_targets, load_state,
                     run_scenario)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4
EXIT_USAGE = 64

THRESHOLD_FIELDS = ("t_networks", "t_nodes", "t_f0", "t_f1", "t_fail")

MANIFEST = "manifest.json"
# A deal (epoch 0) or a refresh to epoch e first writes each share file,
# and the manifest, as NAME.staged-e: a name the *.share.json glob does not
# match.
STAGED_NAME = re.compile(
    r"(.+\.share\.json|manifest\.json)\.staged-(-?[0-9]+)")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_json(path, what: str):
    """The JSON document in file `path`; exit 2 when it cannot be read or
    parsed, nesting too deep included."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {what} {path}: {exc}")


def _load_topology(path: str) -> Topology:
    try:
        return formats.topology_from_dict(
            _read_json(path, "topology"),
            min_modulus=formats.MIN_USER_MODULUS)
    except CorruptData as exc:
        raise CliError(EXIT_INPUT, str(exc))


def _rng(seed):
    return crypto_rng() if seed is None else deterministic_rng(seed)


def _share_path(out_dir: Path, share: NodeShare) -> Path:
    return out_dir / f"{share.network_id}_{share.node_index:03d}.share.json"


def _discard(path: Optional[Path]) -> None:
    """Delete `path`, if there is one, as cleanup: errors are ignored."""
    if path is not None:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass


def _stage(path: Path, data: bytes, flush: bool = False) -> Path:
    """Write `data` to a temporary file beside `path`, with `flush` also
    to disk, and return its path; exit 2, leaving no partial file, when it
    cannot be written."""
    tmp = None
    try:
        tmp = path.with_name(path.name + ".tmp")
        (_write_synced if flush else Path.write_bytes)(tmp, data)
    except (OSError, ValueError) as exc:  # ValueError: a path like "."
        _discard(tmp)
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc}")
    return tmp


def _commit(tmp: Path, path: Path) -> None:
    """os.replace the file _stage wrote over `path`; exit 2 when it
    fails."""
    try:
        os.replace(tmp, path)
    except OSError as exc:
        _discard(tmp)
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc}")


def _json_line(obj) -> bytes:
    return formats.canonical_json(obj) + b"\n"


def _fsync(path: Path) -> None:
    """Flush the file or directory at `path` to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    _fsync(path)


def _write_durable(path: Path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file, flushed to disk
    before os.replace gives it its final name, then flush the directory:
    once this returns the file is on disk, and a failed write leaves no
    partial file. Exit 2 when it fails."""
    _commit(_stage(path, data, flush=True), path)
    try:
        _fsync(path.parent)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot flush directory {path.parent}: "
                                   f"{exc}")


def _staged(path: Path, epoch: int) -> Path:
    """Where a deal (epoch 0) or a refresh to `epoch` writes `path` before
    its commit."""
    return path.with_name(f"{path.name}.staged-{epoch}")


def _commit_vault(share_dir: Path, epoch: int, command: str,
                  write_shares) -> Tuple[dict, int]:
    """Write the share files of the vault at `epoch` in `share_dir` and
    commit them; deal and refresh both write through here. Returns the
    manifest and the number of share files.

    write_shares(stage) calls stage(path, data) once per share file, which
    writes `data` to the file's staged name and flushes it, and then
    returns the manifest. The directory is flushed; the manifest is
    written and flushed as manifest.json.staged-EPOCH, and one atomic
    replace of manifest.json commits the vault. Then the directory is
    flushed, each staged file takes its final name, and the directory is
    flushed again. An error before the commit deletes every staged file;
    a crash at any point is settled by the next refresh or reconstruct
    --shares (see _settle_staged)."""
    moves = []  # (staged, final) per share file, in the order written
    staged_manifest = _staged(share_dir / MANIFEST, epoch)

    def stage(path: Path, data: bytes) -> None:
        moves.append((_staged(path, epoch), path))
        _write_synced(moves[-1][0], data)

    try:
        manifest = write_shares(stage)
        _fsync(share_dir)
        _write_synced(staged_manifest, _json_line(manifest))
        os.replace(staged_manifest, share_dir / MANIFEST)  # the commit
    except BaseException as exc:
        for staged in [s for s, _ in moves] + [staged_manifest]:
            _discard(staged)
        if isinstance(exc, OSError):
            raise CliError(EXIT_INPUT, f"{command} failed, no file changed: "
                                       f"{exc}") from exc
        raise
    try:
        _fsync(share_dir)
        for staged, final in moves:
            os.replace(staged, final)
        _fsync(share_dir)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"epoch {epoch} is committed, but not "
                                   f"every share has its final name "
                                   f"({exc}); the next refresh or "
                                   f"reconstruct --shares finishes it")
    return manifest, len(moves)


def _load_shares(paths: List[Path], modulus: int) -> Iterator[NodeShare]:
    """The shares in `paths`, parsed one at a time as they are asked for."""
    for p in paths:
        try:
            yield formats.share_from_dict(_read_json(p, "share"), modulus)
        except CorruptData as exc:
            raise CliError(EXIT_INPUT, f"cannot read share {p}: {exc}")


def _settle_staged(share_dir: Path, epoch: Optional[int]) -> None:
    """Finish or undo a deal or refresh that stopped part-way, as the
    manifest's `epoch` (None without a manifest) decides: staged files of
    that epoch were committed and take their final names; any other
    staged file is deleted."""
    staged = [(p, m) for p in sorted(share_dir.iterdir())
              if (m := STAGED_NAME.fullmatch(p.name))]
    if not staged:
        return
    try:
        for path, m in staged:
            if int(m[2]) == epoch:
                os.replace(path, share_dir / m[1])
            else:
                path.unlink()
        _fsync(share_dir)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot settle the staged files of an "
                                   f"earlier deal or refresh in {share_dir}: "
                                   f"{exc}")


def _share_dir_paths(share_dir: Path, digest: str) -> List[Path]:
    """The share files in `share_dir`, once a deal or refresh that stopped
    part-way is settled; exit 2 when the directory's manifest, if it has
    one, cannot be read or names a topology whose topology_digest is not
    `digest`."""
    if not share_dir.is_dir():
        raise CliError(EXIT_INPUT, f"{share_dir} is not a directory")
    manifest = share_dir / MANIFEST
    epoch = None
    if manifest.exists():
        data = _read_json(manifest, "manifest")
        try:
            written_for = data["topology_digest"]
            epoch = formats._json_int(data, "epoch")
        except (KeyError, TypeError, CorruptData) as exc:
            raise CliError(EXIT_INPUT, f"cannot read manifest {manifest}: "
                                       f"{exc}")
        if written_for != digest:
            raise CliError(EXIT_INPUT, f"{manifest} was written for another "
                                       f"topology")
    _settle_staged(share_dir, epoch)
    return sorted(share_dir.glob("*.share.json"))


def _refuse_vault(out_dir: Path) -> None:
    """Exit 2 when `out_dir` already holds a vault: a manifest, a share
    file or a staged file. Dealing over it could leave neither secret
    recoverable. In a directory without a manifest, the files staged at
    epoch 0 are first deleted: only a deal writes them, and that deal
    never committed."""
    try:
        names = sorted(p.name for p in out_dir.iterdir())
    except (FileNotFoundError, NotADirectoryError):
        return  # no vault; mkdir reports a path it cannot use
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read directory {out_dir}: {exc}")
    if MANIFEST not in names:
        uncommitted = [name for name in names
                       if (m := STAGED_NAME.fullmatch(name)) and m[2] == "0"]
        try:
            for name in uncommitted:
                (out_dir / name).unlink(missing_ok=True)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot delete the files of an "
                                       f"uncommitted deal in {out_dir}: "
                                       f"{exc}")
        names = [name for name in names if name not in uncommitted]
    names = [name for name in names
             if name == MANIFEST or name.endswith(".share.json")
             or STAGED_NAME.fullmatch(name)]
    if names:
        raise CliError(EXIT_INPUT, f"{out_dir} already holds a vault "
                                   f"({', '.join(names[:3])}"
                                   f"{', ...' if len(names) > 3 else ''}); "
                                   f"deal into a new directory")


def cmd_deal(args) -> int:
    """Deal the secret, writing each node's share file as soon as its
    share is made; deal (see protocol.deal) then holds one network's
    columns and one share at a time. The vault is committed at epoch 0 as
    a refresh commits its epoch (see _commit_vault): a deal that exits 0
    has its vault on disk, and one that stops part-way leaves either the
    whole vault or files that the next deal, refresh or reconstruct
    --shares deletes."""
    topology = _load_topology(args.topology)
    q = topology.modulus
    # Taken before the share work, as refresh and reconstruct --shares
    # take it, so that hashlib, which the digest loads, is mapped before
    # the peak of every vault command.
    digest = formats.topology_digest(topology)
    try:
        secret = Path(args.secret).read_bytes()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read secret: {exc}")
    out_dir = Path(args.out)
    _refuse_vault(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot make directory {out_dir}: {exc}")

    def write_shares(stage) -> dict:
        chunk_counts = []  # one per share written

        def write(share: NodeShare) -> None:
            stage(_share_path(out_dir, share), formats.share_bytes(share, q))
            chunk_counts.append(len(share.values))

        # The chunks are made in the argument list, so that deal can drop
        # them once it has split them.
        deal(encode_secret(secret, q), topology, _rng(args.seed), sink=write)
        return formats.manifest_dict(digest, chunk_counts[0], 0, [])

    manifest, nodes = _commit_vault(out_dir, 0, "deal", write_shares)
    print(f"dealt {manifest['chunk_count']} chunks to {nodes} nodes in "
          f"{out_dir}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    """Recover the secret from the share files, read one at a time as
    reconstruct asks for them (see protocol.reconstruct)."""
    topology = _load_topology(args.topology)
    paths = (_share_dir_paths(Path(args.shares),
                              formats.topology_digest(topology))
             if args.shares else [Path(p) for p in args.files])
    if not paths:
        raise CliError(EXIT_INPUT, "no share files found")
    shares = _load_shares(paths, topology.modulus)
    try:
        chunks = reconstruct(shares, topology)
        secret = decode_secret(chunks, topology.modulus)
    except MultishareError as exc:
        # The files after a failed check are still read, one at a time,
        # so that a malformed file anywhere exits 2 before it, as when
        # every file was read first.
        for _ in shares:
            pass
        if isinstance(exc, CorruptData):
            raise CliError(EXIT_INPUT, f"corrupt shares: {exc}")
        raise
    _write_durable(Path(args.out), secret)
    print(f"reconstructed {len(secret)} bytes to {args.out}")
    return EXIT_OK


def cmd_refresh(args) -> int:
    """Advance every share one epoch, holding one share's values at a
    time besides the round's refresh columns, and each network's columns
    only until its last share is updated. The updated shares are committed
    at the new epoch by one atomic replace of the manifest (see
    _commit_vault)."""
    topology = _load_topology(args.topology)
    q = topology.modulus
    share_dir = Path(args.shares)
    digest = formats.topology_digest(topology)
    paths = _share_dir_paths(share_dir, digest)
    if not paths:
        raise CliError(EXIT_INPUT, "no share files found")
    shares = checked_shares(_load_shares(paths, q), topology)
    # The first share fixes the epoch and the chunk count.
    first = [next(shares)]
    epoch, chunk_count = first[0].epoch, len(first[0].values)
    deltas = refresh(topology, chunk_count, epoch, _rng(args.seed))
    done = {net.id: set() for net in topology.networks}  # nodes updated

    def write_shares(stage) -> dict:
        for path in paths:
            # checked_shares vouches for the node. Each share and its
            # update are dropped before the next share is read.
            share = first.pop() if first else next(shares)
            net = topology.spec(share.network_id)
            done[net.id].add(share.node_index)
            updated = apply_node_refresh(share, deltas[net.id])
            del share
            stage(path, formats.share_bytes(updated, q))
            del updated
            if len(done[net.id]) == net.node_count:
                del deltas[net.id]  # its columns are no longer needed
        stale = [f"{net.id}/{j}" for net in topology.networks
                 for j in range(1, net.node_count + 1)
                 if j not in done[net.id]]
        return formats.manifest_dict(digest, chunk_count, epoch + 1, stale)

    manifest, count = _commit_vault(share_dir, epoch + 1, "refresh",
                                    write_shares)
    stale = manifest["stale"]
    print(f"refreshed {count} shares to epoch {epoch + 1}"
          + (f"; stale: {', '.join(stale)}" if stale else ""))
    return EXIT_OK


def _print_thresholds(title: str, thresholds) -> None:
    print(title)
    for name in THRESHOLD_FIELDS:
        print(f"  {name:<10} = {getattr(thresholds, name)}")


def cmd_thresholds(args) -> int:
    topology = _load_topology(args.topology)
    formula = compute_thresholds_formula(topology)
    _print_thresholds("formula thresholds (T = degree + 1):", formula)
    if args.oracle:
        oracle = compute_thresholds_exhaustive(topology)
        _print_thresholds("exhaustive-search thresholds:", oracle)
        for name in THRESHOLD_FIELDS:
            a, b = getattr(formula, name), getattr(oracle, name)
            if a != b:
                note = (" (the closed form disables one daughter too few)"
                        if name in ("t_f1", "t_fail") else "")
                print(f"DISCREPANCY: {name} formula={a} "
                      f"exhaustive={b}{note}")
    return EXIT_OK


def cmd_simulate(args) -> int:
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
    else:
        sim = Simulation(scenario.topology, scenario.secret, args.seed)
    try:
        check_targets(scenario.schedule, sim.topology, sim.dealt)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"cannot run the schedule: {exc}")
    report = run_scenario(scenario, seed=args.seed, sim=sim)
    report_path = Path(args.report) if args.report else \
        Path(args.scenario).with_suffix(".report.json")
    # The report is staged before the state is saved and takes its name
    # after, so that a run whose state cannot be saved leaves no report
    # and any earlier state file as it was.
    staged_report = _stage(report_path, _json_line(report))
    if args.state:
        try:
            sim.save_state(args.state)
        except OSError as exc:
            _discard(staged_report)
            raise CliError(EXIT_INPUT, f"cannot write state {args.state}: "
                                       f"{exc}")
    _commit(staged_report, report_path)
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
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_refresh)

    p = sub.add_parser("thresholds", help="report security thresholds")
    p.add_argument("--topology", required=True)
    p.add_argument("--oracle", action="store_true",
                   help=f"also run the exhaustive search (<= "
                        f"{EXHAUSTIVE_NETWORK_BOUND} networks, inner degree "
                        f"<= {EXHAUSTIVE_DEGREE_BOUND})")
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
        print(f"error: infeasible: {exc.missing}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MultishareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
