"""Command-line frontend: deal, reconstruct, refresh, thresholds, simulate.

Exit codes are a stable scripting contract:
  0 success, 2 input error, 3 protocol infeasibility, 4 capacity,
  64 usage.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional

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
# A refresh to epoch e first writes each share file, and the manifest, as
# NAME.staged-e: a name the *.share.json glob does not match.
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


def _write_atomic(path: Path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file and os.replace, so
    that a failed write leaves no partial file; exit 2 when it fails."""
    tmp = None
    try:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:  # ValueError: a path like "."
        if tmp is not None:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc}")


def _write_json(path: Path, obj) -> None:
    _write_atomic(path, formats.canonical_json(obj) + b"\n")


def _fsync(path: Path) -> None:
    """Flush the file or directory at `path` to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(path: Path, obj) -> None:
    path.write_bytes(formats.canonical_json(obj) + b"\n")
    _fsync(path)


def _staged(path: Path, epoch: int) -> Path:
    """Where a refresh to `epoch` writes `path` before its commit."""
    return path.with_name(f"{path.name}.staged-{epoch}")


def _load_shares(paths: List[Path], modulus: int) -> Iterator[NodeShare]:
    """The shares in `paths`, parsed one at a time as they are asked for."""
    for p in paths:
        try:
            yield formats.share_from_dict(_read_json(p, "share"), modulus)
        except CorruptData as exc:
            raise CliError(EXIT_INPUT, f"cannot read share {p}: {exc}")


def _settle_staged(share_dir: Path, epoch: Optional[int]) -> None:
    """Finish or undo a refresh that stopped part-way, as the manifest's
    `epoch` (None without a manifest) decides: staged files of that epoch
    were committed and take their final names; any other staged file is
    deleted."""
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
                                   f"earlier refresh in {share_dir}: {exc}")


def _share_dir_paths(share_dir: Path, topology: Topology) -> List[Path]:
    """The share files in `share_dir`, once a refresh that stopped
    part-way is settled; exit 2 when the directory's manifest, if it has
    one, cannot be read or names another topology."""
    if not share_dir.is_dir():
        raise CliError(EXIT_INPUT, f"{share_dir} is not a directory")
    manifest = share_dir / MANIFEST
    epoch = None
    if manifest.exists():
        data = _read_json(manifest, "manifest")
        try:
            digest = data["topology_digest"]
            epoch = formats._json_int(data, "epoch")
        except (KeyError, TypeError, CorruptData) as exc:
            raise CliError(EXIT_INPUT, f"cannot read manifest {manifest}: "
                                       f"{exc}")
        if digest != formats.topology_digest(topology):
            raise CliError(EXIT_INPUT, f"{manifest} was written for another "
                                       f"topology")
    _settle_staged(share_dir, epoch)
    return sorted(share_dir.glob("*.share.json"))


def cmd_deal(args) -> int:
    topology = _load_topology(args.topology)
    try:
        secret = Path(args.secret).read_bytes()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read secret: {exc}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot make directory {out_dir}: {exc}")
    chunks = encode_secret(secret, topology.modulus)
    dealt = deal(chunks, topology, _rng(args.seed))
    for shares in dealt.values():
        for share in shares:
            _write_json(_share_path(out_dir, share),
                        formats.share_to_dict(share, topology.modulus))
    _write_json(out_dir / MANIFEST,
                formats.manifest_dict(topology, len(chunks), 0, []))
    total = sum(len(v) for v in dealt.values())
    print(f"dealt {len(chunks)} chunks to {total} nodes in {out_dir}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    topology = _load_topology(args.topology)
    paths = (_share_dir_paths(Path(args.shares), topology) if args.shares
             else [Path(p) for p in args.files])
    shares = list(_load_shares(paths, topology.modulus))
    if not shares:
        raise CliError(EXIT_INPUT, "no share files found")
    grouped = formats.shares_by_network(shares)
    try:
        chunks = reconstruct(grouped, topology)
        secret = decode_secret(chunks, topology.modulus)
    except CorruptData as exc:
        raise CliError(EXIT_INPUT, f"corrupt shares: {exc}")
    _write_atomic(Path(args.out), secret)
    print(f"reconstructed {len(secret)} bytes to {args.out}")
    return EXIT_OK


def cmd_refresh(args) -> int:
    """Advance every share one epoch, holding one share's values at a
    time. Each updated share is written, and flushed, to its staged name;
    one atomic replace of the manifest naming the new epoch commits them
    all, after which they are renamed over the old files. An error before
    the commit deletes the staged files; a crash at any point is settled
    by the next refresh or reconstruct --shares (see _settle_staged)."""
    topology = _load_topology(args.topology)
    q = topology.modulus
    share_dir = Path(args.shares)
    paths = _share_dir_paths(share_dir, topology)
    shares = checked_shares(_load_shares(paths, q), topology)
    first = next(shares, None)
    if first is None:
        raise CliError(EXIT_INPUT, "no share files found")
    epoch, chunk_count = first.epoch, len(first.values)
    deltas = refresh(topology, chunk_count, epoch, _rng(args.seed))
    shares = itertools.chain([first], shares)
    del first
    manifest = share_dir / MANIFEST
    staged_manifest = _staged(manifest, epoch + 1)
    moves = []  # (staged, final) per share file, in the order written
    try:
        for path, share in zip(paths, shares):
            # checked_shares vouched for the node; deltas come in node
            # order. Each share, delta and update is dropped before the
            # next share is parsed.
            node_deltas = deltas[share.network_id]
            delta = node_deltas[share.node_index - 1]
            node_deltas[share.node_index - 1] = None
            updated = apply_node_refresh(share, delta, q)
            del share, delta
            moves.append((_staged(path, epoch + 1), path))
            _write_synced(moves[-1][0], formats.share_to_dict(updated, q))
            del updated
        stale = [f"{net.id}/{d.node_index}" for net in topology.networks
                 for d in deltas[net.id] if d is not None]
        _fsync(share_dir)
        _write_synced(staged_manifest, formats.manifest_dict(
            topology, chunk_count, epoch + 1, stale))
        os.replace(staged_manifest, manifest)  # the commit
    except BaseException as exc:
        for staged in [s for s, _ in moves] + [staged_manifest]:
            try:
                staged.unlink(missing_ok=True)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise CliError(EXIT_INPUT, f"refresh failed, no file changed: "
                                       f"{exc}") from exc
        raise
    try:
        _fsync(share_dir)
        for staged, final in moves:
            os.replace(staged, final)
        _fsync(share_dir)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"epoch {epoch + 1} is committed, but "
                                   f"not every share has its final name "
                                   f"({exc}); the next refresh or "
                                   f"reconstruct --shares finishes it")
    print(f"refreshed {len(moves)} shares to epoch {epoch + 1}"
          + (f"; stale: {', '.join(sorted(stale))}" if stale else ""))
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
    _write_json(report_path, report)
    if args.state:
        try:
            sim.save_state(args.state)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot write state {args.state}: "
                                       f"{exc}")
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
