"""Every file the package creates, writes, flushes, renames or deletes.

Two crash-safe transactions:

- One file (write_file, writing): written and flushed as PATH.tmp, moved
  over PATH by one os.replace, and its directory flushed. Once it returns
  the file is on disk, and a failed write leaves no partial file.
  reconstruct's output, simulate's report and the simulator's state file
  are written this way.
- One vault epoch (Commit): deal (epoch 0) and refresh (epoch e) write
  each share file, as a stream of byte blocks, and the manifest as
  NAME.staged-e; one os.replace of the manifest commits them all. settle
  finishes or undoes an epoch that stopped part-way.

Every failure is a StorageError.
"""

from __future__ import annotations

import os
import re
from contextlib import AbstractContextManager, contextmanager
from pathlib import Path
from typing import Iterable, List, Optional

from .errors import StorageError

MANIFEST = "manifest.json"
# The staged name of a share file or the manifest: NAME.staged-EPOCH, a
# name the *.share.json glob does not match.
STAGED_NAME = re.compile(
    r"(.+\.share\.json|manifest\.json)\.staged-(-?[0-9]+)")


@contextmanager
def _failing_as(message: str):
    """Raise an OSError in the block as StorageError("MESSAGE: error")."""
    try:
        yield
    except OSError as exc:
        raise StorageError(f"{message}: {exc}") from exc


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


def _write_blocks(path: Path, blocks: Iterable[bytes]) -> None:
    """Write `blocks` to `path` one after another, each as it is made."""
    with open(path, "wb") as file:
        file.writelines(blocks)


def _discard(path: Path) -> None:
    """Delete `path` as cleanup: errors are ignored."""
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


@contextmanager
def writing(path: Path, data: bytes):
    """Write `data` to `path` once the block completes: it is written and
    flushed as PATH.tmp before the block runs, and takes its name after,
    with the directory flushed. An error in the block, or a failed write,
    deletes PATH.tmp and leaves `path` as it was."""
    if not path.name:  # a path like "."
        raise StorageError(f"cannot write {path}: not a file name")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with _failing_as(f"cannot write {path}"):
            _write_synced(tmp, data)
        yield
        with _failing_as(f"cannot write {path}"):
            os.replace(tmp, path)
    except BaseException:
        _discard(tmp)
        raise
    with _failing_as(f"cannot write {path}: flushing its directory failed"):
        _fsync(path.parent)


def write_file(path: Path, data: bytes) -> None:
    """Write `data` to `path` durably (see writing)."""
    with writing(path, data):
        pass


class Commit(AbstractContextManager):
    """The files of the vault at `epoch` in `share_dir`, committed as one
    transaction; `command` names it in errors.

    In a with block, stage(path, blocks) once per share file writes the
    byte blocks to the file's staged name, one at a time, and flushes it.
    commit(manifest) flushes the directory, writes and flushes the
    manifest as manifest.json.staged-EPOCH, and commits the vault by one
    os.replace of manifest.json. Then the directory is flushed, each
    staged file takes its final name, and the directory is flushed again.
    Leaving the block before the commit deletes every staged file; a
    crash at any point is settled by settle."""

    def __init__(self, share_dir: Path, epoch: int, command: str):
        self.share_dir, self.epoch = share_dir, epoch
        self.moves = []  # (staged, final) per share file, in the order written
        self.manifest = self._staged(share_dir / MANIFEST)
        self.committed = False
        self.uncommitted = f"{command} failed, no file changed"

    def _staged(self, path: Path) -> Path:
        return path.with_name(f"{path.name}.staged-{self.epoch}")

    def __exit__(self, *exc_info) -> None:
        if not self.committed:
            for staged, _ in self.moves:
                _discard(staged)
            _discard(self.manifest)

    def stage(self, path: Path, blocks: Iterable[bytes]) -> None:
        staged = self._staged(path)
        self.moves.append((staged, path))
        with _failing_as(self.uncommitted):
            _write_blocks(staged, blocks)
            _fsync(staged)

    def commit(self, manifest: bytes) -> int:
        """Commit the staged files with `manifest`; returns their
        number."""
        with _failing_as(self.uncommitted):
            _fsync(self.share_dir)
            _write_synced(self.manifest, manifest)
            os.replace(self.manifest, self.share_dir / MANIFEST)
        self.committed = True
        with _failing_as(f"epoch {self.epoch} is committed, but not every "
                         f"share has its final name; the next refresh or "
                         f"reconstruct --shares finishes it"):
            _fsync(self.share_dir)
            for staged, final in self.moves:
                os.replace(staged, final)
            _fsync(self.share_dir)
        return len(self.moves)


def settle(share_dir: Path, epoch: Optional[int]) -> List[Path]:
    """The share files in `share_dir`, sorted, once a deal or refresh that
    stopped part-way is finished or undone, as the manifest's `epoch`
    (None without a manifest) decides: staged files of that epoch were
    committed and take their final names; any other staged file is
    deleted."""
    staged = [(p, m) for p in sorted(share_dir.iterdir())
              if (m := STAGED_NAME.fullmatch(p.name))]
    with _failing_as(f"cannot settle the staged files of an earlier deal "
                     f"or refresh in {share_dir}"):
        for path, m in staged:
            if int(m[2]) == epoch:
                os.replace(path, share_dir / m[1])
            else:
                path.unlink()
        if staged:
            _fsync(share_dir)
    return sorted(share_dir.glob("*.share.json"))


def new_vault_dir(out_dir: Path) -> None:
    """Make `out_dir` for a deal. StorageError when it cannot be made, or
    already holds a vault: a manifest, a share file or a staged file.
    Dealing over a vault could leave neither secret recoverable. In a
    directory without a manifest, the files staged at epoch 0 are first
    deleted: only a deal writes them, and that deal never committed."""
    try:
        names = sorted(p.name for p in out_dir.iterdir())
    except (FileNotFoundError, NotADirectoryError):
        names = []  # no vault; mkdir reports a path it cannot use
    except OSError as exc:
        raise StorageError(f"cannot read directory {out_dir}: {exc}") from exc
    if MANIFEST not in names:
        uncommitted = [name for name in names
                       if (m := STAGED_NAME.fullmatch(name)) and m[2] == "0"]
        with _failing_as(f"cannot delete the files of an uncommitted deal "
                         f"in {out_dir}"):
            for name in uncommitted:
                (out_dir / name).unlink(missing_ok=True)
        names = [name for name in names if name not in uncommitted]
    names = [name for name in names
             if name == MANIFEST or name.endswith(".share.json")
             or STAGED_NAME.fullmatch(name)]
    if names:
        raise StorageError(f"{out_dir} already holds a vault "
                           f"({', '.join(names[:3])}"
                           f"{', ...' if len(names) > 3 else ''}); "
                           f"deal into a new directory")
    with _failing_as(f"cannot make directory {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
