"""Every file the package creates, writes, flushes, renames or deletes.

Two crash-safe transactions:

- One file (appending, and writing built on it): written and flushed as
  PATH.tmp, moved over PATH by one os.replace, and its directory
  flushed. Once it returns the file is on disk, and a failed write
  leaves no partial file. reconstruct's output (appended block by block),
  simulate's report and the simulator's state file are written this way.
- One vault epoch (Commit): deal (epoch 0) and refresh (epoch e) append
  to each share file, block by block, and write the manifest, as
  NAME.staged-e; one os.replace of the manifest commits them all. settle
  finishes or undoes an epoch that stopped part-way.

Every file is made private to its owner, mode FILE_MODE, and every
directory new_vault_dir makes, mode DIR_MODE; the umask can only narrow
them. Every failure is a StorageError, but for a file that open_regular
refuses. A vault's files are named (SHARE_NAME), its directory listed
(listing) and locked (locked) and its files opened for reading
(open_regular) here alone.

A vault takes one command at a time (locked): deal, refresh and
reconstruct --shares, which may settle it, hold an exclusive flock on
its directory for the command's life, and a reconstruct of listed files
a shared one, so that a second command is refused at once rather than
deleting the first one's staged files. No lock file is made: the lock
is the directory's own, and the kernel drops it when the process ends,
however it ends.
"""

from __future__ import annotations

import fcntl
import os
import re
import stat
from contextlib import AbstractContextManager, ExitStack, contextmanager
from fnmatch import fnmatchcase
from pathlib import Path
from typing import List, Optional

from .errors import CorruptData, StorageError

MANIFEST = "manifest.json"
# The modes of the files and directories made here: the owner's alone.
FILE_MODE = 0o600
DIR_MODE = 0o700
# Why a vault file that open_regular is given is refused.
NOT_REGULAR = "not a regular file"
# Share file names; node j of network I has SHARE_NAME.format(I, j).
SHARE_GLOB = "*.share.json"
SHARE_NAME = "{}_{:03d}.share.json"
# The staged name of a share file or the manifest: NAME.staged-EPOCH, a
# name SHARE_GLOB does not match.
STAGED_NAME = re.compile(
    r"(.+\.share\.json|manifest\.json)\.staged-(-?[0-9]+)")


def is_vault_file(name: str) -> bool:
    """Whether a file named `name` is a vault's: its manifest, a share
    file or a staged file."""
    return (name == MANIFEST or fnmatchcase(name, SHARE_GLOB)
            or STAGED_NAME.fullmatch(name) is not None)


@contextmanager
def _failing_as(message: str):
    """Raise an OSError in the block as StorageError("MESSAGE: error")."""
    try:
        yield
    except OSError as exc:
        raise StorageError(f"{message}: {exc}") from exc


def listing(directory: Path) -> Optional[List[str]]:
    """The names in `directory`, sorted; None when it is missing or not a
    directory. StorageError when it cannot be read."""
    with _failing_as(f"cannot read directory {directory}"):
        try:
            return sorted(p.name for p in directory.iterdir())
        except (FileNotFoundError, NotADirectoryError):
            return None


@contextmanager
def locked(directory: Path, shared: bool = False):
    """Hold the lock of the vault in `directory` in the block: exclusive,
    or `shared` with other readers. StorageError at once, without
    waiting, when another command holds it (two descriptors of one
    process conflict too), and when the directory cannot be opened or
    its file system takes no lock."""
    with _failing_as(f"cannot read directory {directory}"):
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        try:
            fcntl.flock(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
                        | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StorageError(f"{directory} is in use by another "
                               f"multishare command") from None
        except OSError as exc:
            raise StorageError(f"cannot lock {directory}: {exc}") from exc
        yield
    finally:
        os.close(fd)


def open_regular(path):
    """The file at `path`, open for reading bytes. CorruptData
    (NOT_REGULAR), not a StorageError, when it is not a regular file: it
    is opened without waiting for a writer, so that a FIFO in a vault is
    refused rather than read forever, and so is a directory or a
    device."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise CorruptData(NOT_REGULAR)
        os.set_blocking(fd, True)
        return open(fd, "rb")
    except BaseException:
        os.close(fd)
        raise


def share_files(directory: Path) -> List[Path]:
    """The share files in `directory` (listing), sorted."""
    return [directory / name for name in listing(directory) or ()
            if fnmatchcase(name, SHARE_GLOB)]


def _fsync(path: Path) -> None:
    """Flush the file or directory at `path` to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_block(path: Path, data: bytes, mode: str) -> None:
    """Write `data` to `path`: mode "wb" makes it, mode FILE_MODE, in place
    of any file left there, whose mode it does not keep; "ab" appends to
    it."""
    if mode == "wb":
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    else:
        flags = os.O_WRONLY | os.O_APPEND
    with os.fdopen(os.open(path, flags, FILE_MODE), "wb") as file:
        file.write(data)


def _discard(path: Path) -> None:
    """Delete `path` as cleanup: errors are ignored."""
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


@contextmanager
def appending(path: Path):
    """Write `path` durably from the byte blocks that append(block), the
    function the with block gets, adds in turn: PATH.tmp is made at the
    first append, and once the block completes it is flushed and takes
    its name, with the directory flushed. append(block, flush=True) also
    flushes PATH.tmp at once. An error in the block, or a failed write,
    deletes PATH.tmp and leaves `path` as it was; nothing is touched
    before the first append. A symbolic link is written through: PATH is
    its target, which the new file replaces, and the link stays."""
    target = Path(os.path.realpath(path))
    tmp = None  # made by the first append
    unflushed = False

    def append(block: bytes, flush: bool = False) -> None:
        nonlocal tmp, unflushed
        if not path.name:  # a path like "."
            raise StorageError(f"cannot write {path}: not a file name")
        mode = "ab" if tmp else "wb"
        tmp = target.with_name(target.name + ".tmp")
        unflushed = True
        with _failing_as(f"cannot write {path}"):
            _write_block(tmp, block, mode)
            if flush:
                _fsync(tmp)
                unflushed = False

    try:
        yield append
        if tmp is None:
            append(b"")
        with _failing_as(f"cannot write {path}"):
            if unflushed:
                _fsync(tmp)
            os.replace(tmp, target)
    except BaseException:
        if tmp is not None:
            _discard(tmp)
        raise
    with _failing_as(f"cannot write {path}: flushing its directory failed"):
        _fsync(target.parent)


@contextmanager
def writing(path: Path, data: bytes):
    """Write `data` to `path` once the block completes (appending): it is
    written and flushed as PATH.tmp before the block runs, and takes its
    name after."""
    with appending(path) as append:
        append(data, flush=True)
        yield


class Commit(AbstractContextManager):
    """The files of the vault at `epoch` in `share_dir`, committed as one
    transaction; `command` names it in errors.

    In a with block, append(path, block) adds a block of bytes to the
    staged name of the share file at `path`, made by its first append,
    which refuses a `path` that is a symbolic link: the staged file takes
    the link's name, so the file it points to would keep its old share.
    commit(manifest) flushes each staged file and the directory, writes
    and flushes the manifest as manifest.json.staged-EPOCH, and commits
    the vault by one os.replace of manifest.json. Then the directory is
    flushed, each staged file takes its final name, and the directory is
    flushed again. Leaving the block before the commit deletes every
    staged file; a crash at any point is settled by settle."""

    def __init__(self, share_dir: Path, epoch: int, command: str):
        self.share_dir, self.epoch = share_dir, epoch
        self.staged = {}  # final name -> staged name, in the order made
        self.manifest = self._staged(share_dir / MANIFEST)
        self.committed = False
        self.uncommitted = f"{command} failed, no file changed"

    def _staged(self, path: Path) -> Path:
        return path.with_name(f"{path.name}.staged-{self.epoch}")

    def __exit__(self, *exc_info) -> None:
        if not self.committed:
            for staged in self.staged.values():
                _discard(staged)
            _discard(self.manifest)

    def append(self, path: Path, block: bytes) -> None:
        if path not in self.staged and path.is_symlink():
            raise StorageError(f"{path} is a symbolic link; put the share "
                               f"file itself in the vault directory")
        mode = "ab" if path in self.staged else "wb"
        staged = self.staged.setdefault(path, self._staged(path))
        with _failing_as(self.uncommitted):
            _write_block(staged, block, mode)

    def commit(self, manifest: bytes) -> int:
        """Commit the staged files with `manifest`; returns their
        number."""
        with _failing_as(self.uncommitted):
            for staged in self.staged.values():
                _fsync(staged)
            _fsync(self.share_dir)
            _write_block(self.manifest, manifest, "wb")
            _fsync(self.manifest)
            os.replace(self.manifest, self.share_dir / MANIFEST)
        self.committed = True
        with _failing_as(f"epoch {self.epoch} is committed, but not every "
                         f"share has its final name; the next refresh or "
                         f"reconstruct --shares finishes it"):
            _fsync(self.share_dir)
            for final, staged in self.staged.items():
                os.replace(staged, final)
            _fsync(self.share_dir)
        return len(self.staged)


def settle(share_dir: Path, epoch: Optional[int]) -> List[Path]:
    """The share files in `share_dir`, sorted, once a deal or refresh that
    stopped part-way is finished or undone, as the manifest's `epoch`
    (None without a manifest) decides: staged files of that epoch were
    committed and take their final names; any other staged file is
    deleted, and one already gone (a program that takes no lock may
    delete it) counts as deleted."""
    staged = [(share_dir / name, m) for name in listing(share_dir) or ()
              if (m := STAGED_NAME.fullmatch(name))]
    with _failing_as(f"cannot settle the staged files of an earlier deal "
                     f"or refresh in {share_dir}"):
        for path, m in staged:
            if int(m[2]) == epoch:
                os.replace(path, share_dir / m[1])
            else:
                path.unlink(missing_ok=True)
        if staged:
            _fsync(share_dir)
    return share_files(share_dir)


@contextmanager
def new_vault_dir(out_dir: Path):
    """Make `out_dir` for a deal, with any missing parents, each mode
    DIR_MODE, and flush each directory made and the parent of the topmost;
    then hold its lock (locked) in the block. StorageError when `out_dir`
    cannot be made or locked, or already holds a vault: a manifest, a
    share file or a staged file. Dealing over a vault could leave neither
    secret recoverable. In a directory without a manifest, the files
    staged at epoch 0 are first deleted: only a deal writes them, and that
    deal never committed. Whenever this or the block raises, as when a
    Commit in it ends before its commit, the directories made are
    removed, the deepest first. A directory counts as made only when this
    mkdir made it, so that a deal never removes one that another deal
    uses."""
    made = []  # the directories made, the deepest first
    with ExitStack() as held:
        try:
            with _failing_as(f"cannot make directory {out_dir}"):
                missing, parent = [], out_dir
                while not parent.exists() and parent != parent.parent:
                    missing.insert(0, parent)
                    parent = parent.parent
                for directory in missing or [out_dir]:
                    try:
                        directory.mkdir(mode=DIR_MODE)
                    except FileExistsError:
                        # out_dir as it was, or one another deal has made
                        # since it was found missing.
                        if not directory.is_dir():
                            raise
                    else:
                        made.insert(0, directory)
                # Each directory made is flushed, and the one the topmost
                # is named in, so that the path of a vault whose deal
                # exits 0 is on disk.
                for directory in made + [made[-1].parent] if made else []:
                    _fsync(directory)
            held.enter_context(locked(out_dir))
            names = listing(out_dir) or []
            uncommitted = [] if MANIFEST in names else [
                name for name in names
                if (m := STAGED_NAME.fullmatch(name)) and m[2] == "0"]
            with _failing_as(f"cannot delete the files of an uncommitted "
                             f"deal in {out_dir}"):
                for name in uncommitted:
                    (out_dir / name).unlink(missing_ok=True)
            names = [name for name in names
                     if is_vault_file(name) and name not in uncommitted]
            if names:
                raise StorageError(f"{out_dir} already holds a vault "
                                   f"({', '.join(names[:3])}"
                                   f"{', ...' if len(names) > 3 else ''}); "
                                   f"deal into a new directory")
            yield
        except BaseException:
            _remove_made(made)
            raise


def _remove_made(made: List[Path]) -> None:
    """Remove the directories in `made`, in turn, as cleanup: errors are
    ignored, so one that is gone or not empty stays as it is."""
    for directory in made:
        try:
            directory.rmdir()
        except OSError:
            pass
