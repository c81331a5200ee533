"""Exception types shared across the package.

Plain argument misuse (wrong modulus, bad dimensions, duplicate points)
raises ValueError; the classes below mark protocol-level conditions a
caller may want to branch on. The CLI maps each to an exit code:
EpochMismatch and Infeasible to 3, CapacityError to 4, and the rest to
2. docs/refusals.md lists every message a command refuses its input
with, and its exit code.
"""


class MultishareError(Exception):
    """Base class for protocol-level failures."""


class EpochMismatch(MultishareError):
    """Shares from different refresh epochs were mixed."""


class Infeasible(MultishareError):
    """Reconstruction is impossible with the given share set; the message
    names what is lacking."""


class CapacityError(MultishareError):
    """A bound is exceeded: the exhaustive search's, or a length header's."""


class CorruptData(MultishareError):
    """Input failed validation: a malformed file, or shares that do not
    belong together."""


class StateError(MultishareError):
    """A simulation state file could not be loaded."""


class StorageError(MultishareError):
    """A file could not be written, flushed, renamed or deleted, or a
    directory could not be read or made."""
