"""Exception types shared across the package.

Plain argument misuse (wrong modulus, bad dimensions, duplicate points)
raises ValueError; the classes below mark protocol-level conditions a
caller may want to branch on. The CLI maps each to an exit code:
EpochMismatch and Infeasible to 3, CapacityError to 4, and the rest to
2.
"""


class MultishareError(Exception):
    """Base class for protocol-level failures."""


class EpochMismatch(MultishareError):
    """Shares from different refresh epochs were mixed."""


class Infeasible(MultishareError):
    """Reconstruction is impossible with the given share set.

    ``missing`` names what is lacking (human-readable).
    """

    def __init__(self, missing):
        super().__init__(missing)
        self.missing = missing


class CapacityError(MultishareError):
    """Exhaustive analysis was asked for a topology above its size bound."""


class CorruptData(MultishareError):
    """Input failed validation: a malformed file, or shares that do not
    belong together."""


class StateError(MultishareError):
    """A simulation state file could not be loaded."""
