"""Exception types shared across the package.

Plain argument misuse (wrong modulus, bad dimensions, duplicate points)
raises ValueError; the classes below mark protocol-level conditions a
caller may want to branch on.
"""


class MultishareError(Exception):
    """Base class for protocol-level failures."""


class UnsolvableConstraints(MultishareError):
    """The interpolation constraint matrix is singular."""


class InsufficientShares(MultishareError):
    """Fewer shares than the reconstruction threshold."""


class EpochMismatch(MultishareError):
    """Shares from different refresh epochs were mixed."""


class NoQuorum(MultishareError):
    """No solvable qualifying subset exists among the given shares."""


class CorruptShares(MultishareError):
    """Extra shares disagree with the interpolated polynomial."""


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
    """Serialized data failed validation on decode."""


class StateError(MultishareError):
    """A simulation state file could not be loaded."""
