"""Exception hierarchy for the simulator.

The physics layers raise SimulationError subclasses, or ValueError for a bad
argument or a failing ``check_within`` guard (its default error). The CLI
maps both to exit 3 (protocol), ConfigError to 2 and OSError to 4 (I/O).
"""


class SimulationError(Exception):
    """Base class for all errors raised by the simulation layers."""


class DuplicateLabelError(SimulationError):
    """Two modes in one register share a label."""


class InvalidCutoffError(SimulationError):
    """Mode cutoff incompatible with its kind (fermion/two-level need 1)."""


class DimensionBudgetError(SimulationError):
    """A register's dimension exceeds ``fock.MAX_REGISTER_DIM``, or one
    pass of the exact operator product needs more scalar products than
    ``operators._MAX_PRODUCTS``."""


class UnknownModeError(SimulationError):
    """Referenced mode label is not part of the register."""


class OccupationOutOfRangeError(SimulationError):
    """Occupation tuple has wrong length or exceeds a mode cutoff."""


class RegisterMismatchError(SimulationError):
    """Operands (states, operators, specs) belong to different registers."""


class KindMismatchError(SimulationError):
    """Operation requires a mode of a different kind."""


class SiteMismatchError(SimulationError):
    """Paired modes must be tagged with the same site."""


class NotHermitianError(SimulationError):
    """Operator expected to be hermitian is not."""


class TailBoundExceededError(SimulationError):
    """Coherent-state occupation tail above the cutoff exceeds its bound."""


class NonCommutingSpecsError(SimulationError):
    """Joint sampling requested for measurements with no joint distribution."""


class ImpossibleOutcomeError(SimulationError):
    """Post-selection on an outcome of (numerically) zero probability."""


class NTooLargeError(SimulationError):
    """Chain length out of the exhaustively enumerable range."""


class ConfigError(Exception):
    """Invalid run configuration (unknown experiment, bad parameter...)."""


def check_within(gap, bound, what: str, *args, error=ValueError) -> None:
    """The one rule of every numerical guard: raise ``error`` unless ``gap <=
    bound``, so a NaN gap fails, with the message ``what % args`` followed by
    ``": <gap .3e> exceeds bound <bound!r>"``, formatted only on failure."""
    if not gap <= bound:
        raise error(f"{what % args}: {gap:.3e} exceeds bound {bound!r}")
