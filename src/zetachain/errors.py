"""Exception hierarchy shared across the package.

Each family the CLI reports carries its exit code as the class attribute
exit_code: ValidationError 2, NumericalBreakdown 3, OutOfDomain 4 and
InfeasibleDesign 5, inherited by every subclass.
"""

__all__ = [
    "ZetachainError",
    "ValidationError",
    "DegenerateInput",
    "DimensionMismatch",
    "OutOfDomain",
    "NumericalBreakdown",
    "DisconnectedChain",
    "ConvergenceFailure",
    "StepTooLarge",
    "InfeasibleDesign",
    "CouplingTooStrong",
    "TiltInfeasible",
]


class ZetachainError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ZetachainError):
    """Invalid parameters or inputs outside the supported domain."""

    exit_code = 2


class DegenerateInput(ValidationError):
    """Input vector fails a norm or rank precondition."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes."""


class OutOfDomain(ZetachainError):
    """Zeta oracle queried outside its convergence strip."""

    exit_code = 4


class NumericalBreakdown(ZetachainError):
    """A numerical procedure lost the accuracy it is contracted to keep."""

    exit_code = 3


class DisconnectedChain(NumericalBreakdown):
    """A chain hopping, from either synthesis route, fell below the floor or is not finite."""


class ConvergenceFailure(NumericalBreakdown):
    """Eigensolver failed to converge within its iteration budget."""


class StepTooLarge(NumericalBreakdown):
    """Integrator norm drift exceeded the allowed tolerance."""


class InfeasibleDesign(ZetachainError):
    """Requested hardware layout violates a fabrication constraint."""

    exit_code = 5


class CouplingTooStrong(InfeasibleDesign):
    """A hopping rate is not reachable with the given coupling scale."""


class TiltInfeasible(InfeasibleDesign):
    """A required tilt angle falls outside [0, pi]."""
