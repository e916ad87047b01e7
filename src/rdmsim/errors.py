"""Exception hierarchy shared by all modules.

Two top-level families map onto the CLI exit codes: ContractViolation
(a precondition or invariant was violated by the caller, exit 1) and
NumericFailure (the computation itself produced NaN/overflow, exit 2).
"""


class _Located:
    """Carries the step (and, in an ensemble, the trial) where it fired."""

    def __init__(self, message, step=None, trial=None):
        super().__init__(message)
        self.step = step
        self.trial = trial


class ContractViolation(ValueError):
    """A documented precondition or invariant does not hold."""


class NormalizationError(ContractViolation):
    """State / density not normalized within its stated tolerance."""


class DimensionMismatchError(ContractViolation):
    """Operator and state (or grids) have incompatible dimensions."""


class DegenerateOccupationError(ContractViolation):
    """A jump rate would divide by an occupation below the 1e-12 floor."""


class StepSizeError(_Located, ContractViolation):
    """Explicit time step too large for the stability/probability guard."""


class SuperPlanckianError(_Located, ContractViolation):
    """Per-instant collapse strength k = dE*t_P/hbar exceeds 1."""


class PhaseAmbiguityError(ContractViolation):
    """Density support is split by an interior node; the phase line
    integral is undefined across it."""


class NoSimultaneityFrameError(ContractViolation):
    """Event pair is timelike or lightlike: no boost makes it simultaneous."""


class SuperluminalFrameError(ContractViolation):
    """Requested boost velocity is at or beyond the light speed."""


class InfiniteOneWaySpeedError(ContractViolation):
    """Synchrony parameter k = +-1 makes a one-way light speed infinite."""


class PointerDomainError(ContractViolation):
    """A pointer shift would leave the pointer grid."""


class InsufficientOverlapError(ContractViolation):
    """No stay pairs coincide within the requested time tolerance."""


class ScenarioError(ContractViolation):
    """Malformed scenario file or invalid CLI invocation."""


class NumericFailure(_Located, ArithmeticError):
    """NaN or overflow produced mid-run."""
