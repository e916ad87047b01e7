"""Exception hierarchy shared by all modules.

Two top-level families map onto the CLI exit codes: ContractViolation
(a precondition or invariant was violated by the caller, exit 1) and
NumericFailure (the computation itself produced NaN/overflow, exit 2).
"""


class _Located:
    """Carries the step (and, in an ensemble, the trial) where it fired,
    which str() appends as the one spelling: "<message> at step N in trial T"."""

    def __init__(self, message, step=None, trial=None):
        super().__init__(message)
        self.step = step
        self.trial = trial

    def __str__(self):
        return (super().__str__() + ("" if self.step is None else f" at step {self.step}")
                + ("" if self.trial is None else f" in trial {self.trial}"))


class ContractViolation(ValueError):
    """A documented precondition or invariant does not hold."""


def require_at_least(**counts):
    """The one count guard: reject the first name=(value, least) with value < least."""
    for name, (value, least) in counts.items():
        if value < least:
            raise ContractViolation(f"{name} must be >= {least}, not {value}")


def require_at_most(**counts):
    """The one size bound: reject the first name=(value, most) with value > most."""
    for name, (value, most) in counts.items():
        if value > most:
            raise ContractViolation(f"{name} must be <= {most}, not {value}")


class NormalizationError(_Located, ContractViolation):
    """State / density not normalized within its stated tolerance."""


class DimensionMismatchError(ContractViolation):
    """Operator and state (or grids) have incompatible dimensions."""


class DegenerateOccupationError(_Located, ContractViolation):
    """A jump rate would divide by an occupation below the 1e-12 floor."""


class StepSizeError(_Located, ContractViolation):
    """Explicit time step too large for the stability/probability guard."""


class SuperPlanckianError(_Located, ContractViolation):
    """Per-instant collapse strength k = dE*t_P/hbar exceeds 1."""


class PhaseAmbiguityError(ContractViolation):
    """Density support is split by an interior node; the phase line
    integral is undefined across it."""


class SuperluminalFrameError(ContractViolation):
    """Requested boost velocity is at or beyond the light speed."""


class PointerDomainError(ContractViolation):
    """A pointer shift would leave the pointer grid."""


class InsufficientOverlapError(ContractViolation):
    """No stay pairs coincide within the requested time tolerance."""


class ScenarioError(ContractViolation):
    """Malformed scenario file or invalid CLI invocation."""


class NumericFailure(_Located, ArithmeticError):
    """NaN or overflow produced mid-run."""
