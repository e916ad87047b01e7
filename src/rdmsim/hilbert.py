"""Finite-dimensional quantum states, observables and expectation values.

All types are immutable after construction; every operation is a pure
function, so values can be shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NormalizationError, NumericFailure

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-12


def _frozen(a, dtype) -> np.ndarray:
    """Read-only copy of `a` as a `dtype` array."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ComplexVectorState:
    """Unit vector in a d-dimensional complex Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(self.amplitudes, np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionMismatchError("state needs a nonempty 1-d amplitude vector, "
                                         f"not shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise NormalizationError("non-finite amplitude")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= NORM_TOL


@dataclass(frozen=True)
class HermitianOperator:
    """Observable: a matrix equal to its conjugate transpose within 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix, np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("operator matrix must be square")
        if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL:  # NaN fails too
            raise NormalizationError("matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EnergySuperposition:
    """Superposition over energy branches: amplitudes c_i on levels E_i.

    The collapse dynamics acts on (E_i, |c_i|^2); duplicate energies are
    allowed at the type level and are merged by the collapse stepper.
    """

    energies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        e = _frozen(self.energies, np.float64)
        c = _frozen(self.amplitudes, np.complex128)
        if e.ndim != 1 or e.size < 1 or c.shape != e.shape:
            raise DimensionMismatchError("need equal-length 1-d energy and amplitude lists")
        if not np.all(np.isfinite(e)):
            raise NormalizationError("non-finite branch energy")
        if not abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= NORM_TOL:  # NaN fails too
            raise NormalizationError("branch weights do not sum to 1 within 1e-10")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "amplitudes", c)

    @property
    def n_branches(self) -> int:
        return self.energies.size

    @property
    def probabilities(self) -> np.ndarray:
        # |c|^2 can stray one ulp above 1 after a sqrt round trip; the
        # branch-weight view enforces the bound
        return np.minimum(np.abs(self.amplitudes) ** 2, 1.0)


def expectation_value(state: ComplexVectorState, a: HermitianOperator) -> float:
    """<psi|A|psi>, asserted real to 1e-12 and returned as a float."""
    if state.dim != a.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != operator dim {a.dim}")
    if not state.is_normalized():
        raise NormalizationError("expectation_value requires a normalized state")
    val = complex(np.vdot(state.amplitudes, a.matrix @ state.amplitudes))
    if abs(val.imag) > 1e-12:  # unreachable for a true Hermitian input
        raise NumericFailure(f"expectation value has imaginary residue {val.imag:g}")
    return val.real

