"""Finite-dimensional quantum states, Born probabilities, energy
uncertainty, and two small verification constructions (a four-state
product/measurement table and a two-state unitary check) used by the
test suites.

All types are immutable after construction; every operation is a pure
function, so values can be shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NormalizationError, NumericFailure

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-12
NARROW_COLUMNS = 64  # widest array that running_sum sums with one accumulate


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
            raise DimensionMismatchError("state needs a 1-d amplitude vector, dim >= 1")
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


def born_probabilities(state: ComplexVectorState) -> np.ndarray:
    """|c_i|^2 for each basis index of a normalized state."""
    if not state.is_normalized():
        raise NormalizationError("born_probabilities requires a normalized state")
    return np.abs(state.amplitudes) ** 2


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


def energy_spread(p, energies) -> np.ndarray:
    """RMS spread sqrt(sum_i P_i (E_i - Ebar)^2) over the branch axis 0.

    p and energies broadcast with the branch axis first: (m, n) trials
    take energies[:, None], n subsystems of one state take p[:, None].
    The shift by the first branch's energy cancels a global offset
    exactly; each sum is the last row of running_sum, so a column's
    spread does not depend on the columns beside it.  Overflow gives inf
    or NaN, without a warning, for the caller's guard.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = energies - energies[0]
        e_bar = running_sum(p * e)[-1]
        var = running_sum(p * (e - e_bar) ** 2)[-1]
    return np.sqrt(np.maximum(var, 0.0))


def running_sum(x: np.ndarray) -> np.ndarray:
    """Running sums down axis 0, row j = ((x0 + x1) + ...) + xj in every column
    whatever its neighbours: one np.add.accumulate up to NARROW_COLUMNS
    columns, else one add per row (accumulate walks wide arrays column by
    column, 14x slower at 6,000).  np.sum adds pairwise: other bits."""
    if x[0].size <= NARROW_COLUMNS:
        return np.add.accumulate(x, axis=0)
    cum = np.empty_like(x)
    cum[0] = x[0]
    for j in range(1, len(x)):
        np.add(cum[j - 1], x[j], out=cum[j])
    return cum


def energy_uncertainty(s: EnergySuperposition) -> float:
    """RMS spread dE of a superposition; zero iff all the occupied
    branches share one energy."""
    return float(energy_spread(s.probabilities, s.energies))


# --- small no-go constructions used as verification fixtures ------------

_KET0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET1 = np.array([0.0, 1.0], dtype=np.complex128)
_KETP = (_KET0 + _KET1) / np.sqrt(2.0)
_KETM = (_KET0 - _KET1) / np.sqrt(2.0)


def pbr_product_states() -> list:
    """The four two-qubit product states {|0>,|+>} x {|0>,|+>},
    ordered 00, 0+, +0, ++."""
    return [
        np.kron(_KET0, _KET0),
        np.kron(_KET0, _KETP),
        np.kron(_KETP, _KET0),
        np.kron(_KETP, _KETP),
    ]


def pbr_measurement_states() -> list:
    """Four orthonormal entangled states; state k is orthogonal to the
    k-th product state, giving it zero Born probability."""
    s2 = np.sqrt(2.0)
    return [
        (np.kron(_KET0, _KET1) + np.kron(_KET1, _KET0)) / s2,
        (np.kron(_KET0, _KETM) + np.kron(_KET1, _KETP)) / s2,
        (np.kron(_KETP, _KET1) + np.kron(_KETM, _KET0)) / s2,
        (np.kron(_KETP, _KETM) + np.kron(_KETM, _KETP)) / s2,
    ]


def pbr_orthogonality_table() -> np.ndarray:
    """4x4 matrix of Born probabilities |<phi_k|product_j>|^2.

    Row k / column j ordering follows pbr_measurement_states and
    pbr_product_states; the k = j entries vanish (each measurement
    outcome excludes exactly one preparation), every other entry is
    strictly positive, and the measurement states are verified
    orthonormal to 1e-12.
    """
    phis = pbr_measurement_states()
    prods = pbr_product_states()
    gram = np.array([[np.vdot(a, b) for b in phis] for a in phis])
    if np.max(np.abs(gram - np.eye(4))) > 1e-12:
        raise NormalizationError("measurement states failed the orthonormality check")
    table = np.array(
        [[abs(np.vdot(phi, prod)) ** 2 for prod in prods] for phi in phis]
    )
    return table


def hardy_unitary_check() -> dict:
    """Verify the two-state construction: U = diag(1, -1) in the
    {psi1, psi2} basis leaves psi1 invariant and maps (psi1+psi2)/sqrt(2)
    to the orthogonal (psi1-psi2)/sqrt(2)."""
    psi1 = np.array([1.0, 0.0], dtype=np.complex128)
    psi2 = np.array([0.0, 1.0], dtype=np.complex128)
    u = np.diag([1.0, -1.0]).astype(np.complex128)
    plus = (psi1 + psi2) / np.sqrt(2.0)
    minus = (psi1 - psi2) / np.sqrt(2.0)
    r_invariant = float(np.max(np.abs(u @ psi1 - psi1)))
    r_flip = float(np.max(np.abs(u @ plus - minus)))
    r_orth = float(abs(np.vdot(plus, minus)))
    return {
        "invariant_residual": r_invariant,
        "flip_residual": r_flip,
        "orthogonality_residual": r_orth,
        "passed": r_invariant < 1e-12 and r_flip < 1e-12 and r_orth < 1e-12,
    }
