"""Unitary evolution and the density/flux picture on a 1-d periodic grid,
in natural units (hbar = m = 1).

Grid evolution uses the symmetric split-step method: a half kick of the
position-space potential phase, a full momentum-space kinetic phase, and
another half kick.  Each factor is a pure phase, so the stepper is
exactly unitary up to rounding.  Derivatives are centered second-order
differences with periodic wrap, matching the convergence tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    DimensionMismatchError,
    NormalizationError,
    NumericFailure,
    PhaseAmbiguityError,
    StepSizeError,
    require_at_least,
)
from .hilbert import _frozen

GRID_NORM_TOL = 1e-8

# relative occupation below which a grid point is outside the density support
SUPPORT_FLOOR = 1e-12


@dataclass(frozen=True)
class GridWavefunction:
    """Complex samples psi_k on x_k = x0 + k*dx, normalized so that
    dx * sum |psi_k|^2 = 1 within 1e-8.  Sample count must be >= 8 and
    even (the spectral stepper pairs +/- momentum modes)."""

    x0: float
    dx: float
    samples: np.ndarray

    def __post_init__(self):
        s = _frozen(self.samples, np.complex128)
        if s.ndim != 1 or s.size < 8 or s.size % 2 != 0:
            raise DimensionMismatchError("grid needs an even count of at least 8 samples in 1-d, "
                                         f"not shape {s.shape}")
        GridWavefunction._check_dx(self.dx)
        if not np.all(np.isfinite(s.view(np.float64))):
            raise NumericFailure("non-finite grid sample")
        if not abs(self.dx * float(np.sum(np.abs(s) ** 2)) - 1.0) <= GRID_NORM_TOL:  # NaN too
            raise NormalizationError("dx * sum |psi|^2 != 1 within 1e-8")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def length(self) -> float:
        return self.dx * self.n

    def momentum_grid(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def with_samples(self, samples) -> "GridWavefunction":
        return GridWavefunction(self.x0, self.dx, samples)

    @staticmethod
    def _check_dx(dx):
        if not dx > 0:  # NaN fails too
            raise DimensionMismatchError(f"dx must be positive, not {dx}")

    @staticmethod
    def gaussian(x0, dx, n, center, sigma, momentum=0.0):
        """Normalized Gaussian packet with RMS position width sigma,
        optionally boosted to mean momentum `momentum`."""
        if not sigma > 0:
            raise ContractViolation(f"sigma must be positive, not {sigma}")
        GridWavefunction._check_dx(dx)
        x = x0 + dx * np.arange(n)
        psi = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * x)
        psi /= np.sqrt(dx * np.sum(np.abs(psi) ** 2))
        return GridWavefunction(x0, dx, psi)


@dataclass(frozen=True)
class DensityPair:
    """Position measure density rho (>= 0, integrates to 1) and position
    flux density j on a common grid."""

    x0: float
    dx: float
    rho: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        rho = _frozen(self.rho, np.float64)
        j = _frozen(self.j, np.float64)
        if rho.shape != j.shape or rho.ndim != 1:
            raise DimensionMismatchError("rho and j must be equal-length 1-d arrays")
        GridWavefunction._check_dx(self.dx)
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(j))):
            raise NumericFailure("non-finite density or flux")
        if np.any(rho < 0):
            raise NormalizationError("rho must be non-negative")
        if not abs(self.dx * float(np.sum(rho)) - 1.0) <= GRID_NORM_TOL:  # NaN fails too
            raise NormalizationError("dx * sum rho != 1 within 1e-8")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "j", j)


def evolve_grid(psi: GridWavefunction, v, dt: float, steps: int) -> GridWavefunction:
    """Propagate under H = p^2/2 + V(x) for `steps` steps of size dt.

    V is piecewise constant over each step.  Norm is preserved to 1e-10
    per step by construction.  A dt or potential that is not finite is a
    ContractViolation; a dt whose kinetic phase overflows, and NaN/overflow
    in a step, abort with NumericFailure, the latter with the step index.
    """
    require_at_least(steps=(steps, 0))
    if not np.isfinite(dt):
        raise ContractViolation(f"dt must be finite, not {dt}")
    v = np.zeros(psi.n) if v is None else np.asarray(v, dtype=np.float64)
    if v.shape != (psi.n,):
        raise DimensionMismatchError("potential must match the grid")
    if not np.all(np.isfinite(v)):
        raise ContractViolation(f"potential v must be finite, not {v[~np.isfinite(v)][0]}")
    if steps == 0:
        return psi
    p = psi.momentum_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        v_dt = float(np.max(np.abs(v))) * dt
        if v_dt >= 0.5:
            raise StepSizeError(f"max|V|*dt = {v_dt:.3g} must stay below 0.5")
        half_v = np.exp(-0.5j * v * dt)
        kinetic = np.exp(-0.5j * p**2 * dt)
    if not np.all(np.isfinite(kinetic)):
        raise NumericFailure(f"dt = {dt} overflows the kinetic phase p^2 dt / 2")
    s = psi.samples.copy()
    for step in range(steps):
        s = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * s))
        if not np.all(np.isfinite(s.view(np.float64))):
            raise NumericFailure("grid evolution produced NaN/overflow", step=step)
    return psi.with_samples(s)


def position_density(psi: GridWavefunction) -> np.ndarray:
    """rho(x) = |psi(x)|^2."""
    return np.abs(psi.samples) ** 2


def flux_density(psi: GridWavefunction) -> np.ndarray:
    """j = Im(psi* dpsi/dx), centered differences, periodic wrap."""
    s = psi.samples
    dpsi = (np.roll(s, -1) - np.roll(s, 1)) / (2.0 * psi.dx)
    return np.imag(np.conj(s) * dpsi)


def _support_runs(mask: np.ndarray):
    """Contiguous True runs of `mask` as (start, stop) index pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def reconstruct_wavefunction(d: DensityPair) -> GridWavefunction:
    """Rebuild psi = sqrt(rho) exp(i int v dx') with v = j/rho.

    The support is {k : rho_k > 1e-12 * max rho}.  If an interior node
    splits the support into more than one occupied region the phase
    integral is undefined across the node and PhaseAmbiguityError is
    raised.  The global phase is fixed by making psi real positive at the
    first support point.
    """
    rho = d.rho
    mask = rho > SUPPORT_FLOOR * float(np.max(rho))
    runs = _support_runs(mask)
    occupied = [(a, b) for (a, b) in runs if d.dx * float(np.sum(rho[a:b])) > 1e-9]
    if len(occupied) != 1:
        raise PhaseAmbiguityError(
            f"density support splits into {len(occupied)} regions; "
            "phase is ambiguous across a node"
        )
    a, b = occupied[0]
    v = np.zeros_like(rho)
    v[a:b] = d.j[a:b] / rho[a:b]
    phase = np.zeros_like(rho)
    # cumulative trapezoid of v from the first support point
    seg = v[a:b]
    phase[a:b] = np.concatenate(([0.0], np.cumsum(0.5 * (seg[1:] + seg[:-1]) * d.dx)))
    # outside the support the amplitude is ~0; freeze the phase at the edges
    phase[:a] = phase[a]
    phase[b:] = phase[b - 1]
    psi = np.sqrt(rho) * np.exp(1j * phase)
    return GridWavefunction(d.x0, d.dx, psi)


def dispersion_check(p: float, n_samples: int = 256) -> float:
    """Residual of the free dispersion E = p^2/2 on the discrete grid.

    Inserts the plane wave e^{i(px - Et)} into the free equation with the
    Laplacian discretized by centered differences over one period 2 pi,
    which holds the integer momenta, and returns the max residual
    |E psi + D2 psi / 2|.  Second order: halving dx cuts the residual
    ~4x.  A wrong E does not converge to zero.
    """
    if not (np.isfinite(p) and abs(p - round(p)) <= 1e-9):
        raise DimensionMismatchError(f"p must be an integer momentum, not {p}")
    dx = 2.0 * np.pi / n_samples
    x = dx * np.arange(n_samples)
    psi = np.exp(1j * p * x)
    energy = p**2 / 2.0
    d2 = (np.roll(psi, -1) - 2.0 * psi + np.roll(psi, 1)) / dx**2
    residual = energy * psi + 0.5 * d2
    return float(np.max(np.abs(residual)))


def rms_width(psi: GridWavefunction) -> float:
    """RMS width sqrt(<x^2> - <x>^2) of |psi|^2."""
    rho = position_density(psi)
    w = rho / np.sum(rho)
    x = psi.x
    mean = float(np.sum(w * x))
    return float(np.sqrt(np.sum(w * (x - mean) ** 2)))
