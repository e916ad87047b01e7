"""Zeno-protected measurement with an explicit pointer wavepacket.

The pointer couples to an observable A of a small system through the
impulsive interaction g(t) * P * A (P the pointer momentum), which
translates the pointer of the a-eigencomponent by a * integral of g.
Interleaving N projections of the system back onto its known state
suppresses entanglement: as N grows the kept branch carries the whole
amplitude, the pointer shift converges to <A>, the survival probability
to 1, and the pointer width back to its initial value.

Pointer translations are exact momentum-space phase shifts on a
periodic grid, so every finite-N effect seen here is the physics of the
projection scheme, not integrator error.  Free Hamiltonians of system
and pointer are dropped throughout (the impulsive regime).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionMismatchError, PointerDomainError, require_at_least
from .hilbert import ComplexVectorState, HermitianOperator
from .schrodinger import (
    DensityPair,
    GridWavefunction,
    flux_density,
    position_density,
    reconstruct_wavefunction,
    rms_width,
)

G_PROFILES = ("constant", "triangular")
_ZENO_BLOCK_ELEMENTS = 1 << 16  # complex entries per block of Zeno factors (1 MB)


@dataclass(frozen=True)
class PointerState:
    """Gaussian-initialized pointer: grid wavefunction plus its initial
    center x0 and RMS width w0 (resolution guard w0 >= 4 dx)."""

    grid: GridWavefunction
    x0: float
    w0: float

    def __post_init__(self):
        if not self.w0 >= 4.0 * self.grid.dx:  # NaN fails too
            raise ContractViolation(f"pointer width w0 = {self.w0} is below 4 grid spacings")

    @staticmethod
    def gaussian(x_min: float, dx: float, n: int, x0: float, w0: float) -> "PointerState":
        if not w0 > 0:
            raise ContractViolation(f"pointer width w0 must be positive, not {w0}")
        grid = GridWavefunction.gaussian(x_min, dx, n, center=x0, sigma=w0)
        return PointerState(grid, x0, w0)

    def mean_position(self) -> float:
        rho = position_density(self.grid)
        w = rho / rho.sum()
        return float(np.sum(w * self.grid.x))

    def width(self) -> float:
        return rms_width(self.grid)


@dataclass(frozen=True)
class ProtectiveSetup:
    """System state, measured observable, Zeno projection count N, total
    time tau, coupling profile g with unit integral, and the pointer."""

    system: ComplexVectorState
    observable: HermitianOperator
    n_projections: int
    tau: float
    pointer: PointerState
    g_profile: str = "constant"

    def __post_init__(self):
        if self.system.dim != self.observable.dim:
            raise DimensionMismatchError(f"system state dim {self.system.dim} != "
                                         f"observable dim {self.observable.dim}")
        if not self.system.is_normalized():
            raise ContractViolation(f"system state must be normalized, not of norm^2 "
                                    f"{self.system.norm_sq():.17g}")
        require_at_least(n_projections=(self.n_projections, 1))
        if not 0 < self.tau < np.inf:  # NaN fails too
            raise ContractViolation(f"tau must be positive and finite, not {self.tau}")
        if self.g_profile not in G_PROFILES:
            raise ContractViolation(f"unknown g profile {self.g_profile!r}")

    def coupling_weights(self) -> np.ndarray:
        """Per-substep impulses eps_n = (tau/N) g(t_n) at t_n = (n/N) tau.

        Both profiles integrate to exactly 1 under this sampling (the
        triangular profile needs an even N so its peak sits on the grid).
        """
        n = self.n_projections
        t = self.tau * np.arange(1, n + 1) / n
        if self.g_profile == "constant":
            g = np.full(n, 1.0 / self.tau)
        else:
            if n % 2 != 0:
                raise ContractViolation(f"triangular profile needs an even N, not {n}")
            half = self.tau / 2.0
            g = np.where(t <= half, 4.0 * t / self.tau**2,
                         4.0 * (self.tau - t) / self.tau**2)
        w = (self.tau / n) * g
        if not abs(float(w.sum()) - 1.0) <= 1e-12:  # NaN fails too
            raise ContractViolation(f"discretized coupling integrates to {w.sum():.17g}, not 1")
        return w


def _eigen_amplitudes(setup: ProtectiveSetup):
    """Eigenvalues of the observable and the system state's amplitudes
    in its eigenbasis."""
    evals, evecs = np.linalg.eigh(setup.observable.matrix)
    return evals, evecs.conj().T @ setup.system.amplitudes


def _check_shift_fits(pointer: PointerState, shift: float):
    grid = pointer.grid
    margin = 4.0 * pointer.w0
    lo, hi = grid.x0 + margin, grid.x0 + grid.length - margin
    if not lo <= pointer.x0 + shift <= hi:
        raise PointerDomainError(
            f"pointer shift {shift:g} leaves the grid (allowed center range "
            f"[{lo:g}, {hi:g}])"
        )


def zeno_protective_run(setup: ProtectiveSetup) -> dict:
    """Alternate N impulsive kicks with projections onto the known state.

    Each kick translates the a-eigencomponents' pointers by eps_n * a and
    each projection recombines them with their Born weights w_a
    (post-selection on the protection succeeding), so in momentum space
    the kept pointer is prod_n M(eps_n) phi_hat with
    M(eps) = sum_a w_a e^{-i k eps a}.  The per-projection
    renormalisations telescope: the survival probability is the squared
    norm of that product, which is taken once per distinct impulse as
    M(eps)^c for multiplicity c, then normalised once.  M = 1 at k = 0,
    so the product cannot vanish.  Returns the pointer shift, survival
    probability, final width and final pointer state.  A survival below
    0.5 flags protection failure in the report (the run still completes).

    The factors M(eps)^c are built for a block of distinct impulses at
    once, on the first half k[0 .. n//2] of the spectrum only, and go
    into a two-row accumulator: row 0 is phi_hat[0 .. n//2] and entry j
    of row 1 is conj(phi_hat[n - j]), so one half-spectrum factor serves
    both halves.  Each accumulator row is put on top of the block and
    replaced by one np.multiply.reduce down it, which multiplies left to
    right: the row times the factors in ascending eps, as a loop over
    the rows would.
    This equals multiplying the full spectrum bit for bit: 2 pi fftfreq
    gives k[n - j] = -k[j], M(-k) = conj M(k) because the w_a are real,
    conj commutes bitwise with the phase products, exp, the sum over a
    and the integer power, and conj(conj(x) r) = x conj(r) in IEEE
    arithmetic.  A term with a = 0 adds w to M without an exp, which is
    exact because exp(+-0 +- 0i) = 1 +- 0i and w (1 +- 0i) = w + 0i.
    Rows of multiplicity 1 skip the power, which returns its base
    unchanged for an exponent of 1.  The result does not depend on the
    block size.
    """
    evals, psi_eig = _eigen_amplitudes(setup)
    weights = np.abs(psi_eig) ** 2
    total_shift_bound = float(np.max(np.abs(evals)))
    _check_shift_fits(setup.pointer, total_shift_bound)
    _check_shift_fits(setup.pointer, -total_shift_bound)

    grid = setup.pointer.grid
    half = grid.n // 2 + 1
    tail = grid.n - half  # k[n - j] == -k[j] for j = 1 .. tail
    k = grid.momentum_grid()[:half]
    phi_hat = np.fft.fft(grid.samples)
    acc = np.zeros((2, half), dtype=phi_hat.dtype)
    acc[0] = phi_hat[:half]
    acc[1, tail:0:-1] = np.conj(phi_hat[half:])
    terms = [(a, w) for a, w in zip(evals, weights) if w != 0.0]
    eps, counts = np.unique(setup.coupling_weights(), return_counts=True)
    rows = max(1, _ZENO_BLOCK_ELEMENTS // half)
    block = np.empty((min(rows, eps.size) + 1, half), dtype=acc.dtype)  # an accumulator row on top
    for lo in range(0, eps.size, rows):
        phase = -1j * k * eps[lo:lo + rows, None]
        stack = block[:len(phase) + 1]
        factor = stack[1:]
        factor[...] = 0.0
        for a, w in terms:
            factor += w if a == 0.0 else w * np.exp(phase * a)
        c = counts[lo:lo + rows]
        repeated = c != 1
        factor[repeated] = factor[repeated] ** c[repeated, None]
        for row in acc:
            stack[0] = row
            row[...] = np.multiply.reduce(stack, axis=0)
    phi_hat[:half] = acc[0]
    phi_hat[half:] = np.conj(acc[1, tail:0:-1])
    survival = float(np.sum(np.abs(phi_hat) ** 2) * grid.dx / grid.n)
    phi_hat /= np.sqrt(survival)
    samples = np.fft.ifft(phi_hat)
    final_grid = grid.with_samples(samples)
    final = PointerState(final_grid, setup.pointer.x0, setup.pointer.w0)
    shift = final.mean_position() - setup.pointer.x0
    width = final.width()
    return {
        "pointer_shift": shift,
        "survival_probability": survival,
        "final_width": width,
        "width_ratio": width / setup.pointer.w0,
        "pointer": final,
        "protection_failed": survival < 0.5,
    }


def _region_means(values: np.ndarray, dx: float, block: int) -> np.ndarray:
    """(1/v) * integral of `values` over each run of `block` consecutive
    grid points, v = block * dx; each run is one pairwise row sum."""
    return values.reshape(-1, block).sum(axis=1) * dx / (block * dx)


def tomography(psi_true: GridWavefunction, n_regions: int) -> dict:
    """Reassemble the wavefunction from region-averaged density and flux.

    The grid is split into n_regions contiguous blocks; each block
    contributes its density and flux means, (1/v) * the integral of rho
    and of j over the block (v its length), as a protective measurement
    of that region reads them.  The piecewise-constant (rho, j) is fed to
    the phase-integral reconstruction and the result compared to the
    hidden truth up to a global phase.  The L2 error is first order in
    the region width.
    """
    require_at_least(n_regions=(n_regions, 16))
    if psi_true.n % n_regions != 0:
        raise ContractViolation("region count must divide the grid size")
    block = psi_true.n // n_regions
    rho_meas = np.repeat(_region_means(position_density(psi_true), psi_true.dx, block), block)
    j_meas = np.repeat(_region_means(flux_density(psi_true), psi_true.dx, block), block)
    pair = DensityPair(psi_true.x0, psi_true.dx, rho_meas, j_meas)
    recon = reconstruct_wavefunction(pair)
    overlap = np.vdot(recon.samples, psi_true.samples) * psi_true.dx
    l2 = float(np.sqrt(max(0.0, 2.0 * (1.0 - abs(overlap)))))
    return {
        "reconstruction": recon,
        "l2_error": l2,
        "rho_measured": rho_meas,
        "j_measured": j_meas,
        "n_regions": n_regions,
    }
