"""Discrete beable dynamics: a definite site variable driven by jump
rates built from the quantum probability current.

Conventions (all contracts are in these terms):
  J[n, m] = 2 Im( psi*_n H[n, m] psi_m )        antisymmetric current
  hbar dP_n/dt = sum_m J[n, m]                  discrete continuity
  T[m, n] * dt = probability of a jump n -> m   (destination-major)
  dP_n/dt = sum_m (T[n, m] P_m - T[m, n] P_n)   master equation
  J[n, m] / hbar = T[n, m] P_m - T[m, n] P_n    defining relation

The minimal rate choice puts the whole current on one direction per
pair:  T[n, m] = J[n, m] / (hbar P_m) when J[n, m] >= 0, else 0.  Any
homogeneous solution T0[n, m] P_m = T0[m, n] P_n may be added on top
without changing ensemble distributions; add_homogeneous_noise exposes
the one-parameter family T0[n, m] = c / P_m.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateOccupationError,
    DimensionMismatchError,
    NormalizationError,
    StepSizeError,
)
from .hilbert import ComplexVectorState, HermitianOperator
from .rdm import StayTrajectory
from .seeding import seeded_rng

OCCUPATION_FLOOR = 1e-12

# sum of per-step jump probabilities out of any site must stay below this
OUTFLOW_GUARD = 0.1


@dataclass(frozen=True)
class TransitionRateMatrix:
    """Non-negative jump rates; rates[m, n]*dt is the n -> m probability.
    The diagonal carries no rate semantics (self-stay is whatever
    probability is left after the outgoing jumps)."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=np.float64).copy()
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionMismatchError("rate matrix must be square")
        np.fill_diagonal(r, 0.0)  # the diagonal carries no rate semantics
        if np.any(r < 0):
            raise NormalizationError("jump rates must be non-negative")
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)

    @property
    def dim(self) -> int:
        return self.rates.shape[0]


def probability_current(h: HermitianOperator, psi: ComplexVectorState,
                        hbar: float = 1.0) -> np.ndarray:
    """J[n, m] = 2 Im(psi*_n H[n, m] psi_m); antisymmetric, and
    hbar dP_n/dt = sum_m J[n, m] under the unitary evolution by H."""
    if h.dim != psi.dim:
        raise DimensionMismatchError(f"operator dim {h.dim} != state dim {psi.dim}")
    amps = psi.amplitudes
    return 2.0 * np.imag(np.conj(amps)[:, None] * h.matrix * amps[None, :])


def bell_transition_rates(j: np.ndarray, p: np.ndarray, hbar: float = 1.0) -> TransitionRateMatrix:
    """Minimal rates: T[n, m] = J[n, m]/(hbar P_m) where J[n, m] >= 0.

    Exactly one direction per pair is active, and the defining relation
    J[n, m]/hbar = T[n, m] P_m - T[m, n] P_n holds to rounding.  Sites
    with occupation below 1e-12 that carry current raise
    DegenerateOccupationError (the division is singular there).
    """
    j = np.asarray(j, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    dim = p.size
    if j.shape != (dim, dim):
        raise DimensionMismatchError("current matrix and occupation vector disagree")
    current_sites = np.any(np.abs(j) > 0.0, axis=0)
    if np.any(current_sites & (p < OCCUPATION_FLOOR)):
        raise DegenerateOccupationError(
            "current in/out of a site with occupation below the 1e-12 floor"
        )
    safe_p = np.where(p < OCCUPATION_FLOOR, 1.0, p)
    t = np.where(j > 0.0, j / (hbar * safe_p[None, :]), 0.0)
    np.fill_diagonal(t, 0.0)
    return TransitionRateMatrix(t)


def add_homogeneous_noise(t: TransitionRateMatrix, p: np.ndarray, c: float) -> TransitionRateMatrix:
    """Add the homogeneous family T0[n, m] = c / P_m to every
    off-diagonal entry.  T0[n, m] P_m - T0[m, n] P_n = 0, so the net
    current and all ensemble distributions are unchanged."""
    if c < 0:
        raise NormalizationError("noise rate c must be non-negative")
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < OCCUPATION_FLOOR):
        raise DegenerateOccupationError("homogeneous noise needs strictly positive occupation")
    if c == 0.0:
        return t
    noise = c / p[None, :] * np.ones((p.size, p.size))
    np.fill_diagonal(noise, 0.0)
    return TransitionRateMatrix(t.rates + noise)


def master_equation_step(p: np.ndarray, t: TransitionRateMatrix, dt: float) -> np.ndarray:
    """One explicit Euler step of dP_n/dt = sum_m (T[n,m] P_m - T[m,n] P_n).

    Probability is conserved by construction (inflow and outflow use the
    same terms); the step guard keeps every per-step outflow below 0.1.
    """
    p = np.asarray(p, dtype=np.float64)
    r = t.rates
    if p.size != t.dim:
        raise DimensionMismatchError("occupation vector and rate matrix disagree")
    outflow = r.sum(axis=0)
    if dt * float(np.max(outflow)) >= OUTFLOW_GUARD:
        raise StepSizeError("dt * max total outflow rate must stay below 0.1")
    flow = r @ p - outflow * p
    return p + dt * flow


def unitary_step_matrix(h: HermitianOperator, dt: float, hbar: float) -> np.ndarray:
    """exp(-i H dt / hbar) via the eigendecomposition (exact, reused)."""
    evals, evecs = np.linalg.eigh(h.matrix)
    return (evecs * np.exp(-1j * evals * dt / hbar)) @ evecs.conj().T


def jump_trajectory(h: HermitianOperator, psi0: ComplexVectorState, beable0: int,
                    dt: float, steps: int, seed: int, hbar: float = 1.0,
                    noise_c: float = 0.0) -> StayTrajectory:
    """Co-evolve the wavefunction (exact unitary steps) and the site
    beable (sampled jumps with per-step probabilities T[m, n]*dt).

    The rate matrix is rebuilt each step from the instantaneous (J, P);
    noise_c > 0 adds the homogeneous family on top, which must leave all
    ensemble statistics unchanged.  Reproducible from the seed.
    """
    if not psi0.is_normalized():
        raise NormalizationError("jump_trajectory requires a normalized state")
    if not 0 <= beable0 < psi0.dim:
        raise DimensionMismatchError("initial beable site out of range")
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, not {steps}")
    if not dt > 0:
        raise ContractViolation(f"dt must be positive, not {dt}")
    rng = seeded_rng(seed)
    u = unitary_step_matrix(h, dt, hbar)
    amps = psi0.amplitudes.copy()
    site = int(beable0)
    stays = np.empty(steps + 1, dtype=np.int64)
    stays[0] = site
    for step in range(steps):
        state = ComplexVectorState(amps)
        j = probability_current(h, state, hbar)
        p = np.abs(amps) ** 2
        t = bell_transition_rates(j, p, hbar)
        if noise_c != 0.0:  # add_homogeneous_noise rejects c < 0
            t = add_homogeneous_noise(t, p, noise_c)
        jump_p = t.rates[:, site] * dt
        total = float(jump_p.sum())
        if total >= OUTFLOW_GUARD:
            raise StepSizeError(
                f"step {step}: outflow probability {total:.3f} exceeds the 0.1 guard"
            )
        u_draw = rng.random()
        if u_draw < total:
            site = int(np.searchsorted(np.cumsum(jump_p), u_draw, side="right"))
        stays[step + 1] = site
        amps = u @ amps
    return StayTrajectory(stays, n_sites=psi0.dim, dt_instant=dt, seed=seed)


def ensemble_jump_run(h: HermitianOperator, psi0: ComplexVectorState, n_traj: int,
                      dt: float, steps: int, seed: int, hbar: float = 1.0,
                      noise_c: float = 0.0, record_every: int = 1):
    """Vectorized ensemble of jump trajectories, initialized ~ |psi(0)|^2.

    The wavefunction evolves independently of the beables, so (J, P, T)
    are computed once per step and shared by all trajectories.  Returns
    (recorded step indices, site matrix n_rec x n_traj, P(t) rows).
    """
    if not psi0.is_normalized():
        raise NormalizationError("ensemble run requires a normalized state")
    for name, value, least in (("n_traj", n_traj, 1), ("steps", steps, 0),
                               ("record_every", record_every, 1)):
        if value < least:
            raise ContractViolation(f"{name} must be >= {least}, not {value}")
    if not dt > 0:
        raise ContractViolation(f"dt must be positive, not {dt}")
    rng = seeded_rng(seed)
    u = unitary_step_matrix(h, dt, hbar)
    amps = psi0.amplitudes.copy()
    p = np.abs(amps) ** 2
    sites = np.searchsorted(np.cumsum(p) / p.sum(), rng.random(n_traj), side="right")
    rec_steps = [0]
    rec_sites = [sites.copy()]
    rec_p = [p.copy()]
    for step in range(steps):
        state = ComplexVectorState(amps)
        j = probability_current(h, state, hbar)
        p = np.abs(amps) ** 2
        t = bell_transition_rates(j, p, hbar)
        if noise_c != 0.0:  # add_homogeneous_noise rejects c < 0
            t = add_homogeneous_noise(t, p, noise_c)
        # per-site cumulative jump table, shared across the ensemble
        jump_p = t.rates * dt
        np.fill_diagonal(jump_p, 0.0)
        outflow = jump_p.sum(axis=0)
        if float(outflow.max()) >= OUTFLOW_GUARD:
            raise StepSizeError(f"step {step}: outflow exceeds the 0.1 guard")
        cum = np.cumsum(jump_p, axis=0)  # cum[:, n] for source site n
        draws = rng.random(n_traj)
        source_cum = cum[:, sites]  # dim x n_traj
        jumped = draws < source_cum[-1, :]
        if np.any(jumped):
            dest = (draws[None, jumped] >= source_cum[:, jumped]).sum(axis=0)
            sites = sites.copy()
            sites[jumped] = dest
        amps = u @ amps
        if (step + 1) % record_every == 0:
            rec_steps.append(step + 1)
            rec_sites.append(sites.copy())
            rec_p.append(np.abs(amps) ** 2)
    return np.array(rec_steps), np.array(rec_sites), np.array(rec_p)
