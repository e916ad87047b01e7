"""Discrete beable dynamics: a definite site variable driven by jump
rates built from the quantum probability current.

Conventions, in natural units (hbar = 1; all contracts are in these terms):
  J[n, m] = 2 Im( psi*_n H[n, m] psi_m )        antisymmetric current
  dP_n/dt = sum_m J[n, m]                       discrete continuity
  T[m, n] * dt = probability of a jump n -> m   (destination-major)
  dP_n/dt = sum_m (T[n, m] P_m - T[m, n] P_n)   master equation
  J[n, m] = T[n, m] P_m - T[m, n] P_n           defining relation

The minimal rate choice puts the whole current on one direction per
pair:  T[n, m] = J[n, m] / P_m when J[n, m] >= 0, else 0.  Any
homogeneous solution T0[n, m] P_m = T0[m, n] P_n may be added on top
without changing ensemble distributions; the runners' noise_c adds
the one-parameter family T0[n, m] = c / P_m.

psi(t) does not depend on where the beables are, so both runners read
one rate path: it advances psi by the iterated exact unitary step and
evaluates P, J, T and the cumulative jump table cum[step, m, n] as
stacked arrays, _RATE_BLOCK steps at a time, each by one formula
(_current, _minimal_rates, _noise).  Only the walk is per step.  Both
runners keep one outflow guard: the jump probability out of every
occupied site stays below 0.1.
"""

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateOccupationError,
    DimensionMismatchError,
    NormalizationError,
    StepSizeError,
    require_at_least,
)
from .hilbert import ComplexVectorState, HermitianOperator
from .rdm import StayTrajectory, _draw_sites
from .seeding import seeded_rng

OCCUPATION_FLOOR = 1e-12

# sum of per-step jump probabilities out of a guarded site must stay below this
OUTFLOW_GUARD = 0.1

_RATE_BLOCK = 256  # steps evaluated together; memory is O(_RATE_BLOCK * dim^2)

_CURRENT_BELOW_FLOOR = "current in/out of a site with occupation below the 1e-12 floor"
_NOISE_BELOW_FLOOR = "homogeneous noise needs strictly positive occupation"


# The formulas, for one step or a stack of steps; the rates also return
# per step whether they are void (a site below the occupation floor).

def _current(hm: np.ndarray, amps: np.ndarray) -> np.ndarray:
    return 2.0 * np.imag(np.conj(amps)[..., :, None] * hm * amps[..., None, :])


def _minimal_rates(j: np.ndarray, p: np.ndarray):
    low = p < OCCUPATION_FLOOR
    off = ~np.eye(p.shape[-1], dtype=bool)
    t = np.where(off & (j > 0.0), j / np.where(low, 1.0, p)[..., None, :], 0.0)
    return t, np.any(np.any(np.abs(j) > 0.0, axis=-2) & low, axis=-1)


def _noise(p: np.ndarray, c: float):
    low = p < OCCUPATION_FLOOR
    on = np.eye(p.shape[-1], dtype=bool)
    return np.where(on, 0.0, c / np.where(low, 1.0, p)[..., None, :]), np.any(low, axis=-1)


def unitary_step_matrix(h: HermitianOperator, dt: float) -> np.ndarray:
    """exp(-i H dt) via the eigendecomposition (exact, reused)."""
    evals, evecs = np.linalg.eigh(h.matrix)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def _rate_path(h: HermitianOperator, psi0: ComplexVectorState, dt: float, steps: int,
               noise_c: float):
    """Yield (P, J, T, cum) over psi0's exact unitary evolution, a block of
    steps at a time: J, T (noise included) and cum[i, m, n] = dt
    sum_{m' <= m} T[i, m', n] at each step i, P also after the last.  A
    block is cut before its first step with non-finite amplitudes or void
    rates, whose error, naming that step, is raised after the cut block is
    yielded.  The arguments are checked before the first block, even for
    no steps."""
    if h.dim != psi0.dim:
        raise DimensionMismatchError(f"operator dim {h.dim} != state dim {psi0.dim}")
    if not 0 < dt < np.inf:
        raise ContractViolation(f"dt must be positive and finite, not {dt}")
    if not noise_c >= 0:  # NaN fails too
        raise NormalizationError(f"noise_c must be non-negative, not {noise_c}")
    u = unitary_step_matrix(h, dt)
    amps = psi0.amplitudes
    for start in range(0, steps, _RATE_BLOCK):
        a = [amps]
        for _ in range(min(_RATE_BLOCK, steps - start)):
            a.append(u @ a[-1])
        amps, a = a[-1], np.array(a)
        p = np.abs(a) ** 2
        j = _current(h.matrix, a[:-1])
        t, void = _minimal_rates(j, p[:-1])
        noise, low = _noise(p[:-1], noise_c)
        failures = [(~np.all(np.isfinite(a[:-1]), axis=1), NormalizationError("non-finite amplitude")),
                    (void, DegenerateOccupationError(_CURRENT_BELOW_FLOOR)),
                    (low & (noise_c != 0.0), DegenerateOccupationError(_NOISE_BELOW_FLOOR))]
        bad = np.any([mask for mask, _ in failures], axis=0)
        n = int(np.argmax(bad)) if bad.any() else len(t)
        t = t + noise
        yield p[:n + 1], j[:n], t[:n], np.cumsum(t[:n] * dt, axis=1)
        if n < len(t):  # the first failing check, in the order one step makes them
            error = next(error for mask, error in failures if mask[n])
            raise type(error)(str(error), step=start + n)


def _walk(h: HermitianOperator, psi0: ComplexVectorState, sites: np.ndarray, dt: float,
          steps: int, rng, noise_c: float, record_every: int, ensemble: bool):
    """Walk `sites` along the rate path: sites[i] jumps when its draw u <
    cum[-1, sites[i]], to the count of m with cum[m, sites[i]] <= u.  The
    guard rejects a step where an occupied site's outflow reaches 0.1 and,
    in an ensemble, names the first trial whose site that is.  A step
    reads the walkers' outflows only where it must: for the guard when
    some site's outflow reaches 0.1, and for the jump test at the walkers
    whose u is below the largest outflow.
    Returns (step indices, sites, P), a row every record_every steps."""
    rec = [(sites.copy(), np.abs(psi0.amplitudes) ** 2)]
    step = 0
    for p, _, _, cum in _rate_path(h, psi0, dt, steps, noise_c):
        for cum_t, p_next in zip(cum, p[1:]):
            top = cum_t[-1].max()
            if top >= OUTFLOW_GUARD:
                outflow = cum_t[-1].take(sites)
                if outflow.max() >= OUTFLOW_GUARD:
                    i = int(np.argmax(outflow >= OUTFLOW_GUARD))
                    raise StepSizeError(f"outflow probability {outflow[i]:.3g} exceeds the 0.1 "
                                        "guard", step=step, trial=i if ensemble else None)
            u = rng.random(sites.size)
            jumped = np.flatnonzero(u < top)
            jumped = jumped[u[jumped] < cum_t[-1, sites[jumped]]]
            sites[jumped] = (u[jumped] >= cum_t[:, sites[jumped]]).sum(axis=0)
            step += 1
            if step % record_every == 0:
                rec.append((sites.copy(), p_next))
    rec_sites, rec_p = map(np.array, zip(*rec))
    return np.arange(len(rec)) * record_every, rec_sites, rec_p


def jump_trajectory(h: HermitianOperator, psi0: ComplexVectorState, beable0: int,
                    dt: float, steps: int, seed: int, noise_c: float = 0.0) -> StayTrajectory:
    """Co-evolve the wavefunction (exact unitary steps) and the site
    beable (sampled jumps with per-step probabilities T[m, n]*dt).

    The rates follow the instantaneous (J, P); noise_c > 0 adds the
    homogeneous family on top, which must leave all ensemble statistics
    unchanged.  Reproducible from the seed.
    """
    if not psi0.is_normalized():
        raise NormalizationError("jump_trajectory requires a normalized state")
    if not 0 <= beable0 < psi0.dim:
        raise DimensionMismatchError("initial beable site out of range")
    require_at_least(steps=(steps, 0))
    _, stays, _ = _walk(h, psi0, np.array([int(beable0)]), dt, steps, seeded_rng(seed),
                        noise_c, 1, False)
    return StayTrajectory(stays[:, 0], n_sites=psi0.dim, dt_instant=dt, seed=seed)


def ensemble_jump_run(h: HermitianOperator, psi0: ComplexVectorState, n_traj: int,
                      dt: float, steps: int, seed: int, noise_c: float = 0.0,
                      record_every: int = 1):
    """Ensemble of jump trajectories, initialized ~ |psi(0)|^2.  Returns
    (recorded step indices, site matrix n_rec x n_traj, P(t) rows).
    """
    if not psi0.is_normalized():
        raise NormalizationError("ensemble run requires a normalized state")
    require_at_least(n_traj=(n_traj, 1), steps=(steps, 0), record_every=(record_every, 1))
    _, rng, sites = _draw_sites(np.abs(psi0.amplitudes) ** 2, n_traj, seed)
    return _walk(h, psi0, sites, dt, steps, rng, noise_c, record_every, True)
