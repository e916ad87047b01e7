"""Energy-conserved discrete collapse dynamics.

One instant of duration t_P updates the branch probabilities of an
energy superposition around a randomly drawn staying branch s:

    P_i(t + t_P) = P_i(t) + k [delta_{is} - P_i(t)],   k = dE * t_P / hbar

with dE the RMS energy spread of the instantaneous state ("dynamic"
mode) or a frozen constant k0.  The staying branch is drawn with the
current probabilities, which makes every P_i a martingale: outcome
frequencies reproduce the initial weights exactly, and the ensemble
energy distribution is conserved.  Mean products P_i P_j decay as
(1 - k^2)^n, giving the characteristic time ~ t_P / k^2.

Every dynamic k comes from hilbert.energy_spread and passes one guard
(_strength), so a global energy offset leaves it unchanged and a
trial's k does not depend on the trials beside it.  The ensemble
runners observe one stepping loop (_ensemble_walk); it and the single
trajectory step through one kernel (_collapse_kernel).

Branches with exactly equal energies are indistinguishable to the
update and are merged for the draw; their joint probability is shared
pro rata afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import (
    ContractViolation,
    DimensionMismatchError,
    NormalizationError,
    NumericFailure,
    SuperPlanckianError,
)
from .hilbert import EnergySuperposition, energy_spread
from .seeding import check_seed, trial_rng, trial_rngs


@dataclass(frozen=True)
class CollapseConfig:
    """Knobs of the discrete collapse run.

    k_mode "dynamic" recomputes k = dE(t) * t_p / hbar each instant;
    "frozen" uses the constant k0 (the off-diagonal decay law is exact
    in that mode); dynamic k always uses the one-body spread dE.
    Collapse is declared at max P_i > 1 - epsilon.  seed is the master
    seed of the trial streams, an integer (not a bool) in [0, 2^64).
    """

    k_mode: str = "dynamic"
    k0: float = None
    t_p: float = 1.0
    hbar: float = 1.0
    c: float = 1.0
    collapse_epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k_mode not in ("dynamic", "frozen"):
            raise ContractViolation(f"unknown k_mode {self.k_mode!r}")
        if self.k_mode == "frozen":
            if self.k0 is None or not 0.0 <= self.k0 <= 1.0:
                raise ContractViolation("frozen mode needs 0 <= k0 <= 1")
        if not all(math.isfinite(v) and v > 0 for v in (self.t_p, self.hbar, self.c)):
            raise ContractViolation("t_p, hbar and c must be positive and finite")
        if not 0.0 < self.collapse_epsilon < 1.0:
            raise ContractViolation("collapse_epsilon must lie in (0, 1)")
        check_seed(self.seed)

    @staticmethod
    def physical(**kw) -> "CollapseConfig":
        """eV / s / m units with the pinned constants."""
        kw.setdefault("t_p", constants.PLANCK_TIME_S)
        kw.setdefault("hbar", constants.HBAR_EVS)
        kw.setdefault("c", constants.C_M_S)
        return CollapseConfig(**kw)


@dataclass(frozen=True)
class ManyBodyBranchTable:
    """Branch energies of an n-subsystem entangled state.

    energies[j, i] is the energy of subsystem j in branch i; amplitudes
    are the shared branch amplitudes c_i.
    """

    energies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=np.float64).copy()
        c = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if e.ndim != 2 or c.ndim != 1 or e.shape[1] != c.size:
            raise DimensionMismatchError("energies must be n_subsystems x m_branches")
        if not np.all(np.isfinite(e)):
            raise NormalizationError("non-finite branch energy")
        if abs(float(np.sum(np.abs(c) ** 2)) - 1.0) > 1e-10:
            raise NormalizationError("branch weights do not sum to 1 within 1e-10")
        e.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "amplitudes", c)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _strength(p, energies, cfg: CollapseConfig, step=None, trials=None):
    """k for the branch-major p: cfg.k0 when frozen, else dE * t_P / hbar
    for every column (energies broadcast against p as in energy_spread).

    The one guard of the model's regime k <= 1: a non-finite k raises
    NumericFailure, a finite k > 1 SuperPlanckianError.  Both carry the
    step and, in an ensemble, the absolute index of the first bad trial.
    """
    if cfg.k_mode == "frozen":
        return cfg.k0
    k = energy_spread(p, energies) * cfg.t_p / cfg.hbar
    if not k.max() <= 1.0:  # written so that NaN fails it too
        flat = np.ravel(k)
        bad = int(np.flatnonzero(~(flat <= 1.0))[0])
        trial = None if trials is None else int(trials[bad])
        if not math.isfinite(flat[bad]):
            where = "" if trial is None else f" in trial {trial}"
            raise NumericFailure(f"k = dE*t_P/hbar is {flat[bad]}{where}",
                                 step=step, trial=trial)
        where = ("" if step is None else f" at step {step}") + \
            ("" if trial is None else f" of trial {trial}")
        raise SuperPlanckianError(f"k = dE*t_P/hbar = {flat[bad]:.3g} > 1{where}",
                                  step=step, trial=trial)
    return k


def step_strength(s: EnergySuperposition, cfg: CollapseConfig) -> float:
    """Per-instant k of a superposition; guards the model's regime k <= 1."""
    return _strength(s.probabilities, s.energies, cfg)


def _energy_groups(energies: np.ndarray):
    """(group of each branch, first branch of each group): branches with
    exactly equal energy share a group, numbered in first-seen order."""
    seen = {}
    label = np.array([seen.setdefault(float(e), len(seen)) for e in energies])
    return label, np.unique(label, return_index=True)[1]


def _amplitude_step(amps, gp, label, phases, k, u):
    """One instant on plain arrays; returns (new amplitudes, staying group).

    The group weights gp (label maps each branch to its group) move by the
    kernel with the uniform u; each member's amplitude scales by
    sqrt(new / old group weight), so members keep their relative weights,
    and turns by its phase.  An empty group cannot stay, so no mass is lost.
    """
    gp_new = gp.copy()
    g_stay = int(_collapse_kernel(gp_new[:, None], u, k).argmax())
    occupied = gp > 0.0
    scale = np.where(occupied, np.sqrt(gp_new / np.where(occupied, gp, 1.0)), 0.0)
    return amps * scale[label] * phases, g_stay


def collapse_step(s: EnergySuperposition, cfg: CollapseConfig, rng: np.random.Generator):
    """One discrete instant; returns (new state, staying branch index).

    Probabilities move by k(delta - P); phases advance by -E_i t_P/hbar.
    Degenerate branches are merged for the draw and the group's new
    probability is shared pro rata; the returned index is the first
    member of the staying group.  Bounds 0 <= P_i <= 1 and sum P = 1
    hold exactly (to rounding) for any k <= 1.
    """
    label, first = _energy_groups(s.energies)
    p = s.probabilities
    amps, g = _amplitude_step(s.amplitudes, np.bincount(label, weights=p), label,
                              np.exp(-1j * s.energies * cfg.t_p / cfg.hbar),
                              _strength(p, s.energies, cfg), rng.random(1))
    return EnergySuperposition(s.energies, amps), int(first[g])


def run_trajectory(s0: EnergySuperposition, cfg: CollapseConfig, max_steps: int,
                   rng: np.random.Generator = None):
    """Iterate collapse_step until max P_i > 1 - epsilon or max_steps.

    Returns a dict with the per-step probability history, the staying
    branch of each step, the outcome branch (None if the threshold was
    not reached) and the step count.  The groups and phases are computed
    once and the amplitudes stepped as plain arrays; a guard names the
    step where it fired.
    """
    if max_steps < 0:
        raise ContractViolation(f"max_steps must be >= 0, not {max_steps}")
    rng = trial_rng(cfg.seed, 0) if rng is None else rng
    label, first = _energy_groups(s0.energies)
    phases = np.exp(-1j * s0.energies * cfg.t_p / cfg.hbar)
    amps, p = s0.amplitudes, s0.probabilities
    history, staying = [p], []
    outcome = None
    for step in range(max_steps + 1):
        gp = np.bincount(label, weights=p)
        g_max = int(gp.argmax())
        if gp[g_max] > 1.0 - cfg.collapse_epsilon:
            outcome = int(first[g_max])
            break
        if step == max_steps:
            break
        k = _strength(p, s0.energies, cfg, step)
        amps, g = _amplitude_step(amps, gp, label, phases, k, rng.random(1))
        # |c|^2 can stray one ulp above 1 after a sqrt round trip
        p = np.minimum(np.abs(amps) ** 2, 1.0)
        history.append(p)
        staying.append(first[g])
    return {
        "probabilities": np.array(history),
        "staying": np.array(staying, dtype=np.int64),
        "outcome": outcome,
        "steps": step,
        "collapsed": outcome is not None,
    }


TRIAL_BLOCK = 256  # ensemble_statistics sums trials in blocks of this size, in order
DRAW_BUDGET = TRIAL_BLOCK * 512  # uniforms buffered at once, however many trials are live


def _collapse_kernel(p: np.ndarray, u: np.ndarray, k) -> np.ndarray:
    """One instant for every column of the branch-major matrix p (m x n_live),
    in place; returns the stay mask (True at row s of column t).

    Column t stays in branch s, the number of sequential cumulative sums
    cum_j with u[t] * cum_{m-1} >= cum_j; then P <- P - kP, P += k on row s
    (an exact +0.0 elsewhere), min(P, 1) against rounding overshoot.  k is
    one value for all columns or one per column.  A column goes through the
    same IEEE operations whatever other columns share the array,
    collapse_step's single column included.
    """
    # one add per row over all columns: np.add.accumulate(p, axis=0) gives the
    # same bits but walks the columns one by one, 14x slower at 6,000 columns
    cum = np.empty_like(p)
    cum[0] = p[0]
    for j in range(1, len(p)):
        np.add(cum[j - 1], p[j], out=cum[j])
    passed = u * cum[-1] >= cum
    # cum is nondecreasing down a column, so s = j where u passes cum_{j-1} but not cum_j
    stay = ~passed
    stay[1:] &= passed[:-1]
    p -= k * p
    p += stay * k
    np.minimum(p, 1.0, out=p)
    return stay


def _ensemble_walk(s0: EnergySuperposition, cfg: CollapseConfig, lo: int, hi: int,
                   n_steps: int):
    """Trials lo..hi-1 of s0 stepped as one branch-major array p (m x n_live).

    Yields (step, p, trials) before each step and once more at step
    n_steps; trials holds the absolute index of each live column, and p
    is stepped in place once the walk resumes.  The value sent back is a
    boolean mask of the columns to drop, or None; the walk ends early when
    no trial is left.  Every trial draws one uniform per step from its own
    seeded generator (all built by one trial_rngs call), held until the
    walk ends (about 0.8 KB per trial).
    """
    trials = np.arange(lo, hi)
    gens = trial_rngs(cfg.seed, lo, hi)
    p = np.repeat(s0.probabilities[:, None], hi - lo, axis=1)
    energies = s0.energies[:, None]
    # draws holds a chunk for the trials live when it was drawn; cols maps
    # each live column to its row there (None: row t is column t), so
    # leaving trials copy nothing
    draws = cols = None
    b = 0
    for step in range(n_steps + 1):
        drop = yield step, p, trials
        if drop is not None:
            live = ~drop
            # compress keeps p C-ordered; a boolean index would not
            trials, p = trials[live], p.compress(live, axis=1)
            if draws is not None:
                cols = np.flatnonzero(live) if cols is None else cols[live]
        if step == n_steps or trials.size == 0:
            return
        if draws is None or b == draws.shape[1]:
            # DRAW_BUDGET bounds the buffer; a trial's stream does not depend on the chunks
            draws = np.empty((trials.size, min(max(DRAW_BUDGET // trials.size, 8), 512,
                                               n_steps - step)))
            for row, t in enumerate(trials.tolist()):
                gens[t - lo].random(out=draws[row])
            cols, b = None, 0
        u = draws[:, b] if cols is None else draws[cols, b]
        _collapse_kernel(p, u, _strength(p, energies, cfg, step, trials))
        b += 1


def ensemble_statistics(s0: EnergySuperposition, cfg: CollapseConfig, n_trials: int,
                        n_steps: int, slice_stride: int) -> dict:
    """Sample means of P_i and of the products P_i P_j (the off-diagonal
    proxy) over an ensemble, with standard errors, at every
    slice_stride-th step.

    Trials run in fixed blocks of TRIAL_BLOCK with per-trial seeds, and
    the sums are accumulated in block order, so the output depends only
    on the inputs.
    """
    if n_trials < 2 or n_steps < 0 or slice_stride < 1:
        raise ContractViolation("need n_trials >= 2, n_steps >= 0, slice_stride >= 1")
    m = s0.n_branches
    if _energy_groups(s0.energies)[1].size != m:
        raise ContractViolation("ensemble statistics expects distinct branch energies")
    ii, jj = np.triu_indices(m, 1)
    pairs = list(zip(ii.tolist(), jj.tolist()))
    slice_steps = sorted(set(range(0, n_steps + 1, slice_stride)) | {n_steps})
    s1, s2 = np.zeros((2, len(slice_steps), m))
    q1, q2 = np.zeros((2, len(slice_steps), len(pairs)))
    for lo in range(0, n_trials, TRIAL_BLOCK):
        row = 0
        for step, p, _ in _ensemble_walk(s0, cfg, lo, min(lo + TRIAL_BLOCK, n_trials),
                                         n_steps):
            if step == slice_steps[row]:
                pt = np.ascontiguousarray(p.T)
                prods = pt[:, ii] * pt[:, jj]
                s1[row] += pt.sum(axis=0)
                s2[row] += (pt**2).sum(axis=0)
                q1[row] += prods.sum(axis=0)
                q2[row] += (prods**2).sum(axis=0)
                row += 1
    n = float(n_trials)
    mean_p = s1 / n
    var_p = np.maximum(s2 / n - mean_p**2, 0.0) * n / (n - 1.0)
    mean_pp = q1 / n
    var_pp = np.maximum(q2 / n - mean_pp**2, 0.0) * n / (n - 1.0)
    return {
        "steps": np.array(slice_steps),
        "pairs": pairs,
        "mean_p": mean_p,
        "se_p": np.sqrt(var_p / n),
        "mean_pp": mean_pp,
        "se_pp": np.sqrt(var_pp / n),
        "n_trials": n_trials,
    }


def ensemble_outcomes(s0: EnergySuperposition, cfg: CollapseConfig, n_trials: int,
                      max_steps: int) -> dict:
    """Outcome branch and steps-to-collapse for each trial.  A trial
    collapses when max P_i > 1 - epsilon; trials that never cross the
    threshold report steps = max_steps and outcome -1.

    All trials step as one array and each leaves it at the step where it
    crosses, so the work follows the live trials, not the slowest one.
    A trial's result depends only on its own seeded stream, with frozen
    and with dynamic k alike.
    """
    if n_trials < 1 or max_steps < 0:
        raise ContractViolation("need n_trials >= 1 and max_steps >= 0")
    if _energy_groups(s0.energies)[1].size != s0.n_branches:
        raise ContractViolation("ensemble outcomes expects distinct branch energies")
    threshold = 1.0 - cfg.collapse_epsilon
    outcomes = np.full(n_trials, -1, dtype=np.int64)
    steps_to = np.full(n_trials, max_steps, dtype=np.int64)
    walk = _ensemble_walk(s0, cfg, 0, n_trials, max_steps)
    crossed = None
    while True:
        try:
            step, p, trials = walk.send(crossed)
        except StopIteration:
            break
        crossed = p.max(axis=0) > threshold
        if crossed.any():
            outcomes[trials[crossed]] = p[:, crossed].argmax(axis=0)
            steps_to[trials[crossed]] = step
        else:
            crossed = None
    return {"outcomes": outcomes, "steps": steps_to}


def collapse_time(delta_e: float, cfg: CollapseConfig) -> float:
    """Characteristic time (hbar / dE)^2 / t_P for an energy spread dE.

    The prefactor is fixed at 1 (the model determines it only to order
    unity); all quoted targets are order-of-magnitude.
    """
    if delta_e <= 0:
        raise ContractViolation("delta_e must be positive")
    return (cfg.hbar / delta_e) ** 2 / cfg.t_p


def relativistic_collapse_time(delta_e: float, v: float, cfg: CollapseConfig) -> float:
    """(1 + v/c)^-2 times the rest-frame value; v is the experimental
    frame's velocity relative to the frame where the base formula holds.
    Valid in the high-energy regime E ~ pc."""
    if abs(v) >= cfg.c:
        raise ContractViolation("|v| must be below c")
    return (1.0 + v / cfg.c) ** -2 * collapse_time(delta_e, cfg)


def manybody_delta_e(table: ManyBodyBranchTable, reducer: str = "rms") -> float:
    """Total energy spread of an entangled state.

    Per subsystem j the spread is s_j = sqrt(sum_i P_i (E_ji - Ebar_j)^2).
    reducer "rms" returns sqrt(sum_j s_j^2); "linear-sum" returns
    sum_j s_j.  Both reduce to the one-body spread for one subsystem.
    """
    if reducer not in ("rms", "linear-sum"):
        raise ContractViolation(f"unknown reducer {reducer!r}")
    spread = energy_spread(table.probabilities[:, None], table.energies.T)
    if reducer == "rms":
        return float(np.sqrt(np.sum(spread**2)))
    return float(spread.sum())


def scale_invariance_check(s: EnergySuperposition, cfg: CollapseConfig,
                           grouping, staying_branch: int) -> dict:
    """Verify that grouped branch probabilities follow the same two-level
    update: Delta(sum_G P) = k (1 - sum_G P) for the group G holding the
    staying branch, and Delta(sum_G P) = -k sum_G P otherwise.

    grouping is a partition of branch indices; the staying branch must
    lie inside one group.  Returns the max deviation (exact algebra: the
    residual is rounding-level for any partition).
    """
    groups = [list(g) for g in grouping]
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(s.n_branches)):
        raise ContractViolation("grouping must partition the branch indices")
    if not any(staying_branch in g for g in groups):
        raise ContractViolation("staying branch missing from the partition")
    k = step_strength(s, cfg)
    p = s.probabilities
    p_new = p - k * p
    p_new[staying_branch] += k
    worst = 0.0
    for g in groups:
        q = float(p[g].sum())
        q_new_direct = q + k * (1.0 - q) if staying_branch in g else q - k * q
        worst = max(worst, abs(float(p_new[g].sum()) - q_new_direct))
    return {"max_deviation": worst, "passed": worst < 1e-14}


def horizon_energy_levels(r_u_m: float, n_max: int, mass_ev: float = None) -> np.ndarray:
    """Discrete energy levels enforced by a finite horizon of radius R_U.

    Massless: E_n = n^2 h c / (4 R_U).  Massive (rest energy mc^2 in eV):
    E_n = n^2 h^2 c^2 / (32 mc^2 R_U^2).  Physical units (eV, m, s).
    """
    if r_u_m <= 0 or n_max < 1:
        raise ContractViolation("need R_U > 0 and n_max >= 1")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if mass_ev is None:
        e1 = constants.H_EVS * constants.C_M_S / (4.0 * r_u_m)
    else:
        if mass_ev <= 0:
            raise ContractViolation("mass_ev must be positive")
        e1 = (constants.H_EVS * constants.C_M_S) ** 2 / (32.0 * mass_ev * r_u_m**2)
    return n**2 * e1
