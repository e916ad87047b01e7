"""Energy-conserved discrete collapse dynamics.

The kernel works in Planck units (hbar = t_P = 1).  One instant updates
the branch probabilities of an energy superposition around a randomly
drawn staying branch s:

    P_i(t + 1) = P_i(t) + k [delta_{is} - P_i(t)],   k = dE

with dE the RMS energy spread of the instantaneous state ("dynamic"
mode) or a frozen constant k0.  The staying branch is drawn with the
current probabilities, which makes every P_i a martingale: outcome
frequencies reproduce the initial weights exactly, and the ensemble
energy distribution is conserved.  Mean products P_i P_j decay as
(1 - k^2)^n, giving the characteristic time ~ 1 / k^2 instants.  Only
the collapse-time calculators work in seconds, with the pinned constants.

Every dynamic k is the spread that _strength computes from energies
shifted by the first group's, and passes its one guard, so a global
energy offset leaves it unchanged and a trial's k does not depend on
the trials beside it.  Every runner observes one walk (_ensemble_walk)
through one kernel (_collapse_kernel): a trajectory is trial 0 of it,
and ensemble_statistics walks all its trials at once and sums them in
fixed blocks, in block order.  The walk alone tests the collapse
threshold: a trial that crosses it leaves, its column zeroed, which the
kernel keeps at 0, and dropped when the walk next refills its draws.

Branches with exactly equal energies are indistinguishable to the
update: the walk merges them once, up front, and steps the group
weights; each member keeps its share of its group's weight.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import ContractViolation, NumericFailure, SuperPlanckianError, require_at_least
from .hilbert import EnergySuperposition
from .seeding import check_seed, trial_rngs


COLLAPSE_EPSILON = 1e-6  # the threshold: a trial collapses at max P_i > 1 - COLLAPSE_EPSILON
NARROW_COLUMNS = 64  # widest array that _running_sum sums with one accumulate
_IGNORE_OVERFLOW = np.errstate(over="ignore", invalid="ignore")  # inf/NaN k: for the guard


@dataclass(frozen=True)
class CollapseConfig:
    """Knobs of the discrete collapse run, in Planck units.

    k_mode "dynamic" recomputes k = dE(t) each instant;
    "frozen" uses the constant k0 (the off-diagonal decay law is exact
    in that mode); dynamic k always uses the one-body spread dE, and
    dynamic mode rejects a k0 rather than ignore it.
    seed is the master seed of the trial streams, an integer (not a
    bool) in [0, 2^64).
    """

    k_mode: str = "dynamic"
    k0: float = None
    seed: int = 0

    def __post_init__(self):
        if self.k_mode not in ("dynamic", "frozen"):
            raise ContractViolation(f"unknown k_mode {self.k_mode!r}")
        if self.k_mode == "frozen":
            if self.k0 is None or not 0.0 <= self.k0 <= 1.0:
                raise ContractViolation(f"frozen mode needs 0 <= k0 <= 1, not {self.k0}")
        elif self.k0 is not None:
            raise ContractViolation("k0 is ignored with k_mode 'dynamic'; drop k0 or "
                                    "set k_mode to 'frozen'")
        check_seed(self.seed)


def _running_sum(x: np.ndarray) -> np.ndarray:
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


def _strength(p, e, step=None, trials=None):
    """Dynamic k for the branch-major p: for every column the RMS spread
    dE = sqrt(sum_i P_i (e_i - ebar)^2) of the energies e (a column
    against a 2-d p), already shifted by the first group's energy so that
    a global offset cancels exactly.  Each sum is the last row of
    _running_sum, so a column's k does not depend on its neighbours, and a
    zero column gets k = 0.

    The one guard of the model's regime k <= 1: a non-finite k raises
    NumericFailure, a finite k > 1 SuperPlanckianError.  Both carry the
    step and, in an ensemble, the absolute index of the first bad trial.
    Each runner walks under _IGNORE_OVERFLOW, entered once per call.
    """
    e_bar = _running_sum(p * e)[-1]
    k = np.sqrt(np.maximum(_running_sum(p * (e - e_bar) ** 2)[-1], 0.0))
    if not k.max() <= 1.0:  # written so that NaN fails it too
        flat = np.ravel(k)
        bad = int(np.flatnonzero(~(flat <= 1.0))[0])
        trial = None if trials is None else int(trials[bad])
        if not math.isfinite(flat[bad]):
            raise NumericFailure(f"k = dE*t_P/hbar is {flat[bad]}", step=step, trial=trial)
        raise SuperPlanckianError(f"k = dE*t_P/hbar = {flat[bad]:.3g} > 1", step=step, trial=trial)
    return k


def _energy_groups(s: EnergySuperposition):
    """(group of each branch, first branch of each group, each branch's
    share p0 / G0 of its group's weight G0): branches with exactly equal
    energy share a group, numbered in first-seen order; the members of an
    empty group have share 0."""
    seen = {}
    label = np.array([seen.setdefault(float(e), len(seen)) for e in s.energies])
    p0 = s.probabilities
    g0 = np.bincount(label, weights=p0)[label]
    share = np.divide(p0, g0, out=np.zeros_like(p0), where=g0 > 0.0)
    return label, np.unique(label, return_index=True)[1], share


@_IGNORE_OVERFLOW
def run_trajectory(s0: EnergySuperposition, cfg: CollapseConfig, max_steps: int):
    """Step trial 0 of the ensemble walk until it collapses or max_steps.

    Returns a dict with the per-step probability history, the staying
    branch of each step, the outcome branch (None if the threshold was
    not reached) and the step count.  The walk steps the group weights;
    each member's history (its group's times its share of p0) and each
    staying branch are read off once, at the end.  A guard names trial 0.
    """
    require_at_least(max_steps=(max_steps, 0))
    groups = label, first, share = _energy_groups(s0)
    history, stays, outcome = [], [], None
    for step, p, _, stay, crossed in _ensemble_walk(s0, cfg, groups, 1, max_steps, leave=True):
        history.append(p.copy())
        stays.append(stay)
        if crossed is not None:
            outcome = int(first[p.argmax()])
    return {
        "probabilities": np.array(history)[:, label, 0] * share,
        "staying": first[np.reshape(stays[1:], (step, len(first))).argmax(axis=1)],
        "outcome": outcome,
        "steps": step,
    }


TRIAL_BLOCK = 256  # ensemble_statistics sums trials in blocks of this size, in order
DRAW_BUDGET = TRIAL_BLOCK * 2048  # uniforms buffered at once, however many trials are live


def _collapse_kernel(p: np.ndarray, u: np.ndarray, k) -> np.ndarray:
    """One instant for every column of the branch-major matrix p (m x n_live),
    in place; returns the stay mask (True at row s of column t).

    Column t stays in branch s, the number of running sums cum_j with
    u[t] * cum_{m-1} >= cum_j; then P <- P - kP, P += k on row s (an
    exact +0.0 elsewhere), min(P, 1) against rounding overshoot.  k is
    one value for all columns or one per column.  A column goes through the
    same IEEE operations whatever other columns share the array, a
    trajectory's single column included.
    """
    # one accumulate up to NARROW_COLUMNS live columns, else one add per row
    cum = _running_sum(p)
    passed = u * cum[-1] >= cum
    # cum is nondecreasing down a column, so s = j where u passes cum_{j-1} but not cum_j
    stay = ~passed
    stay[1:] &= passed[:-1]
    p -= k * p
    p += stay * k
    np.minimum(p, 1.0, out=p)
    return stay


def _ensemble_walk(s0: EnergySuperposition, cfg: CollapseConfig, groups, n_trials: int,
                   n_steps: int, leave: bool):
    """Trials 0..n_trials-1 of s0 stepped as one group-major array p
    (n_groups x n_columns); groups is _energy_groups(s0).

    Degenerate branches are merged once, up front: p holds the group weights
    G0 = bincount(label, p0), stepped against the group energies (shifted
    once, by the first group's), so for distinct energies p is p0 bit for
    bit.  Yields (step, p, trials, stay, crossed) before each step and once
    more at step n_steps; trials holds the absolute index of each column,
    stay the kernel's stay mask of the previous step (None before the
    first), and p is stepped in place once the walk resumes.  With leave,
    a trial collapses (leaves) at the step where some group weight passes
    the threshold; crossed indexes the columns that collapse there, or is
    None (always None without leave).  On resuming, the walk zeroes them
    (a zero column never stays or crosses, and gets k = 0), drops them at
    the next refill of the draws and ends when no trial is left.  Every
    trial draws one uniform per step from its own generator
    (all built by one trial_rngs call), held until the walk ends (about
    0.7 KB per trial), into one float64 buffer per walk of at most
    DRAW_BUDGET entries (4 MiB), or 8 x n_trials where that is more.
    """
    label, first, _ = groups
    trials = np.arange(n_trials)
    gens = trial_rngs(cfg.seed, 0, n_trials)
    p = np.repeat(np.bincount(label, weights=s0.probabilities)[:, None], n_trials, axis=1)
    e = (s0.energies[first] - s0.energies[0])[:, None]
    dynamic, k = cfg.k_mode == "dynamic", cfg.k0
    buf = np.empty(max(min(DRAW_BUDGET, n_trials * min(512, n_steps)), 8 * n_trials))
    threshold = 1.0 - COLLAPSE_EPSILON  # read per walk: one whole-array p.max() test per step
    stay, crossed, live, b, width = None, None, n_trials, 0, 0
    for step in range(n_steps + 1):
        if leave and p.max() > threshold:
            crossed = np.flatnonzero(p.max(axis=0) > threshold)
        yield step, p, trials, stay, crossed
        if crossed is not None:
            p[:, crossed] = 0.0
            live -= len(crossed)
            crossed = None
        if step == n_steps or live == 0:
            return
        if b == width:
            # every entry of the old chunk is consumed; a trial's stream does
            # not depend on the chunks
            kept = p.any(axis=0)
            # compress keeps p C-ordered; a boolean index would not
            trials, p = trials[kept], p.compress(kept, axis=1)
            width = min(max(DRAW_BUDGET // live, 8), 512, n_steps - step)
            draws = buf[:live * width].reshape(live, width)
            for row, t in enumerate(trials.tolist()):
                gens[t].random(out=draws[row])
            b = 0
        if dynamic:
            k = _strength(p, e, step, trials)
        stay = _collapse_kernel(p, draws[:, b], k)
        b += 1


@_IGNORE_OVERFLOW
def ensemble_statistics(s0: EnergySuperposition, cfg: CollapseConfig, n_trials: int,
                        n_steps: int, slice_stride: int) -> dict:
    """Sample means of P_i and of the products P_i P_j (the off-diagonal
    proxy) over an ensemble, with standard errors, at every
    slice_stride-th step.

    All trials run as one walk with per-trial seeds.  At each slice the
    sums are accumulated over blocks of TRIAL_BLOCK trials in block order,
    so the output depends only on the inputs.  Degenerate branches share
    their group's weight in proportion to p0.
    """
    require_at_least(n_trials=(n_trials, 2), n_steps=(n_steps, 0), slice_stride=(slice_stride, 1))
    m = s0.n_branches
    groups = label, _, share = _energy_groups(s0)
    ii, jj = np.triu_indices(m, 1)
    pairs = list(zip(ii.tolist(), jj.tolist()))
    slice_steps = np.append(np.arange(0, n_steps, slice_stride), n_steps)
    s1, s2 = np.zeros((2, len(slice_steps), m))
    q1, q2 = np.zeros((2, len(slice_steps), len(pairs)))
    row = 0
    for step, p, *_ in _ensemble_walk(s0, cfg, groups, n_trials, n_steps, leave=False):
        if step == slice_steps[row]:
            # C order, so a block's rows sum as a standalone block's would
            pt = np.ascontiguousarray((p[label] * share[:, None]).T)
            prods = pt[:, ii] * pt[:, jj]
            for lo in range(0, n_trials, TRIAL_BLOCK):
                blk, pp = pt[lo:lo + TRIAL_BLOCK], prods[lo:lo + TRIAL_BLOCK]
                s1[row] += blk.sum(axis=0)
                s2[row] += (blk**2).sum(axis=0)
                q1[row] += pp.sum(axis=0)
                q2[row] += (pp**2).sum(axis=0)
            row += 1
    n = float(n_trials)
    mean_p = s1 / n
    var_p = np.maximum(s2 / n - mean_p**2, 0.0) * n / (n - 1.0)
    mean_pp = q1 / n
    var_pp = np.maximum(q2 / n - mean_pp**2, 0.0) * n / (n - 1.0)
    return {
        "steps": slice_steps,
        "pairs": pairs,
        "mean_p": mean_p,
        "se_p": np.sqrt(var_p / n),
        "mean_pp": mean_pp,
        "se_pp": np.sqrt(var_pp / n),
        "n_trials": n_trials,
    }


@_IGNORE_OVERFLOW
def ensemble_outcomes(s0: EnergySuperposition, cfg: CollapseConfig, n_trials: int,
                      max_steps: int) -> dict:
    """Outcome branch and steps-to-collapse for each trial.  A trial's
    outcome is the first branch of the group whose weight passes the
    threshold; trials that never collapse report steps = max_steps and
    outcome -1.

    Each trial leaves the walk at the step where it collapses, so the work
    follows the live trials, not the slowest one.  A trial's result
    depends only on its own seeded stream, with frozen and dynamic k
    alike; trial 0 is run_trajectory's.
    """
    require_at_least(n_trials=(n_trials, 1), max_steps=(max_steps, 0))
    groups = _, first, _ = _energy_groups(s0)
    outcomes = np.full(n_trials, -1, dtype=np.int64)
    steps_to = np.full(n_trials, max_steps, dtype=np.int64)
    for step, p, trials, _, crossed in _ensemble_walk(s0, cfg, groups, n_trials, max_steps,
                                                      leave=True):
        if crossed is not None:
            outcomes[trials[crossed]] = first[p[:, crossed].argmax(axis=0)]
            steps_to[trials[crossed]] = step
    return {"outcomes": outcomes, "steps": steps_to}


def collapse_time(delta_e: float) -> float:
    """Characteristic time (hbar / dE)^2 / t_P in seconds for an energy
    spread dE in eV, with the pinned constants.

    The prefactor is fixed at 1 (the model determines it only to order
    unity); all quoted targets are order-of-magnitude.
    """
    if np.ndim(delta_e):
        raise ContractViolation(f"delta_e must be a scalar, not shape {np.shape(delta_e)}")
    if not delta_e > 0:  # NaN fails too
        raise ContractViolation(f"delta_e must be positive, not {delta_e}")
    try:
        tau = (constants.HBAR_EVS / delta_e) ** 2 / constants.PLANCK_TIME_S
    except OverflowError:
        tau = math.inf
    if not math.isfinite(tau):
        raise NumericFailure(f"collapse time overflows at dE = {delta_e!r} eV")
    return tau


def relativistic_collapse_time(delta_e: float, v: float) -> float:
    """(1 + v/c)^-2 times the rest-frame value; v [m/s] is the
    experimental frame's velocity relative to the frame where the base
    formula holds.  Valid in the high-energy regime E ~ pc."""
    if np.ndim(v):
        raise ContractViolation(f"v must be a scalar, not shape {np.shape(v)}")
    if not abs(v) < constants.C_M_S:  # NaN fails too
        raise ContractViolation(f"|v| must be below c = {constants.C_M_S:.0f} m/s, not {v}")
    return (1.0 + v / constants.C_M_S) ** -2 * collapse_time(delta_e)
