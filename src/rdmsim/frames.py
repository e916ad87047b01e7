"""Boost and synchrony-convention analysis of stay/collapse events in
1+1 dimensions, in natural units: c = 1, so a velocity is a fraction of c.

Besides the standard boost this implements the synchrony-general
transformation that preserves only the two-way light speed,

    x' = eta (x - v t)
    t' = eta [1 + beta (k + k')] t + eta [beta (k^2 - 1) + k - k'] x
    eta = 1 / sqrt((1 + beta k)^2 - beta^2)

with k, k' in [-1, 1] the one-way-speed anisotropy parameters of the
two frames (k = k' = 0 recovers the boost; k = 0, k' = -beta restores
absolute simultaneity: t' = t sqrt(1 - beta^2)).

The boost, the synchrony-general transformation and the interval take
one event or arrays of events (and a scalar or array v): an Event holds
scalars or arrays, and each is one formula that numpy broadcasts.

Stay events of a sampled trajectory are discrete, so boosted-frame
coincidences are decided by a time tolerance: half the boosted
inter-instant spacing for the correlation statistics, and by default
for the appearance scan.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, InsufficientOverlapError, SuperluminalFrameError
from .rdm import PairedStayTrajectory, StayTrajectory


@dataclass(frozen=True)
class Event:
    """A point (t, x), or arrays of points."""

    t: float
    x: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.x))):
            raise ContractViolation("event coordinates must be finite")


@dataclass(frozen=True)
class SynchronyParams:
    """Boost velocity plus one-way-speed parameters of both frames
    (scalars or arrays)."""

    v: float
    k: float = 0.0
    k_prime: float = 0.0

    def __post_init__(self):
        if not np.all(np.abs(self.v) < 1.0):  # NaN fails too
            raise SuperluminalFrameError("|v| must be below c")
        if not (np.all(np.abs(self.k) <= 1.0)  # NaN fails too
                and np.all(np.abs(self.k_prime) <= 1.0)):
            raise ContractViolation("|k| and |k'| must not exceed 1")


def _gamma(v: float) -> float:
    if not np.all(np.abs(v) < 1.0):  # NaN fails too
        raise SuperluminalFrameError(f"|v| = {np.max(np.abs(v)):g} >= c = 1")
    return 1.0 / np.sqrt(1.0 - v**2)


def boost_times(t: np.ndarray, x: np.ndarray, v: float) -> np.ndarray:
    """Boosted times t' = gamma (t - x v) of one event or arrays."""
    g = _gamma(v)
    return g * (np.asarray(t) - np.asarray(x) * v)


def boost_positions(t: np.ndarray, x: np.ndarray, v: float) -> np.ndarray:
    """Boosted positions x' = gamma (x - v t) of one event or arrays."""
    g = _gamma(v)
    return g * (np.asarray(x) - v * np.asarray(t))


def lorentz_transform(e: Event, v: float) -> Event:
    """Standard boost of an event (or event arrays) by v."""
    return Event(boost_times(e.t, e.x, v), boost_positions(e.t, e.x, v))


def interval(e1: Event, e2: Event) -> float:
    """Invariant dt^2 - dx^2 of an event pair."""
    return (e2.t - e1.t) ** 2 - (e2.x - e1.x) ** 2


def edwards_winnie_transform(e: Event, p: SynchronyParams) -> Event:
    """Synchrony-general transformation; k = k' = 0 is the boost."""
    beta = p.v
    disc = (1.0 + beta * p.k) ** 2 - beta**2
    if np.any(disc <= 0.0):
        raise ContractViolation("degenerate synchrony parameters: eta is not real")
    eta = 1.0 / np.sqrt(disc)
    x_new = eta * (e.x - p.v * e.t)
    t_new = (eta * (1.0 + beta * (p.k + p.k_prime)) * e.t
             + eta * (beta * (p.k**2 - 1.0) + p.k - p.k_prime) * e.x)
    return Event(t_new, x_new)


def absolute_sync_params(v: float) -> SynchronyParams:
    """Parameters of the transformation that keeps the unprimed frame's
    simultaneity absolute: k = 0, k' = -v."""
    return SynchronyParams(v=v, k=0.0, k_prime=-v)


def _match_sorted(times_a: np.ndarray, times_b: np.ndarray, tol: float) -> np.ndarray:
    """Index of the nearest entry of sorted times_b for each times_a,
    or -1 when the nearest is farther than tol."""
    pos = np.searchsorted(times_b, times_a)
    best = np.full(times_a.size, -1, dtype=np.int64)
    best_d = np.full(times_a.size, np.inf)
    for cand in (np.clip(pos - 1, 0, times_b.size - 1),
                 np.clip(pos, 0, times_b.size - 1)):
        d = np.abs(times_b[cand] - times_a)
        better = d < best_d
        best[better] = cand[better]
        best_d[better] = d[better]
    best[best_d > tol] = -1
    return best


def boosted_correlation_stats(traj: PairedStayTrajectory, v: float) -> dict:
    """Classify boosted-frame coincidences of the two particles' stays.

    All stay events share the home-frame clock; each particle's events
    are boosted, then every particle-1 stay is paired with the nearest
    particle-2 stay within half the boosted inter-instant spacing,
    0.5 gamma.  Pairs with equal branch labels count as
    correlation-kept, the rest as reversed; the two fractions sum to 1
    over the classified pairs.  At v = 0 pairing is instant-by-instant
    and the reversed fraction is exactly 0.  For iid branch draws with
    weights (|a|^2, |b|^2) the expected reversed fraction in a generic
    frame is 2 |a|^2 |b|^2.
    """
    t = traj.times
    tol = 0.5 * _gamma(v)
    t1 = boost_times(t, traj.x1, v)
    t2 = boost_times(t, traj.x2, v)
    order = np.argsort(t2, kind="stable")
    match = _match_sorted(t1, t2[order], tol)
    hit = match >= 0
    if not np.any(hit):
        raise InsufficientOverlapError("no coincident stay pairs at this tolerance")
    partner = order[match[hit]]
    same = traj.branches[hit] == traj.branches[partner]
    kept = float(np.mean(same))
    return {
        "kept_fraction": kept,
        "reversed_fraction": 1.0 - kept,
        "pairs": int(hit.sum()),
        "tolerance": float(tol),
        "v": float(v),
    }


def multiparticle_appearance_scan(traj: StayTrajectory, positions: np.ndarray, v: float,
                                  coincidence_tol: float = None) -> int:
    """Count pairs of distinct home-frame instants whose boosted times
    coincide within the tolerance while their boosted positions differ.

    Nonzero counts exhibit the same particle at two places at once in
    the boosted frame; the count vanishes at v = 0 and as the tolerance
    shrinks to zero with the stays held fixed.  The default tolerance is
    half the boosted inter-instant spacing.

    Two instants coincide when the later boosted time minus the earlier
    one is at most the tolerance.  With the instants sorted by boosted
    time, those partnering instant i form a window i < m < end[i]; the
    count is the total window width minus the partners that share i's
    boosted position, found per position group by searchsorted.  No pair
    list is built, so memory stays O(n) at any tolerance.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != traj.stays.shape:
        raise ContractViolation("need one position per instant")
    if not np.all(np.isfinite(positions)):
        raise ContractViolation("positions must be finite")
    tol = 0.5 * _gamma(v) * traj.dt_instant if coincidence_tol is None else coincidence_tol
    if not tol >= 0:  # NaN fails too; inf pairs every instant
        raise ContractViolation(f"coincidence_tol must be non-negative, not {tol!r}")
    t = traj.dt_instant * np.arange(traj.instants)
    tb = boost_times(t, positions, v)
    xb = boost_positions(t, positions, v)
    order = np.argsort(tb, kind="stable")
    tb, xb = tb[order], xb[order]
    n = tb.size
    if n < 2:
        return 0
    i = np.arange(n)
    # searchsorted on tb + tol can miss the exact predicate
    # tb[end] - tb[i] > tol by a rounding; step over whole runs of equal
    # tb until it holds (a tie run is all in or all out of a window)
    end = np.maximum(np.searchsorted(tb, tb + tol, side="right"), i + 1)
    while True:
        up = (end < n) & (tb[np.minimum(end, n - 1)] - tb <= tol)
        down = (end - 1 > i) & (tb[end - 1] - tb > tol)
        if not (up.any() or down.any()):
            break
        end[up] = np.searchsorted(tb, tb[end[up]], side="right")
        end[down] = np.searchsorted(tb, tb[end[down] - 1], side="left")
    # list the instants by (boosted position, index): the partners of
    # entry p that share its position follow it up to the first entry of
    # its position group at or after its window end
    by_x = np.argsort(xb, kind="stable")
    xs = xb[by_x]
    group = np.cumsum(np.concatenate(([0], xs[1:] != xs[:-1])))
    same = np.searchsorted(group * n + by_x, group * n + end[by_x]) - i - 1
    return int(np.sum(end - i - 1) - np.sum(same))
