"""Discrete-instant random position sampling.

A particle occupies exactly one site per instant; the site is drawn
independently each instant from the instantaneous density (iid across
instants -- the minimal model, exposed as a config-visible assumption).
Sampling is exact discrete inverse-CDF so that identical (inputs, seed)
give bit-identical trajectories.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NormalizationError, NumericFailure, require_at_least
from .hilbert import _frozen
from .seeding import seeded_rng

DENSITY_TOL = 1e-8
_LOOKUP_BLOCK = 1 << 14  # keys looked up at once, so each temporary is 128 KB at any n


@dataclass(frozen=True)
class StayTrajectory:
    """Per-instant site indices of one particle's stays."""

    stays: np.ndarray
    n_sites: int
    dt_instant: float = 1.0
    seed: int = 0

    def __post_init__(self):
        s = _frozen(self.stays, np.int64)
        if s.ndim != 1:
            raise DimensionMismatchError("stays must be a 1-d index list")
        if s.size and (s.min() < 0 or s.max() >= self.n_sites):
            raise DimensionMismatchError("stay index out of range for the source density")
        object.__setattr__(self, "stays", s)

    @property
    def instants(self) -> int:
        return self.stays.size


@dataclass(frozen=True)
class PairedStayTrajectory:
    """Synchronized stays of two entangled particles.

    Branch labels are identical for the two particles at every instant
    (exact, by construction).  Positions are real coordinates inside the
    branch regions, needed by the boosted-frame analysis.  Instant n is
    at time n: the instant is the time unit.
    """

    branches: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    seed: int = 0

    def __post_init__(self):
        b = _frozen(self.branches, np.int64)
        x1 = _frozen(self.x1, np.float64)
        x2 = _frozen(self.x2, np.float64)
        if not (b.shape == x1.shape == x2.shape) or b.ndim != 1:
            raise DimensionMismatchError("branches, x1, x2 must be equal-length 1-d arrays")
        object.__setattr__(self, "branches", b)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def instants(self) -> int:
        return self.branches.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.instants, dtype=np.float64)


def _as_probabilities(density) -> np.ndarray:
    """The density as a checked float64 probability vector over sites."""
    p = np.asarray(density, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatchError("density must be a non-empty 1-d vector")
    if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= DENSITY_TOL):  # NaN fails too
        raise NormalizationError("density must be non-negative and sum to 1 within 1e-8")
    return p


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sites that keys u in [0, 1) draw from p:
    np.searchsorted(cdf, u, side="right"), where the CDF is capped at 1.0
    and is 1.0 from the last positive weight on, so that rounding can
    neither unsort it nor leave keys to a zero-weight last site.

    A table of 2^b buckets (64 to 128 per site, at most 2^16) holds the
    site of every bucket [i, i + 1) / 2^b that no CDF value falls strictly
    inside, the same for all its keys; u * 2^b is exact, so its integer
    part is the bucket.  Only the keys of the other buckets are searched.
    """
    cdf = np.minimum(np.cumsum(p), 1.0)
    cdf[np.flatnonzero(p)[-1]:] = 1.0
    size = 1 << min(p.size.bit_length() + 6, 16)
    edges = np.arange(size + 1) / size
    table = np.searchsorted(cdf, edges[:-1], side="right")
    table[np.searchsorted(cdf, edges[1:], side="left") > table] = -1  # a CDF value inside
    sites = np.empty(u.size, dtype=np.intp)
    for lo in range(0, u.size, _LOOKUP_BLOCK):
        keys = u[lo:lo + _LOOKUP_BLOCK]
        found = table[(keys * size).astype(np.intp)]
        slow = np.flatnonzero(found < 0)
        found[slow] = np.searchsorted(cdf, keys[slow], side="right")
        sites[lo:lo + _LOOKUP_BLOCK] = found
    return sites


def _draw_sites(density, n: int, seed: int):
    """(probabilities, the seeded generator, n sites drawn by inverse CDF
    from one rng.random(n), see _inverse_cdf): the checks and the first
    draws of both samplers and of the beable ensemble's initial sites."""
    p = _as_probabilities(density)
    require_at_least(n=(n, 1))
    rng = seeded_rng(seed)
    return p, rng, _inverse_cdf(p, rng.random(n))


def sample_stays(density, n: int, seed: int) -> StayTrajectory:
    """Draw n iid stays, one per instant, from the discrete density
    (a probability vector, by inverse CDF).  Reproducible from the seed.
    """
    p, _, stays = _draw_sites(density, n, seed)
    return StayTrajectory(stays, n_sites=p.size, seed=seed)


def empirical_density(t: StayTrajectory) -> np.ndarray:
    """Normalized histogram of stays over the trajectory's sites: the
    time-averaged stay measure.

    Converges to the source density as the instant count grows, with
    total-variation error O(1/sqrt(n)).
    """
    counts = np.bincount(t.stays, minlength=t.n_sites).astype(np.float64)
    return counts / max(t.instants, 1)


def sample_entangled_stays(branch_spec, n: int, seed: int) -> PairedStayTrajectory:
    """Synchronized two-particle sampling.

    branch_spec is a list of (weight, region1, region2) with regions as
    (lo, hi) position intervals.  Per instant: one branch is drawn with
    its weight, then each particle's position is drawn independently and
    uniformly inside its own branch region.  The branch label is shared,
    so the two particles jump between branches in exact lockstep.  A
    region whose width hi - lo overflows raises NumericFailure.
    """
    regions1 = [tuple(map(float, b[1])) for b in branch_spec]
    regions2 = [tuple(map(float, b[2])) for b in branch_spec]
    for i, regions in enumerate(zip(regions1, regions2)):
        for particle, (lo, hi) in enumerate(regions, 1):
            if not hi > lo:
                raise DimensionMismatchError("region must be a (lo, hi) interval with hi > lo")
            if not math.isfinite(hi - lo):
                raise NumericFailure(f"the width of particle {particle}'s region "
                                     f"[{lo!r}, {hi!r}] in branch {i} overflows")
    _, rng, branches = _draw_sites([float(b[0]) for b in branch_spec], n, seed)
    u1 = rng.random(n)
    u2 = rng.random(n)
    lo1 = np.array([r[0] for r in regions1])
    hi1 = np.array([r[1] for r in regions1])
    lo2 = np.array([r[0] for r in regions2])
    hi2 = np.array([r[1] for r in regions2])
    x1 = lo1[branches] + u1 * (hi1 - lo1)[branches]
    x2 = lo2[branches] + u2 * (hi2 - lo2)[branches]
    return PairedStayTrajectory(branches, x1, x2, seed=seed)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two discrete distributions on the same sites."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))
