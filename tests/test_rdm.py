import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rdmsim import rdm
from rdmsim.errors import ContractViolation, NormalizationError, NumericFailure
from rdmsim.seeding import seeded_rng


class TestSampleStays:
    def test_point_distribution(self):
        traj = rdm.sample_stays([0.0, 1.0, 0.0], 500, seed=0)
        assert np.all(traj.stays == 1)

    def test_two_box_frequency(self):
        # |a|^2 = 0.5: box occupancy within 3 binomial sigma
        n = 100_000
        traj = rdm.sample_stays([0.5, 0.5], n, seed=1)
        frac = np.mean(traj.stays == 0)
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_uniform_chi_square(self):
        d, n = 8, 100_000
        traj = rdm.sample_stays(np.full(d, 1.0 / d), n, seed=2)
        counts = np.bincount(traj.stays, minlength=d)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_reproducible(self):
        a = rdm.sample_stays([0.2, 0.8], 1000, seed=42)
        b = rdm.sample_stays([0.2, 0.8], 1000, seed=42)
        assert np.array_equal(a.stays, b.stays)

    def test_seed_changes_stream(self):
        a = rdm.sample_stays([0.2, 0.8], 1000, seed=42)
        b = rdm.sample_stays([0.2, 0.8], 1000, seed=43)
        assert not np.array_equal(a.stays, b.stays)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            rdm.sample_stays([0.5, 0.6], 10, seed=0)

    def test_rejects_empty_run(self):
        with pytest.raises(ContractViolation, match="^n must be >= 1, not 0$"):
            rdm.sample_stays([1.0], 0, seed=0)


@st.composite
def densities(draw):
    """A density over 1-20 sites, some of them empty."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                            min_size=1, max_size=20))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    w = np.array(weights)
    return w / w.sum()


def tv_bound(n_sites, n, delta=1e-9):
    """The TV distance that the empirical density of n iid draws over
    n_sites reaches with probability at most delta, by the
    Bretagnolle-Huber-Carol inequality
    P(sum |p_hat - p| >= 2 lam / sqrt(n)) <= 2^n_sites exp(-2 lam^2)."""
    lam = math.sqrt((n_sites * math.log(2.0) + math.log(1.0 / delta)) / 2.0)
    return lam / math.sqrt(n)


class TestSampleStaysProperties:
    @given(densities(), st.integers(1, 20_000), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_stays_on_the_support(self, p, n, seed):
        stays = rdm.sample_stays(p, n, seed=seed).stays
        assert np.all((stays >= 0) & (stays < p.size))
        assert np.all(p[stays] > 0.0)

    @given(densities(), st.integers(1, 20_000), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_same_seed_same_bytes(self, p, n, seed):
        a = rdm.sample_stays(p, n, seed=seed).stays
        b = rdm.sample_stays(p, n, seed=seed).stays
        assert a.tobytes() == b.tobytes()

    @given(densities(), st.integers(1, 20_000), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tv_distance_within_bhc_bound(self, p, n, seed):
        # a correct sampler fails this with probability below 1e-9 per example
        traj = rdm.sample_stays(p, n, seed=seed)
        assert rdm.total_variation(rdm.empirical_density(traj), p) < tv_bound(p.size, n)


def search_reference(p, u):
    """np.searchsorted over the CDF that the draws invert: capped at 1.0,
    and 1.0 from the last positive weight on."""
    cdf = np.minimum(np.cumsum(p), 1.0)
    cdf[np.flatnonzero(p)[-1]:] = 1.0
    return np.searchsorted(cdf, u, side="right")


# 0, every bucket edge of every table (at most 2^16 buckets) and the key
# just below each edge, 1 - 2^-53 included
EDGES = np.arange(2**16) / 2**16
EDGE_KEYS = np.concatenate((EDGES, np.nextafter(EDGES[1:], 0.0), [1.0 - 2**-53]))


class TestInverseCdf:
    @given(densities(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
    @settings(max_examples=100, deadline=None)
    # CDF values exactly on bucket edges
    @example(np.array([0.5, 0.5]), [0.5, 0.25])
    @example(np.array([0.25] * 4), [0.25, 0.5, 0.75])
    # more sites than the 2^16 buckets of the largest table, a trailing one empty
    @example((np.arange(70_000) % 3) / float(np.sum(np.arange(70_000) % 3)), [])
    def test_equals_searchsorted(self, p, keys):
        u = np.concatenate((EDGE_KEYS, keys))
        assert np.array_equal(rdm._inverse_cdf(p, u), search_reference(p, u))

    def test_zero_weight_last_site_is_never_drawn(self):
        # cumsum leaves the edge below the empty site 10 at 1 - 2^-53, so with
        # only the last CDF value set to 1.0 the largest key lands on site 10
        p = np.array([0.1] * 10 + [0.0])
        u = np.array([1.0 - 2**-53])
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        assert cdf[9] == u[0]
        assert np.searchsorted(cdf, u, side="right")[0] == 10
        assert rdm._inverse_cdf(p, u)[0] == 9

    @given(densities(), st.integers(1, 3000), st.integers(0, 2**64 - 1),
           st.sampled_from([1, 7, 1000, 1 << 14]))
    @settings(max_examples=60, deadline=None)
    def test_all_positive_weights_draw_the_search_sites(self, p, n, seed, block):
        # with no empty site the CDF is the plain cumsum with its last value
        # set to 1.0, and the lookup's block size does not change the sites
        p = (p + 0.01) / (p + 0.01).sum()
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        want = np.searchsorted(cdf, seeded_rng(seed).random(n), side="right")
        with mock.patch.object(rdm, "_LOOKUP_BLOCK", block):
            assert rdm.sample_stays(p, n, seed=seed).stays.tobytes() == want.tobytes()


class TestEmpiricalDensity:
    def test_delta_histogram(self):
        traj = rdm.StayTrajectory(np.full(100, 2), n_sites=4)
        hist = rdm.empirical_density(traj)
        assert np.array_equal(hist, [0, 0, 1.0, 0])

    def test_two_peak_ratio(self):
        # stays from a 0.36 / 0.64 superposition land in ratio |a|^2 : |b|^2
        n = 200_000
        traj = rdm.sample_stays([0.36, 0.64], n, seed=4)
        hist = rdm.empirical_density(traj)
        assert abs(hist[0] - 0.36) <= 3 * np.sqrt(0.36 * 0.64 / n)

    def test_profile_within_poisson_bars(self):
        rng = np.random.Generator(np.random.PCG64(5))
        profile = rng.random(32) + 0.1
        profile /= profile.sum()
        n = 1_000_000
        traj = rdm.sample_stays(profile, n, seed=6)
        counts = rdm.empirical_density(traj) * n
        sigma = np.sqrt(n * profile)
        assert np.all(np.abs(counts - n * profile) < 5 * sigma)

    def test_tv_convergence_rate(self):
        rng = np.random.Generator(np.random.PCG64(7))
        source = rng.random(16)
        source /= source.sum()
        ns = (1000, 10_000, 100_000)
        means = []
        for n in ns:
            tvs = [rdm.total_variation(
                       rdm.empirical_density(rdm.sample_stays(source, n, seed=100 + r)),
                       source) for r in range(8)]
            means.append(np.mean(tvs))
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestEntangledStays:
    SPEC = [(0.5, (0.0, 1.0), (10.0, 11.0)), (0.5, (2.0, 3.0), (12.0, 13.0))]

    def test_single_branch(self):
        spec = [(1.0, (0.0, 1.0), (10.0, 11.0)), (0.0, (2.0, 3.0), (12.0, 13.0))]
        traj = rdm.sample_entangled_stays(spec, 1000, seed=8)
        assert np.all(traj.branches == 0)

    def test_exact_synchronicity(self):
        traj = rdm.sample_entangled_stays(self.SPEC, 50_000, seed=9)
        in_branch1_p1 = (traj.x1 >= 2.0) & (traj.x1 < 3.0)
        in_branch1_p2 = (traj.x2 >= 12.0) & (traj.x2 < 13.0)
        assert np.array_equal(in_branch1_p1, traj.branches == 1)
        assert np.array_equal(in_branch1_p2, traj.branches == 1)

    def test_branch_frequency(self):
        for a_sq, seed in ((0.5, 10), (0.3, 11)):
            spec = [(a_sq, (0.0, 1.0), (10.0, 11.0)),
                    (1 - a_sq, (2.0, 3.0), (12.0, 13.0))]
            n = 100_000
            traj = rdm.sample_entangled_stays(spec, n, seed=seed)
            frac = np.mean(traj.branches == 0)
            assert abs(frac - a_sq) <= 3 * np.sqrt(a_sq * (1 - a_sq) / n)

    def test_rejects_bad_weights(self):
        spec = [(0.6, (0, 1), (2, 3)), (0.6, (4, 5), (6, 7))]
        with pytest.raises(NormalizationError):
            rdm.sample_entangled_stays(spec, 10, seed=0)

    def test_positions_inside_regions(self):
        traj = rdm.sample_entangled_stays(self.SPEC, 10_000, seed=12)
        u = traj.branches == 0
        assert np.all((traj.x1[u] >= 0.0) & (traj.x1[u] < 1.0))
        assert np.all((traj.x2[~u] >= 12.0) & (traj.x2[~u] < 13.0))

    @pytest.mark.parametrize("region, particle, branch", [
        ((-1e308, 1e308), 2, 0), ((0.0, math.inf), 1, 1)], ids=["overflow", "infinite"])
    def test_rejects_a_region_of_infinite_width(self, region, particle, branch):
        spec = [list(b) for b in self.SPEC]
        spec[branch][particle] = region
        message = f"the width of particle {particle}'s region {list(region)} in branch {branch}"
        with pytest.raises(NumericFailure, match=f"^{re.escape(message)} overflows$"):
            rdm.sample_entangled_stays(spec, 10, seed=0)

    def test_paired_times_are_the_instants(self):
        traj = rdm.sample_entangled_stays(self.SPEC, 5, seed=0)
        assert traj.times.dtype == np.float64
        assert np.array_equal(traj.times, [0.0, 1.0, 2.0, 3.0, 4.0])
