import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rdmsim import rdm
from rdmsim.errors import ContractViolation, NormalizationError, NumericFailure


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
