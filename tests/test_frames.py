import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmsim import frames, rdm
from rdmsim.errors import ContractViolation, InsufficientOverlapError, SuperluminalFrameError

coords = st.floats(-1.0, 1.0)
betas = st.floats(-0.99, 0.99)


class TestLorentzTransform:
    def test_identity_at_zero(self):
        e = frames.Event(0.3, -0.7)
        out = frames.lorentz_transform(e, 0.0)
        assert out.t == e.t and out.x == e.x

    def test_hand_worked_pair(self):
        # (0,0) and (1,3) with v = 1/3: simultaneous, separation 2 sqrt(2)
        v = 1.0 / 3.0
        e1 = frames.lorentz_transform(frames.Event(0.0, 0.0), v)
        e2 = frames.lorentz_transform(frames.Event(1.0, 3.0), v)
        assert e2.t == pytest.approx(e1.t, abs=1e-14)
        assert e2.x - e1.x == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

    def test_rejects_superluminal(self):
        with pytest.raises(SuperluminalFrameError):
            frames.lorentz_transform(frames.Event(0.0, 0.0), 1.0)

    @given(coords, coords, betas)
    @settings(max_examples=200, deadline=None)
    def test_boost_inverse(self, t, x, v):
        e = frames.Event(t, x)
        back = frames.lorentz_transform(frames.lorentz_transform(e, v), -v)
        assert abs(back.t - t) < 1e-12 and abs(back.x - x) < 1e-12

    @given(coords, coords, coords, coords, betas)
    @settings(max_examples=300, deadline=None)
    def test_interval_invariance(self, t1, x1, t2, x2, v):
        e1, e2 = frames.Event(t1, x1), frames.Event(t2, x2)
        before = frames.interval(e1, e2)
        after = frames.interval(frames.lorentz_transform(e1, v),
                                frames.lorentz_transform(e2, v))
        assert abs(before - after) < 1e-12


class TestEdwardsWinnie:
    @given(coords, coords, betas)
    @settings(max_examples=300, deadline=None)
    def test_reduces_to_boost(self, t, x, v):
        e = frames.Event(t, x)
        lt = frames.lorentz_transform(e, v)
        ew = frames.edwards_winnie_transform(e, frames.SynchronyParams(v=v))
        assert abs(lt.t - ew.t) < 1e-12 and abs(lt.x - ew.x) < 1e-12

    @given(coords, coords, betas)
    @settings(max_examples=200, deadline=None)
    def test_absolute_sync_time(self, t, x, v):
        e = frames.Event(t, x)
        out = frames.edwards_winnie_transform(e, frames.absolute_sync_params(v))
        gamma = 1.0 / np.sqrt(1 - v**2)
        assert abs(out.t - t * np.sqrt(1 - v**2)) < 1e-12
        assert abs(out.x - gamma * (x - v * t)) < 1e-12

    def test_identity(self):
        e = frames.Event(0.4, -0.2)
        out = frames.edwards_winnie_transform(e, frames.SynchronyParams(v=0.0))
        assert out.t == pytest.approx(e.t) and out.x == pytest.approx(e.x)


class TestOneWaySpeeds:
    def test_absolute_sync_speeds_kinematic_oracle(self):
        # chase a light pulse through the absolute-sync transformation
        v = 0.4
        params = frames.absolute_sync_params(v)
        for direction in (+1.0, -1.0):
            e0 = frames.edwards_winnie_transform(frames.Event(0.0, 0.0), params)
            e1 = frames.edwards_winnie_transform(
                frames.Event(1.0, direction * 1.0), params)
            speed = (e1.x - e0.x) / (e1.t - e0.t)
            expected = 1.0 / (1.0 + v) if direction > 0 else -1.0 / (1.0 - v)
            assert speed == pytest.approx(expected, abs=1e-12)


class TestSimultaneityFrame:
    """Two events share a time in the frame v = dt/dx, which the boost
    reaches only for a spacelike pair."""

    def test_equal_times_zero_velocity(self):
        t, x = np.array([1.0, 1.0]), np.array([0.0, 2.0])
        tb = frames.boost_times(t, x, 0.0)
        assert tb[0] == tb[1]

    def test_formula_value(self):
        # (0, 0) and (1, 3): v = 1/3
        t, x = np.array([0.0, 1.0]), np.array([0.0, 3.0])
        tb = frames.boost_times(t, x, (t[1] - t[0]) / (x[1] - x[0]))
        assert tb[1] == pytest.approx(tb[0], abs=1e-14)

    def test_timelike_rejected(self):
        # (0, 0) and (1, 0.5): v = 2
        with pytest.raises(SuperluminalFrameError):
            frames.lorentz_transform(frames.Event(0.0, 0.0), 1.0 / 0.5)

    def test_lightlike_rejected(self):
        # (0, 0) and (1, 1): v = 1
        with pytest.raises(SuperluminalFrameError):
            frames.lorentz_transform(frames.Event(0.0, 0.0), 1.0 / 1.0)


class TestEntangledFrameVelocities:
    """Events a and b of two particles, at (t_a, x_1a) and (t_b, x_2b),
    share a time in the frame v' = (t_a - t_b) / (x_1a - x_2b)."""

    @staticmethod
    def frame_of(a, b):
        (t_a, x_a), (t_b, x_b) = a, b
        v = (t_a - t_b) / (x_a - x_b)
        return v, frames.boost_times(np.array([t_a, t_b]), np.array([x_a, x_b]), v)

    def test_equal_times_give_zero(self):
        v, tb = self.frame_of((0.0, 0.0), (0.0, 15.0))
        assert v == 0.0 and tb[0] == tb[1]

    def test_formula(self):
        # t_a - t_b = 1, x_1a - x_2b = 5 -> v' = 0.2
        v, tb = self.frame_of((1.0, 6.0), (0.0, 1.0))
        assert v == pytest.approx(0.2)
        assert tb[1] == pytest.approx(tb[0], abs=1e-14)

    def test_wide_separation_small_velocity(self):
        # short |t_a - t_b| over a wide particle separation: the frame
        # velocity is far below c
        v, tb = self.frame_of((0.01, 0.0), (0.0, 1e4 + 50.0))
        assert abs(v) < 1e-5
        assert tb[1] == pytest.approx(tb[0], abs=1e-12)

    def test_superluminal_rejected(self):
        with pytest.raises(SuperluminalFrameError):
            self.frame_of((1.0, 0.0), (0.0, 0.5))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


events = st.lists(st.tuples(coords, coords), min_size=1, max_size=20)


class TestEventArrays:
    """An Event of arrays goes through the same formula as each of its
    elements on its own."""

    @given(events, betas)
    @settings(max_examples=200, deadline=None)
    def test_lorentz_matches_scalar_calls(self, pairs, v):
        t, x = np.array(pairs).T
        out = frames.lorentz_transform(frames.Event(t, x), v)
        one = [frames.lorentz_transform(frames.Event(*pair), v) for pair in pairs]
        assert bits(out.t) == bits([e.t for e in one])
        assert bits(out.x) == bits([e.x for e in one])

    @given(events, betas, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_edwards_winnie_matches_scalar_calls(self, pairs, v, k, k_prime):
        t, x = np.array(pairs).T
        p = frames.SynchronyParams(v=v, k=k, k_prime=k_prime)
        try:
            one = [frames.edwards_winnie_transform(frames.Event(*pair), p) for pair in pairs]
        except ContractViolation:  # eta is not real; that does not depend on the event
            with pytest.raises(ContractViolation, match="eta is not real"):
                frames.edwards_winnie_transform(frames.Event(t, x), p)
            return
        out = frames.edwards_winnie_transform(frames.Event(t, x), p)
        assert bits(out.t) == bits([e.t for e in one])
        assert bits(out.x) == bits([e.x for e in one])

    @given(events, events, betas)
    @settings(max_examples=200, deadline=None)
    def test_interval_matches_scalar_calls(self, first, second, v):
        n = min(len(first), len(second))
        (t1, x1), (t2, x2) = np.array(first[:n]).T, np.array(second[:n]).T
        e1 = frames.lorentz_transform(frames.Event(t1, x1), v)
        e2 = frames.lorentz_transform(frames.Event(t2, x2), v)
        out = frames.interval(e1, e2)
        one = [frames.interval(frames.Event(*a), frames.Event(*b))
               for a, b in zip(zip(e1.t, e1.x), zip(e2.t, e2.x))]
        # numpy squares arrays and scalars by different routines: a few ulps
        scale = (e2.t - e1.t) ** 2 + (e2.x - e1.x) ** 2
        assert np.all(np.abs(out - one) <= 4 * np.finfo(float).eps * scale)

    def test_superluminal_array_velocity_rejected(self):
        e = frames.Event(np.zeros(3), np.ones(3))
        for v in (np.array([0.1, -1.0, 0.5]), np.array([0.2, 0.3, 1.2])):
            with pytest.raises(SuperluminalFrameError, match=f"= {np.max(np.abs(v)):g} is not below c"):
                frames.lorentz_transform(e, v)
            with pytest.raises(SuperluminalFrameError):
                frames.SynchronyParams(v=v)
        with pytest.raises(SuperluminalFrameError):
            frames.boost_times(np.zeros(2), np.zeros(2), np.array([0.5, np.nextafter(1.0, 2.0)]))

    def test_array_checks(self):
        with pytest.raises(ContractViolation):
            frames.Event(np.array([0.0, np.inf]), np.zeros(2))


def match_reference(times_a, times_b, tol):
    """The two-candidate loop that _match_sorted replaced: the neighbour
    before, then the one after where it is strictly nearer."""
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


SPECIAL_TIMES = [-np.inf, np.inf, np.nan, 0.0, 0.5, 1.0, 1.0, 2.0]
match_times = st.one_of(st.sampled_from(SPECIAL_TIMES), st.floats(-3.0, 3.0),
                        st.integers(-3, 3).map(float))


class TestMatchSorted:
    @pytest.mark.parametrize("times_a, times_b, tol, want", [
        # a tie goes to the earlier partner, also inside a run of equal times
        ([1.0, 2.0], [0.0, 2.0, 2.0, 4.0], 1.0, [0, 1]),
        ([3.0], [2.0, 2.0, 4.0, 4.0], 1.0, [1]),
        # a distance of exactly tol pairs, one ulp more does not
        ([0.5, np.nextafter(0.5, 1.0)], [0.0], 0.5, [0, -1]),
        # one-element times_b, on either side
        ([-1.0, 0.0, 1.0, 5.0], [0.25], 1.0, [-1, 0, 0, -1]),
        # infinite and NaN times: a NaN or infinite distance pairs with nothing
        ([-np.inf, np.inf, np.nan, 0.0], [0.0, 1.0], 0.5, [-1, -1, -1, 0]),
        ([-np.inf, np.inf, np.nan, 0.2], [-np.inf, 0.0, np.inf, np.nan], 0.5,
         [-1, -1, -1, 1]),
        ([np.nan, 1.0], [np.nan], 0.5, [-1, -1]),
    ], ids=["tie", "tie-in-runs", "tol-exact", "one-element", "nonfinite-a",
            "nonfinite-both", "nan-only"])
    def test_pinned_cases_equal_the_loop(self, times_a, times_b, tol, want):
        a, b = np.array(times_a), np.array(times_b)
        with np.errstate(invalid="ignore"):  # inf - inf
            got, ref = frames._match_sorted(a, b, tol), match_reference(a, b, tol)
        assert got.dtype == np.int64
        assert got.tolist() == want == ref.tolist()

    @given(st.lists(match_times, max_size=30), st.lists(match_times, min_size=1, max_size=30),
           st.sampled_from([0.0, 0.25, 0.5, 1.0, 10.0]))
    @settings(max_examples=300, deadline=None)
    @example([0.5, 1.5], [0.0, 1.0, 2.0], 0.5)
    def test_equals_the_loop(self, times_a, times_b, tol):
        a, b = np.array(times_a), np.sort(times_b)
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.array_equal(frames._match_sorted(a, b, tol), match_reference(a, b, tol))


def make_pair_trajectory(a_sq=0.5, n=50_000, seed=3):
    spec = [(a_sq, (0.0, 50.0), (10_000.0, 10_050.0)),
            (1.0 - a_sq, (50.0, 100.0), (10_050.0, 10_100.0))]
    return rdm.sample_entangled_stays(spec, n, seed=seed)


class TestBoostedCorrelation:
    def test_home_frame_exactly_kept(self):
        traj = make_pair_trajectory()
        out = frames.boosted_correlation_stats(traj, 0.0)
        assert out["reversed_fraction"] == 0.0
        assert out["kept_fraction"] == 1.0
        assert out["pairs"] == traj.instants

    def test_fractions_sum_to_one(self):
        traj = make_pair_trajectory()
        out = frames.boosted_correlation_stats(traj, 0.4)
        assert out["kept_fraction"] + out["reversed_fraction"] == 1.0

    @pytest.mark.parametrize("a_sq", [0.5, 0.9])
    def test_reversed_fraction_matches_iid(self, a_sq):
        traj = make_pair_trajectory(a_sq=a_sq, n=100_000, seed=4)
        out = frames.boosted_correlation_stats(traj, 0.5)
        expect = 2 * a_sq * (1 - a_sq)
        sigma = np.sqrt(expect * (1 - expect) / out["pairs"])
        assert abs(out["reversed_fraction"] - expect) <= 3 * sigma

    def test_insufficient_overlap(self):
        # at v = 0.5 particle 2, 1000 away, is boosted 500 gamma earlier:
        # far beyond the 0.5 gamma tolerance of every instant
        traj = rdm.PairedStayTrajectory(np.zeros(100), np.zeros(100), np.full(100, 1000.0))
        with pytest.raises(InsufficientOverlapError):
            frames.boosted_correlation_stats(traj, 0.5)

    @pytest.mark.parametrize("v", [0.0, 0.5, -0.9])
    def test_tolerance_is_half_the_boosted_spacing(self, v):
        traj = rdm.PairedStayTrajectory(np.zeros(10), np.zeros(10), np.zeros(10))
        out = frames.boosted_correlation_stats(traj, v)
        assert out["tolerance"] == 0.5 / np.sqrt(1.0 - v**2)
        assert out["pairs"] == 10


def _brute_appearance_count(traj, positions, v, tol):
    """Every pair of distinct instants, checked one by one: boosted times
    within tol (|a - b| is the later minus the earlier, exactly) and
    boosted positions different."""
    t = traj.dt_instant * np.arange(traj.instants)
    tb = frames.boost_times(t, positions, v)
    xb = frames.boost_positions(t, positions, v)
    later = np.triu(np.ones((t.size, t.size), dtype=bool), 1)
    close = np.abs(tb[:, None] - tb[None, :]) <= tol
    return int(np.sum(later & close & (xb[:, None] != xb[None, :])))


@st.composite
def scan_inputs(draw):
    """Stays of up to 200 instants with positions that repeat (stay sites),
    that put boosted times on a lattice of half the boosted spacing (exact
    ties, and partners sitting on the tolerance up to a rounding), or that
    spread freely; tolerance 0, half the boosted spacing, inf or the
    boosted-time gap of two of the instants."""
    n = draw(st.integers(0, 200))
    dt = draw(st.sampled_from([1.0, 0.25, 0.1]))
    v = draw(st.sampled_from([0.0, 0.3, -0.3, 0.9, 0.5]))
    sites = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=int)
    traj = rdm.StayTrajectory(sites, 4, dt_instant=dt)
    t = dt * np.arange(n)
    kind = draw(st.sampled_from(["sites", "lattice", "spread"]))
    if kind == "lattice" and v != 0.0:
        positions = (t - 0.5 * dt * sites) / v
    elif kind == "spread":
        positions = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    else:
        positions = draw(st.sampled_from([1.0, 10.0])) * sites
    tol = draw(st.sampled_from([0.0, 0.5 * dt / np.sqrt(1.0 - v**2), np.inf, "pair"]))
    if tol == "pair":  # some partners sit on the tolerance up to a rounding
        tb = frames.boost_times(t, positions, v)
        tol = abs(tb[draw(st.integers(0, max(n - 1, 0)))] - tb[0]) if n else 0.0
    return traj, positions, v, tol


class TestMultiparticleScan:
    def test_home_frame_zero(self):
        traj = rdm.sample_stays([0.25, 0.25, 0.25, 0.25], 2000, seed=5)
        positions = traj.stays * 10.0
        assert frames.multiparticle_appearance_scan(traj, positions, 0.0) == 0

    def test_constructed_coincidence_found(self):
        # choose the boost that makes stays 10 and 20 simultaneous
        traj = rdm.sample_stays([0.5, 0.5], 100, seed=6)
        positions = 100.0 * traj.stays + 5.0
        t = traj.dt_instant * np.arange(traj.instants)
        i, j = 10, 20
        while positions[i] == positions[j]:
            j += 1
        v = (t[j] - t[i]) / (positions[j] - positions[i])
        count = frames.multiparticle_appearance_scan(traj, positions, v,
                                                     coincidence_tol=1e-9)
        assert count >= 1

    def test_count_vanishes_with_tolerance(self):
        traj = rdm.sample_stays([0.5, 0.5], 5000, seed=7)
        positions = 3.0 * traj.stays + 0.1 * np.arange(traj.instants)
        v = 0.3
        counts = [frames.multiparticle_appearance_scan(traj, positions, v,
                                                       coincidence_tol=tol)
                  for tol in (0.5, 0.05, 1e-12)]
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[2] == 0

    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    def test_equals_brute_force_count(self, inputs):
        traj, positions, v, tol = inputs
        assert (frames.multiparticle_appearance_scan(traj, positions, v, coincidence_tol=tol)
                == _brute_appearance_count(traj, positions, v, tol))

    @pytest.mark.parametrize("tol", [0.0, 0.5 / np.sqrt(0.75), 1.0 / np.sqrt(0.75), np.inf])
    def test_exact_ties_in_boosted_time(self, tol):
        # at v = 0.5 the boosted time of x = 2 (t - T) is gamma T exactly,
        # so instants sharing T tie and the lattice spacing sits on tol
        traj = rdm.sample_stays([0.25, 0.25, 0.25, 0.25], 200, seed=11)
        t = np.arange(traj.instants, dtype=float)
        positions = 2.0 * (t - 0.5 * traj.stays)
        tb = frames.boost_times(t, positions, 0.5)
        assert np.unique(tb).size == 4
        assert (frames.multiparticle_appearance_scan(traj, positions, 0.5, coincidence_tol=tol)
                == _brute_appearance_count(traj, positions, 0.5, tol))

    def test_window_end_is_the_exact_difference(self):
        # tb[0] + tol rounds below tb[1] although tb[1] - tb[0] is tol
        traj = rdm.StayTrajectory(np.array([0, 1]), 2)
        positions = np.array([12.5, 0.5])
        tb = frames.boost_times(np.arange(2.0), positions, 0.9)
        tol = tb[1] - tb[0]
        assert tb[0] + tol < tb[1]
        assert frames.multiparticle_appearance_scan(traj, positions, 0.9,
                                                    coincidence_tol=tol) == 1

    def test_infinite_tolerance_counts_every_pair(self):
        traj = rdm.sample_stays([0.25, 0.25, 0.25, 0.25], 20_000, seed=9)
        n, sizes = traj.instants, np.bincount(traj.stays)
        count = frames.multiparticle_appearance_scan(traj, 10.0 * traj.stays, 0.0,
                                                     coincidence_tol=np.inf)
        assert count == n * (n - 1) // 2 - int(np.sum(sizes * (sizes - 1) // 2))

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_tolerance(self, tol):
        traj = rdm.sample_stays([0.5, 0.5], 100, seed=8)
        with pytest.raises(ContractViolation):
            frames.multiparticle_appearance_scan(traj, 10.0 * traj.stays, 0.3,
                                                 coincidence_tol=tol)

    def test_nonfinite_positions_rejected(self):
        traj = rdm.sample_stays([0.5, 0.5], 10, seed=8)
        positions = np.zeros(10)
        positions[3] = np.nan
        with pytest.raises(ContractViolation):
            frames.multiparticle_appearance_scan(traj, positions, 0.3)

    def test_position_shape_checked(self):
        traj = rdm.sample_stays([1.0], 10, seed=8)
        with pytest.raises(ContractViolation):
            frames.multiparticle_appearance_scan(traj, np.zeros(5), 0.1)


class TestEventValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            frames.Event(np.nan, 0.0)

    def test_synchrony_bounds(self):
        with pytest.raises(ContractViolation):
            frames.SynchronyParams(v=0.1, k=1.5)
        with pytest.raises(SuperluminalFrameError):
            frames.SynchronyParams(v=1.0)
