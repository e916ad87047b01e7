import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmsim import schrodinger as sch
from rdmsim.errors import (
    ContractViolation,
    DimensionMismatchError,
    NormalizationError,
    NumericFailure,
    PhaseAmbiguityError,
    StepSizeError,
)


def gaussian(n=512, length=40.0, sigma=1.0, momentum=0.0, center=0.0):
    return sch.GridWavefunction.gaussian(-length / 2, length / n, n,
                                         center=center, sigma=sigma,
                                         momentum=momentum)


def continuity_residual(psi_series, dt):
    """max |d_t rho + d_x j| over interior time points, all grid points.

    Both derivatives are centered differences; for a valid unitary
    evolution the residual vanishes at second order in (dx, dt).
    """
    dx = psi_series[0].dx
    rho = np.array([sch.position_density(p) for p in psi_series])
    j = np.array([sch.flux_density(p) for p in psi_series])
    drho_dt = (rho[2:] - rho[:-2]) / (2.0 * dt)
    dj_dx = (np.roll(j[1:-1], -1, axis=1) - np.roll(j[1:-1], 1, axis=1)) / (2.0 * dx)
    return float(np.max(np.abs(drho_dt + dj_dx)))


def mean_momentum(psi):
    """<p> via the spectral representation."""
    w = np.abs(np.fft.fft(psi.samples)) ** 2
    return float(np.sum(psi.momentum_grid() * w) / np.sum(w))


class TestGridInvariants:
    def test_rejects_odd_count(self):
        with pytest.raises(DimensionMismatchError):
            sch.GridWavefunction(0.0, 0.1, np.ones(9) / 3.0)

    def test_rejects_nan_spacing(self):
        with pytest.raises(DimensionMismatchError):
            sch.GridWavefunction(0.0, np.nan, np.ones(16))

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            sch.GridWavefunction(0.0, 0.1, np.ones(16))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kw", [{"dx": 0.0}, {"dx": -0.1}, {"dx": np.nan}])
    def test_gaussian_rejects_scales_before_sampling(self, kw):
        args = {"x0": -5.0, "dx": 0.1, "n": 64, "center": 0.0, "sigma": 1.0,
                "momentum": 1.0, **kw}
        with pytest.raises(DimensionMismatchError) as exc:
            sch.GridWavefunction.gaussian(**args)
        assert str(exc.value) == f"dx must be positive, not {kw['dx']}"

    def test_gaussian_normalized(self):
        g = gaussian()
        assert abs(g.dx * np.sum(np.abs(g.samples) ** 2) - 1.0) < 1e-12


class TestEvolveGrid:
    def test_zero_steps_identity(self):
        g = gaussian()
        out = sch.evolve_grid(g, None, 0.01, 0)
        assert out is g

    def test_plane_wave_phase_only(self):
        n, length = 256, 2 * np.pi * 8
        dx = length / n
        p = 2 * np.pi * 3 / length  # grid-periodic momentum
        x = -length / 2 + dx * np.arange(n)
        psi = np.exp(1j * p * x)
        psi /= np.sqrt(dx * np.sum(np.abs(psi) ** 2))
        g = sch.GridWavefunction(-length / 2, dx, psi)
        t = 0.7
        out = sch.evolve_grid(g, None, t / 50, 50)
        expected = g.samples * np.exp(-1j * p**2 * t / 2.0)
        assert np.max(np.abs(out.samples - expected)) < 1e-10
        assert np.max(np.abs(np.abs(out.samples) - np.abs(g.samples))) < 1e-12

    def test_norm_preserved_per_step(self):
        g = gaussian(momentum=1.0)
        v = 0.4 * np.sin(2 * np.pi * g.x / g.length)
        cur = g
        for _ in range(20):
            cur = sch.evolve_grid(cur, v, 0.02, 1)
            norm = cur.dx * np.sum(np.abs(cur.samples) ** 2)
            assert abs(norm - 1.0) < 1e-10

    def test_width_doubling_time(self):
        # free spreading: sigma(t) = sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2),
        # so the RMS width doubles at t = 2 sqrt(3) m sigma0^2 / hbar
        g = gaussian(n=2048, length=80.0, sigma=1.0)
        t = 2.0 * np.sqrt(3.0)
        out = sch.evolve_grid(g, None, t / 200, 200)
        ratio = sch.rms_width(out) / sch.rms_width(g)
        assert ratio == pytest.approx(2.0, rel=0.02)

    def test_step_guard(self):
        g = gaussian()
        v = np.full(g.n, 10.0)
        with pytest.raises(StepSizeError, match=r"^max\|V\|\*dt = 1 must stay below 0\.5$"):
            sch.evolve_grid(g, v, 0.1, 1)

    @pytest.mark.parametrize("v, dt, value", [
        (np.full(64, np.nan), 0.01, "nan"),  # NaN fails max|V|*dt >= 0.5 too
        (np.r_[np.inf, np.zeros(63)], 0.0, "inf"),  # inf * 0 is NaN
    ], ids=["nan", "inf-at-dt-0"])
    def test_non_finite_potential_rejected(self, v, dt, value):
        # named before step 0, not left to the per-step NaN check
        with pytest.raises(ContractViolation, match=f"^potential v must be finite, not {value}$"):
            sch.evolve_grid(gaussian(n=64), v, dt, 3)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_non_finite_dt_rejected(self, dt):
        # before any phase is built, so no numpy warning is emitted
        with pytest.raises(ContractViolation, match=f"^dt must be finite, not {dt}$"):
            sch.evolve_grid(gaussian(), None, dt, 3)

    @pytest.mark.parametrize("dt", [1e308, np.float64(1e308)], ids=["float", "float64"])
    def test_overflowing_kinetic_phase_names_dt(self, dt):
        # p_max^2 dt / 2 overflows; no numpy warning, and no step is taken
        with pytest.raises(NumericFailure, match=r"^dt = 1e\+308 overflows the kinetic") as exc:
            sch.evolve_grid(gaussian(), None, dt, 3)
        assert exc.value.step is None

    def test_momentum_conserved_free(self):
        g = gaussian(momentum=1.5)
        out = sch.evolve_grid(g, None, 0.05, 100)
        assert mean_momentum(out) == pytest.approx(1.5, abs=1e-8)

    def test_norm_drift_over_ten_thousand_steps(self):
        g = gaussian(n=256, sigma=2.0, momentum=0.5)
        v = 0.3 * np.cos(2 * np.pi * g.x / g.length)
        drift = 0.0
        for _ in range(100):
            g = sch.evolve_grid(g, v, 0.01, 100)
            drift = max(drift, abs(g.dx * np.sum(np.abs(g.samples) ** 2) - 1.0))
        assert drift < 1e-7


class TestEvolveGridProperties:
    @given(n=st.sampled_from([16, 64, 256, 1024]), dx=st.floats(0.05, 1.0),
           width=st.floats(0.02, 0.2), momentum=st.floats(-3.0, 3.0), dt=st.floats(1e-3, 1.0),
           v_max=st.floats(0.0, 0.49), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_norm_conserved_to_rounding(self, n, dx, width, momentum, dt, v_max, seed, steps):
        # every factor of a step is a pure phase: only the FFTs round
        g = sch.GridWavefunction.gaussian(0.0, dx, n, n * dx / 2, width * n * dx, momentum)
        v = v_max / dt * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        out = sch.evolve_grid(g, v, dt, steps)
        before, after = (g.dx * np.sum(np.abs(s.samples) ** 2) for s in (g, out))
        assert abs(after - before) <= 8 * steps * np.log2(n) * np.finfo(float).eps

    @given(sigma=st.floats(0.5, 2.0), momentum=st.floats(-2.0, 2.0),
           spread=st.floats(0.0, 2.0), steps=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_free_width_law(self, sigma, momentum, spread, steps):
        # sigma(t) = sigma sqrt(1 + (t / 2 sigma^2)^2), here at t = 2 sigma^2 spread;
        # the box holds the moving packet 12 widths clear of its edges
        t = 2.0 * sigma**2 * spread
        width = sigma * np.sqrt(1.0 + spread**2)
        dx = sigma / 8
        n = 2 * int(np.ceil((12.0 * width + abs(momentum) * t) / dx))
        g = sch.GridWavefunction.gaussian(0.0, dx, n, n * dx / 2 - momentum * t / 2, sigma,
                                          momentum)
        out = sch.evolve_grid(g, None, t / steps, steps)
        assert abs(sch.rms_width(out) / width - 1.0) <= 1e-12

class TestDensities:
    def test_real_state_zero_flux(self):
        g = gaussian()
        assert np.max(np.abs(sch.flux_density(g))) < 1e-12

    def test_plane_wave_uniform(self):
        n, length = 64, 2 * np.pi * 4
        dx = length / n
        p = 2 * np.pi * 2 / length
        x = dx * np.arange(n)
        psi = np.exp(1j * p * x) / np.sqrt(length)
        g = sch.GridWavefunction(0.0, dx, psi)
        rho = sch.position_density(g)
        j = sch.flux_density(g)
        assert np.allclose(rho, 1.0 / length, atol=1e-12)
        # centered difference of e^{ipx} gives sin(p dx)/dx instead of p
        p_eff = np.sin(p * dx) / dx
        assert np.allclose(j, p_eff / length, atol=1e-12)

    def test_charge_balance_with_momentum(self):
        # total flux = <p>/m; the centered stencil's O(dx^2) bias must be
        # pushed below 1e-8, hence the fine grid
        g = gaussian(n=65536, length=20.0, momentum=0.5)
        total_flux = g.dx * np.sum(sch.flux_density(g))
        assert total_flux == pytest.approx(mean_momentum(g), abs=1e-8)


class TestContinuity:
    def test_stationary_plane_wave(self):
        n, length = 64, 2 * np.pi * 4
        dx = length / n
        p = 2 * np.pi * 2 / length
        x = dx * np.arange(n)
        psi = np.exp(1j * p * x) / np.sqrt(length)
        g = sch.GridWavefunction(0.0, dx, psi)
        frames_list = [g, sch.evolve_grid(g, None, 0.01, 1),
                       sch.evolve_grid(g, None, 0.01, 2)]
        assert continuity_residual(frames_list, 0.01) < 1e-10

    def test_second_order_convergence(self):
        def residual(n, dt):
            g = gaussian(n=n, length=40.0, sigma=1.5, momentum=0.6)
            series = [g]
            for _ in range(2):
                series.append(sch.evolve_grid(series[-1], None, dt, 1))
            return continuity_residual(series, dt)

        coarse = residual(512, 0.02)
        fine = residual(1024, 0.01)
        assert coarse / fine > 3.0  # ~4x for second order

    def test_corrupted_series_flagged(self):
        g = gaussian(n=1024, momentum=1.0)
        frames_list = [g, sch.evolve_grid(g, None, 0.01, 1),
                       sch.evolve_grid(g, None, 0.01, 2)]
        clean = continuity_residual(frames_list, 0.01)
        # swap in a frame from the wrong time: the series is inconsistent
        corrupted = [frames_list[0], gaussian(n=1024, momentum=1.0, center=2.0),
                     frames_list[2]]
        assert continuity_residual(corrupted, 0.01) > 100 * max(clean, 1e-12)


class TestReconstruction:
    def test_zero_flux_gives_real_state(self):
        g = gaussian(n=1024, sigma=1.2)
        pair = sch.DensityPair(g.x0, g.dx, sch.position_density(g),
                               np.zeros(g.n))
        rec = sch.reconstruct_wavefunction(pair)
        assert np.max(np.abs(rec.samples.imag)) < 1e-12
        assert np.min(rec.samples.real) >= 0.0

    def test_round_trip_boosted_gaussian(self):
        g = sch.GridWavefunction.gaussian(-8.0, 16.0 / 32768, 32768,
                                          center=0.3, sigma=0.8, momentum=0.1)
        pair = sch.DensityPair(g.x0, g.dx, sch.position_density(g),
                               sch.flux_density(g))
        rec = sch.reconstruct_wavefunction(pair)
        assert np.max(np.abs(sch.position_density(rec) - pair.rho)) < 1e-8
        assert np.max(np.abs(sch.flux_density(rec) - pair.j)) < 1e-8
        # L2 distance to the truth up to the fixed global phase
        phase = np.vdot(rec.samples, g.samples)
        phase /= abs(phase)
        err = np.sqrt(g.dx * np.sum(np.abs(g.samples - phase * rec.samples) ** 2))
        assert err < 1e-8

    def test_node_raises(self):
        # first excited box-like state: density node at the center
        n, length = 1024, 16.0
        dx = length / n
        x = -length / 2 + dx * np.arange(n)
        psi = x * np.exp(-x**2 / 2.0)
        psi = psi / np.sqrt(dx * np.sum(np.abs(psi) ** 2))
        g = sch.GridWavefunction(-length / 2, dx, psi)
        pair = sch.DensityPair(g.x0, g.dx, sch.position_density(g),
                               sch.flux_density(g))
        with pytest.raises(PhaseAmbiguityError):
            sch.reconstruct_wavefunction(pair)

    def test_random_nodeless_round_trips(self):
        rng = np.random.Generator(np.random.PCG64(9))
        n, length = 65536, 16.0
        x = -length / 2 + (length / n) * np.arange(n)
        for _ in range(100):
            rho = np.exp(-((x - rng.uniform(-1.5, 1.5)) ** 2)
                         / (2 * rng.uniform(0.7, 1.0) ** 2))
            rho /= np.sum(rho) * (length / n)
            v = rng.uniform(-0.1, 0.1) + rng.uniform(0.05, 0.15) * np.sin(
                2 * np.pi * x / length)
            pair = sch.DensityPair(-length / 2, length / n, rho, rho * v)
            rec = sch.reconstruct_wavefunction(pair)
            assert np.max(np.abs(sch.position_density(rec) - rho)) < 1e-8
            assert np.max(np.abs(sch.flux_density(rec) - pair.j)) < 1e-8


def brute_force_runs(mask):
    """Contiguous True runs of mask as (start, stop), one element at a time."""
    runs, start = [], None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


@given(st.lists(st.booleans(), max_size=64))
@settings(max_examples=300, deadline=None)
def test_support_runs_match_brute_force(flags):
    mask = np.array(flags, dtype=bool)
    assert sch._support_runs(mask) == brute_force_runs(flags)


class TestDispersion:
    def test_zero_momentum_exact(self):
        assert sch.dispersion_check(0.0) == 0.0

    def test_second_order(self):
        r1 = sch.dispersion_check(2.0, n_samples=128)
        r2 = sch.dispersion_check(2.0, n_samples=256)
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_wrong_dispersion_does_not_converge(self):
        # E = p^2/m instead of p^2/2m: residual saturates at E/2
        def wrong_residual(n):
            p, m = 2.0, 1.0
            length = 2 * np.pi
            dx = length / n
            x = dx * np.arange(n)
            psi = np.exp(1j * p * x)
            e_wrong = p**2 / m
            d2 = (np.roll(psi, -1) - 2 * psi + np.roll(psi, 1)) / dx**2
            return float(np.max(np.abs(e_wrong * psi + d2 / (2 * m))))

        assert wrong_residual(256) > 1.0
        assert wrong_residual(512) > 1.0

    def test_incompatible_momentum_rejected(self):
        with pytest.raises(DimensionMismatchError):
            sch.dispersion_check(0.123)
