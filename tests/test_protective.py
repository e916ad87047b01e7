import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmsim import cli, hilbert, protective, schrodinger as sch
from rdmsim.errors import (ContractViolation, DimensionMismatchError, NormalizationError,
                           PhaseAmbiguityError, PointerDomainError)


def pointer(w0=5.0, n=512, length=80.0):
    return protective.PointerState.gaussian(-length / 2, length / n, n, 0.0, w0)


def plus_state():
    return hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2))


def projector0():
    return hilbert.HermitianOperator(np.diag([1.0, 0.0]))


class TestSetupInvariants:
    def test_pointer_width_guard(self):
        with pytest.raises(ContractViolation):
            protective.PointerState.gaussian(-10, 0.5, 64, 0.0, 1.0)

    def test_requires_normalized_system(self):
        with pytest.raises(ContractViolation):
            protective.ProtectiveSetup(
                hilbert.ComplexVectorState([1.0, 1.0]), projector0(), 10, 1.0,
                pointer())

    def test_coupling_weights_integrate_to_one(self):
        for profile in ("constant", "triangular"):
            setup = protective.ProtectiveSetup(plus_state(), projector0(), 100,
                                               0.7, pointer(), g_profile=profile)
            assert abs(setup.coupling_weights().sum() - 1.0) < 1e-12

    def test_triangular_needs_even_n(self):
        setup = protective.ProtectiveSetup(plus_state(), projector0(), 101,
                                           1.0, pointer(), g_profile="triangular")
        with pytest.raises(ContractViolation):
            setup.coupling_weights()

    @pytest.mark.parametrize("build, error, message", [
        (lambda: protective.ProtectiveSetup(plus_state(), hilbert.HermitianOperator(np.eye(3)),
                                            10, 1.0, pointer()),
         DimensionMismatchError, "system state dim 2 != observable dim 3"),
        (lambda: protective.ProtectiveSetup(hilbert.ComplexVectorState([1.0, 1.0]),
                                            projector0(), 10, 1.0, pointer()),
         NormalizationError, "state must be normalized, not of norm^2 2"),
        (lambda: protective.ProtectiveSetup(plus_state(), projector0(), 0, 1.0, pointer()),
         ContractViolation, "n_projections must be >= 1, not 0"),
        (lambda: protective.ProtectiveSetup(plus_state(), projector0(), 10, np.nan, pointer()),
         ContractViolation, "tau must be positive and finite, not nan"),
        (lambda: protective.ProtectiveSetup(plus_state(), projector0(), 10, -1.0, pointer()),
         ContractViolation, "tau must be positive and finite, not -1.0"),
        (lambda: protective.ProtectiveSetup(plus_state(), projector0(), 10, 1.0, pointer(),
                                            g_profile="square"),
         ContractViolation, "unknown g profile 'square'"),
        (lambda: protective.ProtectiveSetup(plus_state(), projector0(), 101, 1.0, pointer(),
                                            g_profile="triangular").coupling_weights(),
         ContractViolation, "triangular profile needs an even N, not 101"),
        # tau / N is subnormal, so each impulse keeps only ~10 significant digits
        (lambda: protective.ProtectiveSetup(plus_state(), projector0(), 100_000, 6e-309,
                                            pointer()).coupling_weights(),
         ContractViolation, "discretized coupling integrates to 0.99999999996388078, not 1"),
        (lambda: protective.PointerState.gaussian(-10.0, 0.5, 64, 0.0, 1.0),
         ContractViolation, "pointer width w0 = 1.0 is below 4 grid spacings"),
        (lambda: protective.PointerState.gaussian(-10.0, 0.5, 64, 0.0, -1.0),
         ContractViolation, "pointer width w0 must be positive, not -1.0"),
        (lambda: protective.zeno_protective_run(protective.ProtectiveSetup(
            plus_state(), hilbert.HermitianOperator(np.diag([100.0, 0.0])), 1, 1.0, pointer())),
         PointerDomainError,
         "pointer shift 100 leaves the grid (allowed center range [-20, 20])"),
    ], ids=["dims", "unnormalized", "n-zero", "tau-nan", "tau-negative", "g-profile",
            "triangular-odd-n", "coupling-sum", "pointer-narrow", "pointer-negative",
            "shift-leaves-grid"])
    def test_guard_messages(self, build, error, message):
        # every Zeno guard names the value it rejects
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message


def _zeno_reference(setup):
    """The Zeno run written as N kicks, each followed by a projection and a
    renormalisation, with the survival as the product of the kept norms."""
    evals, evecs = np.linalg.eigh(setup.observable.matrix)
    weights = np.abs(evecs.conj().T @ setup.system.amplitudes) ** 2
    grid = setup.pointer.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    phi_hat = np.fft.fft(grid.samples)
    survival = 1.0
    for eps in setup.coupling_weights():
        mixer = np.zeros_like(phi_hat)
        for a, w in zip(evals, weights):
            if w == 0.0:
                continue
            mixer = mixer + w * np.exp(-1j * k * eps * a)
        phi_hat = mixer * phi_hat
        norm_sq = float(np.sum(np.abs(phi_hat) ** 2) * grid.dx / grid.n)
        survival *= norm_sq
        phi_hat /= np.sqrt(norm_sq)
    final = protective.PointerState(grid.with_samples(np.fft.ifft(phi_hat)),
                                    setup.pointer.x0, setup.pointer.w0)
    return {"pointer_shift": final.mean_position() - setup.pointer.x0,
            "survival_probability": survival,
            "width_ratio": final.width() / setup.pointer.w0}


def _zeno_per_impulse_reference(setup):
    """The Zeno product on the full spectrum, one distinct impulse at a
    time: M(eps) = sum_a w_a e^{-i k eps a} over every k, raised to the
    impulse's multiplicity and multiplied in, in ascending eps."""
    evals, evecs = np.linalg.eigh(setup.observable.matrix)
    weights = np.abs(evecs.conj().T @ setup.system.amplitudes) ** 2
    grid = setup.pointer.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    phi_hat = np.fft.fft(grid.samples)
    terms = [(a, w) for a, w in zip(evals, weights) if w != 0.0]
    for eps, count in zip(*np.unique(setup.coupling_weights(), return_counts=True)):
        mixer = np.zeros_like(phi_hat)
        for a, w in terms:
            mixer = mixer + w * np.exp(-1j * k * eps * a)
        phi_hat *= mixer**count
    survival = float(np.sum(np.abs(phi_hat) ** 2) * grid.dx / grid.n)
    return np.fft.ifft(phi_hat / np.sqrt(survival)), survival


@st.composite
def zeno_setups(draw):
    """Diagonal observables with 2-3 eigenvalues in [-3, 3], at least one
    negative, optionally a component of zero weight; pointer grids of
    n = 64..514 points (n // 2 odd and even), even N <= 2000."""
    dim = draw(st.integers(2, 3))
    evals = [draw(st.floats(-3.0, -0.01))] + [draw(st.floats(-3.0, 3.0))
                                             for _ in range(dim - 1)]
    amps = np.array([draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
                     for _ in range(dim)])
    zero = draw(st.sampled_from([None] + list(range(dim))))
    if zero is not None:
        amps[zero] = 0.0
    n = 2 * draw(st.integers(32, 257))
    return protective.ProtectiveSetup(
        hilbert.ComplexVectorState(amps / np.linalg.norm(amps)),
        hilbert.HermitianOperator(np.diag(evals)), 2 * draw(st.integers(1, 1000)), 1.0,
        pointer(w0=8.0, length=120.0, n=n),
        g_profile=draw(st.sampled_from(protective.G_PROFILES)))


def _zeno_example(evals, n_projections, profile, pointer_state):
    """The state (1, 1, ...) / sqrt(dim) on diag(evals)."""
    dim = len(evals)
    return protective.ProtectiveSetup(
        hilbert.ComplexVectorState(np.ones(dim) / np.sqrt(dim)),
        hilbert.HermitianOperator(np.diag(evals)), n_projections, 1.0, pointer_state,
        g_profile=profile)


# 511 distinct impulses on the 512-point pointer, whose blocks hold 255 rows
BLOCK_BOUNDARY = _zeno_example([1.0, -0.5], 628, "triangular", pointer())


class TestZenoRun:
    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           half_n=st.integers(1, 200), profile=st.sampled_from(protective.G_PROFILES))
    def test_product_matches_projection_loop(self, dim, seed, half_n, profile):
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        setup = protective.ProtectiveSetup(
            hilbert.ComplexVectorState(v / np.linalg.norm(v)),
            hilbert.HermitianOperator((m + m.conj().T) / 4), 2 * half_n, 1.0,
            pointer(w0=6.0, length=120.0, n=256), g_profile=profile)
        out = protective.zeno_protective_run(setup)
        for key, value in _zeno_reference(setup).items():
            assert abs(out[key] - value) <= 1e-10, key

    @settings(max_examples=30, deadline=None)
    @given(setup=zeno_setups())
    # eigh sorts diag(1, 0) to a zero eigenvalue first; n // 2 even
    @example(setup=_zeno_example([1.0, 0.0], 40, "triangular", pointer(8.0, 64, 120.0)))
    # a zero eigenvalue after a negative one; the power goes through cpow; n // 2 odd
    @example(setup=_zeno_example([-1.0, 0.0], 200, "constant", pointer(8.0, 66, 120.0)))
    # no zero eigenvalue, with and without cpow; n // 2 odd and even
    @example(setup=_zeno_example([0.5, -0.25], 400, "triangular", pointer(8.0, 130, 120.0)))
    @example(setup=_zeno_example([2.0, 1.0], 100, "constant", pointer(8.0, 128, 120.0)))
    # the benchmark's triangular job on its 512-point pointer
    @example(setup=_zeno_example([1.0, 0.0], 10_000, "triangular", pointer()))
    # two full blocks of distinct impulses and one row
    @example(setup=BLOCK_BOUNDARY)
    def test_half_spectrum_bitwise_equal_to_full_spectrum(self, setup):
        samples, survival = _zeno_per_impulse_reference(setup)
        out = protective.zeno_protective_run(setup)
        assert out["survival_probability"] == survival
        assert np.array_equal(out["pointer"].grid.samples, samples)

    def test_block_boundary_example_ends_in_a_partial_block(self):
        rows = protective._ZENO_BLOCK_ELEMENTS // (BLOCK_BOUNDARY.pointer.grid.n // 2 + 1)
        assert np.unique(BLOCK_BOUNDARY.coupling_weights()).size == 2 * rows + 1

    def test_survival_against_extended_precision(self):
        # sum_k |phi_k|^2 cos^{2N}(k eps / 2) dx / n evaluated in 80-bit floats
        # the N = 1e4 run of the bundled sweep (scenario 05)
        p, run = cli.bundled_scenario(5)
        _, cols = run(p)
        assert cols["N"][-1] == 10_000
        assert abs(cols["survival"][-1] - 0.9999997500000942) <= 1e-11

    def test_eigenstate_exact(self):
        psi = hilbert.ComplexVectorState([1.0, 0.0])
        a = hilbert.HermitianOperator(np.diag([0.8, -0.3]))
        for n in (1, 10, 100):
            setup = protective.ProtectiveSetup(psi, a, n, 1.0, pointer())
            out = protective.zeno_protective_run(setup)
            assert out["pointer_shift"] == pytest.approx(0.8, abs=1e-9)
            assert out["survival_probability"] == pytest.approx(1.0, abs=1e-12)
            assert out["width_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_converges_to_half(self):
        setup = protective.ProtectiveSetup(plus_state(), projector0(), 10_000,
                                           1.0, pointer())
        out = protective.zeno_protective_run(setup)
        assert abs(out["pointer_shift"] - 0.5) <= 1e-3
        assert out["survival_probability"] > 0.999
        assert abs(out["width_ratio"] - 1.0) < 1e-6

    def test_survival_deficit_first_order(self):
        deficits = []
        ns = (100, 1000, 10_000)
        for n in ns:
            setup = protective.ProtectiveSetup(plus_state(), projector0(), n,
                                               1.0, pointer())
            deficits.append(1.0 - protective.zeno_protective_run(setup)
                            ["survival_probability"])
        slope = np.polyfit(np.log(ns), np.log(deficits), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_shift_error_within_first_order_envelope(self):
        # |shift(N) - <A>| <= C/N; for symmetric eigenvalue weights the
        # post-selected error collapses to the float floor
        ns = (100, 1000, 10_000)
        for n in ns:
            setup = protective.ProtectiveSetup(plus_state(), projector0(), n,
                                               1.0, pointer())
            out = protective.zeno_protective_run(setup)
            assert abs(out["pointer_shift"] - 0.5) <= 1.0 / n

    def test_random_pairs_shift_convergence(self):
        rng = np.random.Generator(np.random.PCG64(14))
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi = hilbert.ComplexVectorState(v / np.linalg.norm(v))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = hilbert.HermitianOperator((m + m.conj().T) / 4)
            target = hilbert.expectation_value(psi, a)
            setup = protective.ProtectiveSetup(psi, a, 2000, 1.0,
                                               pointer(w0=6.0, length=120.0,
                                                       n=1024))
            out = protective.zeno_protective_run(setup)
            assert abs(out["pointer_shift"] - target) <= 3.0 / 2000

    def test_triangular_profile_same_limit(self):
        setup = protective.ProtectiveSetup(plus_state(), projector0(), 2000,
                                           1.0, pointer(), g_profile="triangular")
        out = protective.zeno_protective_run(setup)
        assert abs(out["pointer_shift"] - 0.5) <= 1e-3

    def test_width_preserved(self):
        setup = protective.ProtectiveSetup(plus_state(), projector0(), 10_000,
                                           1.0, pointer())
        out = protective.zeno_protective_run(setup)
        assert abs(out["final_width"] / 5.0 - 1.0) < 1e-6

    def test_protection_failure_flagged_not_raised(self):
        # two coarse projections with a wide eigenvalue gap leak more
        # than half the norm: the run completes and flags the failure
        a = hilbert.HermitianOperator(np.diag([4.0, 0.0]))
        narrow = protective.PointerState.gaussian(-10.0, 20.0 / 256, 256,
                                                  0.0, 0.5)
        setup = protective.ProtectiveSetup(plus_state(), a, 2, 1.0, narrow)
        out = protective.zeno_protective_run(setup)
        assert out["survival_probability"] < 0.5
        assert out["protection_failed"]

    def test_shift_domain_guard(self):
        a = hilbert.HermitianOperator(np.diag([100.0, 0.0]))
        setup = protective.ProtectiveSetup(plus_state(), a, 1, 1.0, pointer())
        with pytest.raises(PointerDomainError):
            protective.zeno_protective_run(setup)


class TestRegionMeasurements:
    def test_whole_domain_density(self):
        g = sch.GridWavefunction.gaussian(-20, 40 / 256, 256, 0.0, 1.0)
        val = protective._region_means(sch.position_density(g), g.dx, 256)
        assert val == pytest.approx([1.0 / 40.0], abs=1e-12)

    def test_two_box_average(self):
        # the support splits, so tomography's reconstruction would raise
        n = 128
        rho = np.zeros(n)
        rho[:32] = 0.36 / 32
        rho[64:96] = 0.64 / 32
        g = sch.GridWavefunction(0.0, 1.0, np.sqrt(rho).astype(complex))
        # box 1 occupies 32 sites of unit length: average density |a|^2 / v1
        means = protective._region_means(sch.position_density(g), g.dx, 32)
        assert means == pytest.approx([0.36 / 32, 0.0, 0.64 / 32, 0.0])

    def test_real_state_zero_flux(self):
        g = sch.GridWavefunction.gaussian(-20, 40 / 256, 256, 0.0, 1.0)
        j = protective.tomography(g, 16)["j_measured"]
        assert np.max(np.abs(j)) == pytest.approx(0.0, abs=1e-14)


class TestTomography:
    TRUTH = sch.GridWavefunction.gaussian(-16.0, 32.0 / 4096, 4096,
                                          center=0.5, sigma=2.5, momentum=0.5)

    def test_error_small_at_256(self):
        out = protective.tomography(self.TRUTH, 256)
        assert out["l2_error"] < 1e-2

    def test_first_order_in_region_width(self):
        e = [protective.tomography(self.TRUTH, n)["l2_error"]
             for n in (256, 1024)]
        assert e[0] / e[1] == pytest.approx(4.0, rel=0.6)

    def test_exact_data_limit(self):
        # vanishing region width with exact data: feed the analytic
        # (rho, j) of a boosted Gaussian and recover it to rounding
        g = self.TRUTH
        x = g.x
        rho = np.exp(-((x - 0.5) ** 2) / (2 * 2.5**2))
        rho /= rho.sum() * g.dx
        pair = sch.DensityPair(g.x0, g.dx, rho, rho * 0.5)
        rec = sch.reconstruct_wavefunction(pair)
        truth = np.sqrt(rho) * np.exp(1j * 0.5 * (x - x[0]))
        err = np.sqrt(g.dx * np.sum(np.abs(rec.samples - truth) ** 2))
        assert err < 1e-8

    def test_dead_zone_propagates_ambiguity(self):
        # two packets separated by a region where even the block-averaged
        # density falls below the support floor: reconstruction cannot
        # carry the phase across and the error propagates out
        n, length = 4096, 64.0
        dx = length / n
        x = -length / 2 + dx * np.arange(n)
        rho = np.exp(-((x + 16) ** 2) / 2) + np.exp(-((x - 16) ** 2) / 2)
        psi = np.sqrt(rho / (rho.sum() * dx)).astype(complex)
        g = sch.GridWavefunction(-length / 2, dx, psi)
        with pytest.raises(PhaseAmbiguityError):
            protective.tomography(g, 64)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([1024, 2048, 4096]), log_regions=st.integers(4, 10),
           center=st.floats(-1.0, 1.0), sigma=st.floats(2.0, 3.0),
           momentum=st.floats(-1.0, 1.0))
    def test_region_means_bitwise_equal_to_measurements(self, n, log_regions, center,
                                                        sigma, momentum):
        # dx = 30 / n is not a power of two, so "* dx / v" rounds
        truth = sch.GridWavefunction.gaussian(-15.0, 30.0 / n, n, center=center,
                                              sigma=sigma, momentum=momentum)
        regions = 2**log_regions
        block = n // regions
        out = protective.tomography(truth, regions)
        rho, j = sch.position_density(truth), sch.flux_density(truth)
        for r in range(regions):
            sl = slice(r * block, (r + 1) * block)
            # the per-slice sum the region means were first written as
            expect_rho = float(np.sum(rho[sl]) * truth.dx / (block * truth.dx))
            expect_j = float(np.sum(j[sl]) * truth.dx / (block * truth.dx))
            assert np.all(out["rho_measured"][sl] == expect_rho)
            assert np.all(out["j_measured"][sl] == expect_j)

    def test_measured_averages_match_reconstruction(self):
        out = protective.tomography(self.TRUTH, 256)
        rec = out["reconstruction"]
        block = self.TRUTH.n // 256
        rho_rec = sch.position_density(rec)
        for r in range(0, 256, 37):
            sl = slice(r * block, (r + 1) * block)
            assert np.mean(rho_rec[sl]) == pytest.approx(
                out["rho_measured"][sl.start], rel=1e-10)
