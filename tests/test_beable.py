import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rdmsim import beable, hilbert
from rdmsim.errors import (
    ContractViolation,
    DegenerateOccupationError,
    DimensionMismatchError,
    NormalizationError,
    StepSizeError,
)
from rdmsim.rdm import StayTrajectory
from rdmsim.seeding import seeded_rng


def rand_pair(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = hilbert.HermitianOperator((m + m.conj().T) / 2)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = hilbert.ComplexVectorState(v / np.linalg.norm(v))
    return h, psi


TWO_SITE_H = hilbert.HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
TWO_SITE_PSI = hilbert.ComplexVectorState([1 / np.sqrt(2), 1j / np.sqrt(2)])


def current(h, psi):
    return beable._current(h.matrix, psi.amplitudes)


def rates(j, p):
    """The minimal rates of (J, P); their void flag must be clear."""
    t, void = beable._minimal_rates(j, p)
    assert not void
    return t


def rate_path_blocks(h, psi0, dt, steps, noise_c):
    """The (P, J, T) rows of every block the rate path yields, concatenated."""
    blocks = list(beable._rate_path(h, psi0, dt, steps, noise_c))
    return [np.concatenate([b[i] for b in blocks]) for i in range(3)]


class TestProbabilityCurrent:
    def test_real_state_real_h_zero(self):
        h = hilbert.HermitianOperator([[1.0, 0.5], [0.5, -1.0]])
        psi = hilbert.ComplexVectorState([0.6, 0.8])
        assert np.max(np.abs(current(h, psi))) == 0.0

    def test_two_site_value(self):
        # hand evaluation: J_12 = 2 Im((1/sqrt2)(-1)(i/sqrt2)) = -1
        j = current(TWO_SITE_H, TWO_SITE_PSI)
        assert j[0, 1] == pytest.approx(-1.0, abs=1e-14)
        assert j[1, 0] == pytest.approx(1.0, abs=1e-14)

    def test_eigenstate_stationary(self):
        h = hilbert.HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
        psi = hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.max(np.abs(current(h, psi))) < 1e-15

    def test_antisymmetry(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(100):
            h, psi = rand_pair(rng, int(rng.integers(2, 7)))
            j = current(h, psi)
            assert np.max(np.abs(j + j.T)) < 1e-12

    def test_continuity_against_finite_difference(self):
        # dP/dt = row sums of J, checked against a centered difference
        rng = np.random.Generator(np.random.PCG64(1))
        h, psi = rand_pair(rng, 4)
        dt = 1e-5
        u = beable.unitary_step_matrix(h, dt)
        u_inv = u.conj().T
        p_plus = np.abs(u @ psi.amplitudes) ** 2
        p_minus = np.abs(u_inv @ psi.amplitudes) ** 2
        dp_dt = (p_plus - p_minus) / (2 * dt)
        # the J block of the rate path at step 0 is the current of psi
        _, j, _ = rate_path_blocks(h, psi, dt, 1, 0.0)
        assert np.array_equal(j[0], current(h, psi))
        assert np.max(np.abs(dp_dt - j[0].sum(axis=1))) < 1e-6


class TestBellRates:
    def test_zero_current_zero_rates(self):
        t = rates(np.zeros((3, 3)), np.full(3, 1 / 3))
        assert np.all(t == 0.0)

    def test_two_site_example(self):
        j = current(TWO_SITE_H, TWO_SITE_PSI)
        t = rates(j, np.array([0.5, 0.5]))
        assert t[1, 0] == pytest.approx(2.0)
        assert t[0, 1] == 0.0

    def test_one_direction_per_pair(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(50):
            h, psi = rand_pair(rng, 4)
            p = np.abs(psi.amplitudes) ** 2
            if p.min() < 1e-6:
                continue
            t = rates(current(h, psi), p)
            both = (t > 0) & (t.T > 0)
            assert not np.any(both)

    def test_defining_relation(self):
        # on the T blocks the rate path yields, which carry the noise
        rng = np.random.Generator(np.random.PCG64(3))
        worst = 0.0
        for _ in range(100):
            h, psi = rand_pair(rng, int(rng.integers(2, 6)))
            if np.abs(psi.amplitudes).min() < 1e-3:
                continue
            for c in (0.0, 1.0):  # the homogeneous noise keeps the relation
                p, j, t = rate_path_blocks(h, psi, 1e-3, 3, c)
                rhs = t * p[:-1, None, :] - np.swapaxes(t, 1, 2) * p[:-1, :, None]
                worst = max(worst, float(np.max(np.abs(j - rhs))))
        assert worst < 1e-10

    def test_occupation_floor(self):
        j = np.array([[0.0, 1e-3], [-1e-3, 0.0]])
        _, void = beable._minimal_rates(j, np.array([1.0, 1e-14]))
        assert void
        tiny = hilbert.ComplexVectorState(np.array([1.0, 1e-7j]) / np.hypot(1.0, 1e-7))
        with pytest.raises(DegenerateOccupationError, match="^current in/out of a site with "
                                                            "occupation below the 1e-12 floor "
                                                            "at step 0$"):
            rate_path_blocks(TWO_SITE_H, tiny, 0.01, 5, 0.0)


class TestHomogeneousNoise:
    def test_zero_noise_unchanged(self):
        # c = 0 leaves the minimal rates, even on a state with an empty site
        h = hilbert.HermitianOperator([[0.0, -1.0, 0.5], [-1.0, 0.0, 0.2], [0.5, 0.2, 1.0]])
        psi = hilbert.ComplexVectorState([0.6, 0.8j, 0.0])
        p, j, t = rate_path_blocks(h, psi, 0.01, 1, 0.0)
        assert np.array_equal(t[0], rates(j[0], p[0]))
        with pytest.raises(DegenerateOccupationError, match="^homogeneous noise needs strictly "
                                                            "positive occupation at step 0$"):
            rate_path_blocks(h, psi, 0.01, 1, 1.0)

    def test_symmetric_two_site(self):
        noise, low = beable._noise(np.array([0.5, 0.5]), 1.0)
        assert not low
        assert noise[0, 1] == pytest.approx(2.0)
        assert noise[1, 0] == pytest.approx(2.0)
        assert noise[0, 0] == noise[1, 1] == 0.0

    def test_net_flow_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(50):
            p = rng.random(4) + 0.1
            p /= p.sum()
            base = rng.random((4, 4))
            np.fill_diagonal(base, 0.0)
            noisy = base + beable._noise(p, rng.uniform(0.1, 10))[0]
            flow_base = base @ p - base.sum(0) * p
            flow_noisy = noisy @ p - noisy.sum(0) * p
            assert np.max(np.abs(flow_base - flow_noisy)) < 1e-12


class TestJumpTrajectory:
    def test_eigenstate_never_jumps(self):
        h = hilbert.HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
        psi = hilbert.ComplexVectorState(np.array([1.0, -1.0]) / np.sqrt(2))
        traj = beable.jump_trajectory(h, psi, 1, 0.01, 500, seed=6)
        assert np.all(traj.stays == 1)
        # a diagonal H carries no current, even from a superposition
        h = hilbert.HermitianOperator([[1.0, 0.0], [0.0, 2.0]])
        psi = hilbert.ComplexVectorState([0.6, 0.8])
        traj = beable.jump_trajectory(h, psi, 0, 0.01, 200, seed=5)
        assert np.all(traj.stays == 0)

    def test_reproducible(self):
        h, psi = TWO_SITE_H, hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
        a = beable.jump_trajectory(h, psi, 0, 0.01, 300, seed=7)
        b = beable.jump_trajectory(h, psi, 0, 0.01, 300, seed=7)
        assert np.array_equal(a.stays, b.stays)

    def test_equivariance(self):
        # ensemble initialized ~|psi(0)|^2 stays |psi(t)|^2-distributed
        h = TWO_SITE_H
        psi0 = hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
        rec_steps, sites, p_rows = beable.ensemble_jump_run(
            h, psi0, 10_000, 0.005, 1200, seed=8, record_every=120)
        for row in range(1, len(rec_steps)):
            counts = np.bincount(sites[row], minlength=2)
            assert stats.chisquare(counts, f_exp=10_000 * p_rows[row]).pvalue > 0.001

    def test_dt_refinement_distribution_stable(self):
        # halving dt leaves the final-time site distribution unchanged
        h = TWO_SITE_H
        psi0 = hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
        _, coarse, _ = beable.ensemble_jump_run(h, psi0, 8000, 0.01, 400,
                                                seed=9, record_every=400)
        _, fine, _ = beable.ensemble_jump_run(h, psi0, 8000, 0.005, 800,
                                              seed=10, record_every=800)
        table = np.array([np.bincount(coarse[-1], minlength=2),
                          np.bincount(fine[-1], minlength=2)])
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_noise_does_not_change_distributions(self):
        h = TWO_SITE_H
        psi0 = hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
        for c in (0.1, 1.0, 10.0):
            _, plain, _ = beable.ensemble_jump_run(h, psi0, 6000, 0.002, 1000,
                                                   seed=11, record_every=500)
            _, noisy, _ = beable.ensemble_jump_run(h, psi0, 6000, 0.002, 1000,
                                                   seed=12, noise_c=c,
                                                   record_every=500)
            for row in range(1, plain.shape[0]):
                table = np.array([np.bincount(plain[row], minlength=2),
                                  np.bincount(noisy[row], minlength=2)])
                assert stats.chi2_contingency(table).pvalue > 0.001

    def test_guard_surfaces_with_step_index(self):
        # a real state under a real H carries no current at step 0
        h = hilbert.HermitianOperator([[0.0, -40.0], [-40.0, 0.0]])
        psi = hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
        with pytest.raises(StepSizeError, match=r"^outflow probability 0\.18 exceeds the 0\.1 "
                                                r"guard at step 1$") as exc:
            beable.jump_trajectory(h, psi, 0, 0.01, 100, seed=13)
        assert exc.value.step == 1

    def test_ensemble_guard_surfaces_with_step_index(self):
        h = hilbert.HermitianOperator([[0.0, -40.0], [-40.0, 0.0]])
        psi = hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
        with pytest.raises(StepSizeError, match=r"^outflow probability 0\.18 exceeds the 0\.1 "
                                                r"guard at step 1 in trial 3$") as exc:
            beable.ensemble_jump_run(h, psi, 100, 0.01, 100, seed=13)
        assert exc.value.step == 1

    def test_ensemble_guard_names_the_first_trial(self):
        # only site 0 has outflow (0.75 at step 0); a walker starts there when
        # its draw falls below P_0 = 0.64, which seed 5 first gives trial 2
        psi = hilbert.ComplexVectorState([0.8, 0.6j])
        first = int(np.argmax(seeded_rng(5).random(50) < 0.64))
        assert first == 2
        with pytest.raises(StepSizeError,
                           match=r"^outflow probability 0\.75 exceeds the 0\.1 guard "
                                 f"at step 0 in trial {first}$") as exc:
            beable.ensemble_jump_run(TWO_SITE_H, psi, 50, 0.5, 10, seed=5)
        assert (exc.value.step, exc.value.trial) == (0, first)
        # a single walk has no trial to name
        with pytest.raises(StepSizeError, match=r"^outflow probability 0\.75 exceeds the 0\.1 "
                                                r"guard at step 0$") as exc:
            beable.jump_trajectory(TWO_SITE_H, psi, 0, 0.5, 10, seed=5)
        assert (exc.value.step, exc.value.trial) == (0, None)

    def test_degenerate_occupation_names_its_step(self):
        tiny = hilbert.ComplexVectorState(np.array([1.0, 1e-7j]) / np.hypot(1.0, 1e-7))
        with pytest.raises(DegenerateOccupationError, match="^current in/out of a site with "
                                                            "occupation below the 1e-12 floor "
                                                            "at step 0$"):
            beable.jump_trajectory(TWO_SITE_H, tiny, 0, 0.01, 20, seed=1)
        # P_0 = cos^2 t falls below the floor at step 100, which a block of 7
        # steps reaches as step 2 of the block from 98
        rabi = hilbert.ComplexVectorState([1.0, 0.0])
        for block in (7, 256):
            with mock.patch.object(beable, "_RATE_BLOCK", block):
                with pytest.raises(DegenerateOccupationError,
                                   match="^current in/out of a site with occupation below "
                                         "the 1e-12 floor at step 100$"):
                    beable.ensemble_jump_run(TWO_SITE_H, rabi, 1, np.pi / 200, 300, seed=3)

    @pytest.mark.parametrize("kw, name", [
        ({"steps": -1}, "steps"), ({"n_traj": -1}, "n_traj"),
        ({"record_every": 0}, "record_every"), ({"seed": -1}, "seed"),
        ({"dt": 0.0}, "dt"), ({"steps": 0, "noise_c": -1.0}, "noise"),
    ])
    def test_ensemble_rejects_bad_counts(self, kw, name):
        args = {"n_traj": 10, "dt": 0.01, "steps": 5, "seed": 1, "record_every": 1, **kw}
        with pytest.raises(ContractViolation, match=name):
            beable.ensemble_jump_run(TWO_SITE_H, TWO_SITE_PSI, **args)

    def test_trajectory_rejects_bad_arguments(self):
        with pytest.raises(ContractViolation, match="steps"):
            beable.jump_trajectory(TWO_SITE_H, TWO_SITE_PSI, 0, 0.01, -1, seed=1)
        with pytest.raises(ContractViolation, match="dt"):
            beable.jump_trajectory(TWO_SITE_H, TWO_SITE_PSI, 0, -0.005, 5, seed=1)
        with pytest.raises(ContractViolation, match="seed"):
            beable.jump_trajectory(TWO_SITE_H, TWO_SITE_PSI, 0, 0.01, 5, seed=2**64)
        for steps in (5, 0):  # a negative noise rate is not ignored
            with pytest.raises(NormalizationError,
                               match=r"^noise_c must be non-negative, not -1\.0$"):
                beable.jump_trajectory(TWO_SITE_H, TWO_SITE_PSI, 0, 0.01, steps, seed=1,
                                       noise_c=-1.0)
        with pytest.raises(DimensionMismatchError, match="operator dim 3"):
            beable.jump_trajectory(hilbert.HermitianOperator(np.eye(3)), TWO_SITE_PSI, 0,
                                   0.01, 0, seed=1)


def reference_rates(h, amps, noise_c, step):
    """J, the minimal rates and the noise of amps, one step at a time; a
    failure names its step, in the order the runners check them."""
    if not np.all(np.isfinite(amps)):
        raise NormalizationError("non-finite amplitude", step=step)
    p = np.abs(amps) ** 2
    t, void = beable._minimal_rates(beable._current(h.matrix, amps), p)
    noise, low = beable._noise(p, noise_c)
    if void:
        raise DegenerateOccupationError(beable._CURRENT_BELOW_FLOOR, step=step)
    if low and noise_c != 0.0:
        raise DegenerateOccupationError(beable._NOISE_BELOW_FLOOR, step=step)
    return t + noise


def reference_trajectory(h, psi0, beable0, dt, steps, seed, noise_c=0.0):
    """The per-step jump_trajectory loop that the rate path replaced."""
    rng = seeded_rng(seed)
    u = beable.unitary_step_matrix(h, dt)
    amps = psi0.amplitudes.copy()
    site = int(beable0)
    stays = np.empty(steps + 1, dtype=np.int64)
    stays[0] = site
    for step in range(steps):
        t = reference_rates(h, amps, noise_c, step)
        jump_p = t[:, site] * dt
        total = float(jump_p.sum())
        if total >= beable.OUTFLOW_GUARD:
            raise StepSizeError(f"outflow probability {total:.3g} exceeds the 0.1 guard",
                                step=step)
        u_draw = rng.random()
        if u_draw < total:
            site = int(np.searchsorted(np.cumsum(jump_p), u_draw, side="right"))
        stays[step + 1] = site
        amps = u @ amps
    return StayTrajectory(stays, n_sites=psi0.dim, dt_instant=dt, seed=seed)


def reference_ensemble(h, psi0, n_traj, dt, steps, seed, noise_c=0.0, record_every=1):
    """The per-step ensemble_jump_run loop that the rate path replaced."""
    rng = seeded_rng(seed)
    u = beable.unitary_step_matrix(h, dt)
    amps = psi0.amplitudes.copy()
    p = np.abs(amps) ** 2
    sites = np.searchsorted(np.cumsum(p) / p.sum(), rng.random(n_traj), side="right")
    rec_steps = [0]
    rec_sites = [sites.copy()]
    rec_p = [p.copy()]
    for step in range(steps):
        t = reference_rates(h, amps, noise_c, step)
        # per-site cumulative jump table, shared across the ensemble
        jump_p = t * dt
        np.fill_diagonal(jump_p, 0.0)
        outflow = jump_p.sum(axis=0)[sites]  # the occupied sites only
        if outflow.max() >= beable.OUTFLOW_GUARD:
            trial = int(np.argmax(outflow >= beable.OUTFLOW_GUARD))
            raise StepSizeError(f"outflow probability {outflow[trial]:.3g} exceeds the 0.1 "
                                "guard", step=step, trial=trial)
        cum = np.cumsum(jump_p, axis=0)  # cum[:, n] for source site n
        draws = rng.random(n_traj)
        source_cum = cum[:, sites]  # dim x n_traj
        jumped = draws < source_cum[-1, :]
        if np.any(jumped):
            dest = (draws[None, jumped] >= source_cum[:, jumped]).sum(axis=0)
            sites = sites.copy()
            sites[jumped] = dest
        amps = u @ amps
        if (step + 1) % record_every == 0:
            rec_steps.append(step + 1)
            rec_sites.append(sites.copy())
            rec_p.append(np.abs(amps) ** 2)
    return np.array(rec_steps), np.array(rec_sites), np.array(rec_p)


def outcome(run):
    """("ok", the arrays a run returns) or ("error", its error type and message)."""
    try:
        result = run()
    except ContractViolation as exc:
        return "error", (type(exc), str(exc))
    return "ok", (result.stays,) if isinstance(result, StayTrajectory) else result


def assert_same_outcome(a, b):
    assert a[0] == b[0] and len(a[1]) == len(b[1])
    if a[0] == "error":
        assert a[1] == b[1]
    else:
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a[1], b[1]))


@st.composite
def rate_path_cases(draw):
    """A random Hermitian H and state of dim 2-7, some sites of the state
    tiny (1e-7) or empty, and the run parameters."""
    dim = draw(st.integers(2, 7))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) * draw(st.sampled_from([0.1, 1.0, 5.0, 20.0]))
    v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * rng.choice([1, 1, 1, 1e-7, 0], dim)
    if not np.any(v):
        v[0] = 1.0
    return dict(h=h, psi=v / np.linalg.norm(v), beable0=draw(st.integers(0, dim - 1)),
                dt=draw(st.floats(0.001, 0.03)), steps=draw(st.integers(0, 40)),
                noise_c=draw(st.sampled_from([0.0, 0.0, 0.3, 2.0])),
                n_traj=draw(st.integers(1, 60)),
                record_every=draw(st.integers(1, 5)), block=draw(st.sampled_from([1, 7, 256])),
                seed=draw(st.integers(0, 1000)))


RABI_FROM_ONE_SITE = dict(  # P_0 = cos^2 t: site 0's outflow passes 0.1 at step 81, P_0 < 1e-12 at 100
    h=[[0.0, -1.0], [-1.0, 0.0]], psi=[1.0, 0.0], beable0=0, dt=np.pi / 200, steps=300,
    noise_c=0.0, n_traj=50, record_every=10, block=64, seed=3)
PINNED = {
    "degenerate-at-step-0": dict(RABI_FROM_ONE_SITE, h=[[0.0, -1j], [1j, 0.0]],
                                 psi=np.array([1.0, 1e-7]) / np.hypot(1.0, 1e-7), steps=20),
    "empty-site-with-noise": dict(RABI_FROM_ONE_SITE, h=[[0.0, -1.0, 0.5], [-1.0, 0.0, 0.2],
                                                         [0.5, 0.2, 1.0]],
                                  psi=[0.6, 0.8j, 0.0], noise_c=1.0, steps=20),
    "guard-at-step-0": dict(RABI_FROM_ONE_SITE, h=[[0.0, -40.0], [-40.0, 0.0]],
                            psi=np.sqrt([0.7, 0.3]) * [1, 1j], dt=0.01, steps=20),
    "guard-before-degenerate": RABI_FROM_ONE_SITE,
    # the lone walker leaves site 0 at step 20, so site 0's outflow passing
    # 0.1 at step 81 trips no guard; the run stops where P_0 < 1e-12
    "site-without-walkers-unguarded": dict(RABI_FROM_ONE_SITE, n_traj=1),
    # the same walker, stopped at step 90: only the empty site 0 passes the
    # outflow guard's 0.1, from step 81 on, so the run completes
    "only-empty-site-over-guard": dict(RABI_FROM_ONE_SITE, n_traj=1, steps=90),
}


class TestRatePathParity:
    """Both runners give the per-step loops' exact stays, recorded sites
    and P rows, or their error type and message."""

    @staticmethod
    def check(case):
        h = hilbert.HermitianOperator(case["h"])
        psi0 = hilbert.ComplexVectorState(case["psi"])
        common = dict(dt=case["dt"], steps=case["steps"], seed=case["seed"],
                      noise_c=case["noise_c"])
        runs = [(beable.jump_trajectory, reference_trajectory, dict(beable0=case["beable0"])),
                (beable.ensemble_jump_run, reference_ensemble,
                 dict(n_traj=case["n_traj"], record_every=case["record_every"]))]
        with mock.patch.object(beable, "_RATE_BLOCK", case["block"]):
            for run, reference, extra in runs:
                assert_same_outcome(outcome(lambda: run(h, psi0, **common, **extra)),
                                    outcome(lambda: reference(h, psi0, **common, **extra)))

    @given(rate_path_cases())
    @settings(max_examples=150, deadline=None)
    def test_random_cases(self, case):
        self.check(case)

    @pytest.mark.parametrize("name, error", [
        ("degenerate-at-step-0", DegenerateOccupationError),
        ("empty-site-with-noise", DegenerateOccupationError),
        ("guard-at-step-0", StepSizeError),
        ("guard-before-degenerate", StepSizeError),
        ("site-without-walkers-unguarded", DegenerateOccupationError),
        ("only-empty-site-over-guard", None),
    ])
    def test_pinned_cases(self, name, error):
        case = PINNED[name]
        self.check(case)
        h = hilbert.HermitianOperator(case["h"])
        psi0 = hilbert.ComplexVectorState(case["psi"])
        with contextlib.nullcontext() if error is None else pytest.raises(error):
            beable.ensemble_jump_run(h, psi0, case["n_traj"], case["dt"], case["steps"],
                                     seed=case["seed"], noise_c=case["noise_c"])
        if error is None:  # the guard was reached, at a site without walkers
            assert max(cum[:, -1, 0].max() for *_, cum in beable._rate_path(
                h, psi0, case["dt"], case["steps"], case["noise_c"])) >= beable.OUTFLOW_GUARD


class TestRatePathProperties:
    @given(rate_path_cases(), st.integers(1, 600), st.floats(0.001, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_p_rows_sum_to_one(self, case, steps, dt):
        # row k is |u^k psi0|^2 for the exact unitary step u, so its sum
        # leaves 1 by rounding alone, a few eps per step
        h = hilbert.HermitianOperator(case["h"])
        psi0 = hilbert.ComplexVectorState(case["psi"])
        rows = []
        try:
            for p, _, _, _ in beable._rate_path(h, psi0, dt, steps, case["noise_c"]):
                rows.append(p)
        except DegenerateOccupationError:  # raised after the rows before it
            pass
        p = np.concatenate(rows)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 128 * (steps + 1) * np.finfo(float).eps


def walk_reference(h, psi0, sites, dt, steps, rng, noise_c, record_every, ensemble):
    """The walk loop that selected its jumpers with boolean masks; the runs
    compared with it stay below the guard, so it names no trial."""
    rec = [(sites.copy(), np.abs(psi0.amplitudes) ** 2)]
    step = 0
    for p, _, _, cum in beable._rate_path(h, psi0, dt, steps, noise_c):
        for cum_t, p_next in zip(cum, p[1:]):
            outflow = cum_t[-1][sites]
            if outflow.max() >= beable.OUTFLOW_GUARD:
                raise StepSizeError(f"outflow probability {outflow.max():.3g} exceeds the 0.1 "
                                    "guard", step=step)
            u = rng.random(sites.size)
            jumped = u < outflow
            sites[jumped] = (u[jumped] >= cum_t[:, sites[jumped]]).sum(axis=0)
            step += 1
            if step % record_every == 0:
                rec.append((sites.copy(), p_next))
    rec_sites, rec_p = map(np.array, zip(*rec))
    return np.arange(len(rec)) * record_every, rec_sites, rec_p


class TestWalkParity:
    """Both runners give the mask loop's exact recorded steps, sites and P."""

    @pytest.mark.parametrize("noise_c", [0.0, 0.1])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_mask_loop(self, dim, noise_c):
        h, psi0 = rand_pair(np.random.Generator(np.random.PCG64(40 + dim)), dim)
        common = dict(dt=0.002, steps=1500, seed=dim, noise_c=noise_c)
        runs = [lambda: beable.ensemble_jump_run(h, psi0, 400, record_every=7, **common),
                lambda: beable.jump_trajectory(h, psi0, 0, **common)]
        for run in runs:
            got = outcome(run)
            with mock.patch.object(beable, "_walk", walk_reference):
                want = outcome(run)
            assert got[0] == "ok"
            assert_same_outcome(got, want)
        sites = got[1][0]
        assert len(np.unique(sites)) > 1  # the trajectory jumped
