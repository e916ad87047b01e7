import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmsim import collapse, constants, hilbert
from rdmsim.collapse import CollapseConfig, ManyBodyBranchTable
from rdmsim.errors import ContractViolation, NumericFailure, SuperPlanckianError
from rdmsim.seeding import trial_rng


def equal_two_level():
    return hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))


class TestCollapseStep:
    def test_eigenstate_unchanged(self):
        s = hilbert.EnergySuperposition([3.0], [1.0])
        out, stay = collapse.collapse_step(s, CollapseConfig(), trial_rng(0, 0))
        assert stay == 0
        assert out.probabilities[0] == pytest.approx(1.0)

    def test_hand_evaluated_update(self):
        # natural units, dE = 0.5 so k = 0.5; staying branch 1 gives (0.25, 0.75)
        rng = trial_rng(1, 0)
        found = False
        for _ in range(20):
            out, stay = collapse.collapse_step(equal_two_level(), CollapseConfig(), rng)
            if stay == 1:
                assert np.allclose(out.probabilities, [0.25, 0.75], atol=1e-15)
                found = True
                break
        assert found

    def test_bounds_and_sum(self):
        cfg = CollapseConfig(k_mode="frozen", k0=0.3)
        rng = trial_rng(2, 0)
        s = hilbert.EnergySuperposition([0.0, 0.4, 0.9],
                                        np.sqrt([0.2, 0.5, 0.3]))
        for _ in range(300):
            s, _ = collapse.collapse_step(s, cfg, rng)
            p = s.probabilities
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert abs(p.sum() - 1.0) < 1e-14

    def test_martingale_identity(self):
        # summing over the staying draw, E[P'] = P exactly
        p = np.array([0.3, 0.45, 0.25])
        k = 0.7
        expected = sum(p[stay] * np.where(np.arange(3) == stay, p + k * (1 - p),
                                          p - k * p)
                       for stay in range(3))
        assert np.allclose(expected, p, atol=1e-15)

    def test_super_planckian_guard(self):
        s = hilbert.EnergySuperposition([0.0, 3.0], np.sqrt([0.5, 0.5]))
        with pytest.raises(SuperPlanckianError):
            collapse.collapse_step(s, CollapseConfig(), trial_rng(3, 0))

    def test_phases_advance(self):
        cfg = CollapseConfig(k_mode="frozen", k0=0.0)
        s = hilbert.EnergySuperposition([0.0, np.pi], np.sqrt([0.5, 0.5]))
        out, _ = collapse.collapse_step(s, cfg, trial_rng(4, 0))
        # k = 0: probabilities frozen, phases rotated by -E t_P
        assert np.allclose(out.probabilities, [0.5, 0.5], atol=1e-15)
        rel = out.amplitudes[1] / out.amplitudes[0]
        assert np.angle(rel) == pytest.approx(-np.pi, abs=1e-12)

    def test_degenerate_branches_move_together(self):
        cfg = CollapseConfig(k_mode="frozen", k0=0.2)
        s = hilbert.EnergySuperposition([1.0, 1.0, 2.0],
                                        np.sqrt([0.2, 0.3, 0.5]))
        out, stay = collapse.collapse_step(s, cfg, trial_rng(5, 0))
        p = out.probabilities
        # members of the degenerate group keep their relative weights
        assert p[0] / p[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert stay in (0, 2)


def reference_step(s, cfg, rng):
    """collapse_step with the staying-branch draw and the update written out
    inline: cumsum, u * cum[-1] >= cum, P - kP, P[s] += k, min(P, 1)."""
    k = collapse.step_strength(s, cfg)
    p = s.probabilities
    groups = collapse._energy_groups(s.energies)
    gp = np.array([p[idx].sum() for idx in groups])
    draw = rng.random()
    cum = np.cumsum(gp)
    g_stay = int(np.sum(draw * cum[-1] >= cum))
    gp_new = gp - k * gp
    gp_new[g_stay] += k
    np.minimum(gp_new, 1.0, out=gp_new)
    scale = np.ones_like(p)
    for g, idx in enumerate(groups):
        scale[idx] = math.sqrt(gp_new[g] / gp[g]) if gp[g] > 0.0 else 0.0
    phases = np.exp(-1j * s.energies * cfg.t_p / cfg.hbar)
    return (hilbert.EnergySuperposition(s.energies, s.amplitudes * scale * phases),
            groups[g_stay][0])


class TestCollapseStepOnKernel:
    @pytest.mark.parametrize("m, k_mode, degenerate", [
        (m, k_mode, degenerate) for m in range(1, 6) for k_mode in ("frozen", "dynamic")
        for degenerate in (False, True) if m > 1 or not degenerate])
    def test_matches_inline_update(self, m, k_mode, degenerate):
        # a degenerate pair shares one energy, so the draw runs over merged groups
        gen = np.random.Generator(np.random.PCG64(100 * m + degenerate))
        energies = gen.random(m)
        if degenerate:
            energies[1] = energies[0]
        weights = gen.random(m) + 0.05
        s = hilbert.EnergySuperposition(energies, np.sqrt(weights / weights.sum()))
        cfg = CollapseConfig(k_mode=k_mode, k0=0.2 if k_mode == "frozen" else None)
        ours, ref = s, s
        rng_ours, rng_ref = trial_rng(m, 1), trial_rng(m, 1)
        for _ in range(200):
            ours, stay = collapse.collapse_step(ours, cfg, rng_ours)
            ref, ref_stay = reference_step(ref, cfg, rng_ref)
            assert stay == ref_stay
            assert np.array_equal(ours.probabilities, ref.probabilities)


class TestRunTrajectory:
    def test_eigenstate_immediate(self):
        s = hilbert.EnergySuperposition([5.0], [1.0])
        out = collapse.run_trajectory(s, CollapseConfig(), 100)
        assert out["collapsed"] and out["steps"] == 0 and out["outcome"] == 0

    def test_rejects_negative_max_steps(self):
        with pytest.raises(ContractViolation, match="max_steps"):
            collapse.run_trajectory(equal_two_level(), CollapseConfig(), -1)

    def test_median_steps_order(self):
        # frozen k = 0.01: median steps ~ 1/k^2 within a factor 3
        cfg = CollapseConfig(k_mode="frozen", k0=0.01, seed=6)
        res = collapse.ensemble_outcomes(equal_two_level(), cfg, 400,
                                         max_steps=200_000)
        assert np.all(res["outcomes"] >= 0)
        median = float(np.median(res["steps"]))
        assert 1e4 / 3 <= median <= 3e4

    def test_outcome_frequencies_born(self):
        s = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.3, 0.7]))
        cfg = CollapseConfig(k_mode="frozen", k0=0.1, seed=7)
        res = collapse.ensemble_outcomes(s, cfg, 10_000, max_steps=10_000)
        freq = np.mean(res["outcomes"] == 0)
        assert abs(freq - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / 10_000)

    def test_scalar_matches_vectorized(self):
        # one column of the ensemble kernel follows the scalar walk (same
        # uniform stream and update order; agreement to rounding)
        s = equal_two_level()
        cfg = CollapseConfig(k_mode="frozen", k0=0.05, seed=8)
        scalar = collapse.run_trajectory(s, cfg, 50, rng=trial_rng(cfg.seed, 0))
        u = trial_rng(cfg.seed, 0).random(50)
        p = s.probabilities[:, None].copy()
        path = [p[:, 0].copy()]
        for step in range(50):
            collapse._collapse_kernel(p, u[step:step + 1], cfg.k0)
            path.append(p[:, 0].copy())
        n = min(len(scalar["probabilities"]), len(path))
        assert np.allclose(np.array(path[:n]), scalar["probabilities"][:n],
                           atol=1e-13, rtol=0)


class TestEnsembleStatistics:
    def test_mean_p_conserved(self):
        s = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.3, 0.7]))
        cfg = CollapseConfig(k_mode="frozen", k0=0.05, seed=9)
        res = collapse.ensemble_statistics(s, cfg, 4000, 100, 20)
        for r in range(1, len(res["steps"])):
            assert abs(res["mean_p"][r, 0] - 0.3) <= 3 * res["se_p"][r, 0]

    @pytest.mark.parametrize("k0", [0.01, 0.1, 0.3])
    def test_offdiagonal_decay_law(self, k0):
        cfg = CollapseConfig(k_mode="frozen", k0=k0, seed=10)
        res = collapse.ensemble_statistics(equal_two_level(), cfg, 4000, 60, 20)
        for r in range(1, len(res["steps"])):
            n = res["steps"][r]
            expect = 0.25 * (1 - k0**2) ** n
            assert abs(res["mean_pp"][r, 0] - expect) <= 3 * res["se_pp"][r, 0]

    def test_dynamic_k_outcomes_born(self):
        # state-dependent k keeps the martingale: outcome frequencies
        # still reproduce the initial weights
        s = hilbert.EnergySuperposition([0.0, 0.8], np.sqrt([0.3, 0.7]))
        cfg = CollapseConfig(k_mode="dynamic", seed=13)
        res = collapse.ensemble_outcomes(s, cfg, 4000, max_steps=20_000)
        assert np.all(res["outcomes"] >= 0)
        freq = np.mean(res["outcomes"] == 0)
        assert abs(freq - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / 4000)

    def test_trial_batching_invariant(self):
        # a trial's path depends only on its own stream: 600 trials stepped
        # as one array match the 256-trial blocks bit for bit, and the
        # statistics are the block-order sums of those paths
        s = equal_two_level()
        cfg = CollapseConfig(k_mode="frozen", k0=0.1, seed=11)

        def paths(lo, hi):
            u = np.array([trial_rng(cfg.seed, t).random(30) for t in range(lo, hi)]).T
            p = np.repeat(s.probabilities[:, None], hi - lo, axis=1)
            for step in range(30):
                collapse._collapse_kernel(p, u[step], cfg.k0)
            return p

        whole = paths(0, 600)
        blocks = [paths(lo, min(lo + 256, 600)) for lo in range(0, 600, 256)]
        assert np.array_equal(whole, np.hstack(blocks))
        a = collapse.ensemble_statistics(s, cfg, 600, 30, 10)
        b = collapse.ensemble_statistics(s, cfg, 600, 30, 10)
        assert np.array_equal(a["mean_p"], b["mean_p"])
        assert np.array_equal(a["se_pp"], b["se_pp"])
        sums = sum(np.ascontiguousarray(p.T).sum(axis=0) for p in blocks)
        assert np.array_equal(a["mean_p"][-1], sums / 600.0)

    def test_rejects_degenerate_energies(self):
        s = hilbert.EnergySuperposition([1.0, 1.0], np.sqrt([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            collapse.ensemble_statistics(s, CollapseConfig(), 10, 10, 5)


def reference_outcome(s0, cfg, trial, max_steps):
    """One trial on Python floats: k, the staying branch and the update
    written out directly, one uniform per step from the trial's stream."""
    rng = trial_rng(cfg.seed, trial)
    p = [float(x) for x in s0.probabilities]
    e = [float(x) for x in s0.energies]
    for step in range(max_steps + 1):
        top = max(p)
        if top > 1.0 - cfg.collapse_epsilon:
            return p.index(top), step
        if step == max_steps:
            return -1, max_steps
        if cfg.k_mode == "frozen":
            k = cfg.k0
        else:
            mean = sum(pi * ei for pi, ei in zip(p, e))
            var = sum(pi * ei**2 for pi, ei in zip(p, e)) - mean**2
            k = math.sqrt(max(var, 0.0)) * cfg.t_p / cfg.hbar
        cum, total = [], 0.0
        for x in p:
            total += x
            cum.append(total)
        u = rng.random() * total
        stay = sum(u >= c for c in cum)
        p = [min(x - k * x + (k if j == stay else 0.0), 1.0) for j, x in enumerate(p)]


@st.composite
def outcome_cases(draw):
    m = draw(st.integers(2, 4))
    energies = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m,
                                    unique=True)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    k0 = draw(st.one_of(st.none(), st.floats(0.05, 0.6)))
    return (energies, weights, k0, draw(st.sampled_from([1e-6, 1e-2])),
            draw(st.integers(1, 300)), draw(st.integers(0, 400)),
            draw(st.integers(0, 2**32)),
            draw(st.sampled_from([64, 4096, collapse.DRAW_BUDGET])))


class TestEnsembleOutcomes:
    @given(outcome_cases())
    @settings(max_examples=15, deadline=None)
    # p0 already past the threshold: every trial collapses at step 0
    @example(([0.0, 1.0], [1.0, 1e-9], 0.3, 1e-6, 20, 50, 1, collapse.DRAW_BUDGET))
    # frozen k weak for the step cap: trials cross late or end at max_steps
    @example(([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.05, 1e-6, 300, 600, 2, 4096))
    # frozen k: trials leave the array partway through a 20-step draw chunk
    @example(([0.0, 1.0], [0.5, 0.5], 0.3, 1e-6, 200, 400, 4, 4096))
    @example(([0.0, 1.0], [0.5, 0.5], 0.1, 1e-6, 60, 2000, 5, collapse.DRAW_BUDGET))
    # dynamic k (which fades as a trial collapses, hence the wide epsilon)
    # with a chunk refill every 8 steps
    @example(([0.0, 0.3, 0.35, 0.9], [0.4, 0.1, 0.2, 0.3], None, 1e-2, 200, 400, 3, 64))
    def test_matches_scalar_reference(self, case):
        energies, weights, k0, eps, n_trials, max_steps, seed, budget = case
        w = np.asarray(weights) / np.sum(weights)
        s0 = hilbert.EnergySuperposition(energies, np.sqrt(w))
        cfg = CollapseConfig(k_mode="dynamic" if k0 is None else "frozen", k0=k0,
                             collapse_epsilon=eps, seed=seed)
        # a patched budget shrinks the draw chunks down to 8 steps
        with mock.patch.object(collapse, "DRAW_BUDGET", budget):
            res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps)
        ref = np.array([reference_outcome(s0, cfg, t, max_steps)
                        for t in range(n_trials)])
        assert np.array_equal(res["outcomes"], ref[:, 0])
        assert np.array_equal(res["steps"], ref[:, 1])

    def test_super_planckian_names_step_and_trial(self):
        # k = 0.36 at step 0; a trial that stays in branch 1 reaches k > 1
        s = hilbert.EnergySuperposition([0.0, 2.1], np.sqrt([0.97, 0.03]))
        cfg = CollapseConfig(k_mode="dynamic", seed=14)
        p0 = s.probabilities
        first = next(t for t in range(50)
                     if trial_rng(cfg.seed, t).random() * (p0[0] + p0[1]) >= p0[0])
        with pytest.raises(SuperPlanckianError, match=f"at step 1 of trial {first}$") as exc:
            collapse.ensemble_outcomes(s, cfg, 50, 100)
        assert (exc.value.step, exc.value.trial) == (1, first)

    @pytest.mark.parametrize("run", [
        lambda s, cfg: collapse.ensemble_outcomes(s, cfg, 10, 10),
        lambda s, cfg: collapse.ensemble_statistics(s, cfg, 10, 10, 5),
    ])
    def test_nan_strength_rejected(self, run):
        # E^2 overflows, so the spread is inf - inf = NaN: a numeric failure
        s = hilbert.EnergySuperposition([0.0, 1e200], np.sqrt([0.5, 0.5]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure, match="is nan in trial 0$") as exc:
                run(s, CollapseConfig(k_mode="dynamic"))
        assert (exc.value.step, exc.value.trial) == (0, 0)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ContractViolation):
            collapse.ensemble_outcomes(equal_two_level(), CollapseConfig(), 0, 10)


class TestCollapseTime:
    def test_reference_values(self):
        cfg = CollapseConfig.physical()
        assert collapse.collapse_time(1e-6, cfg) == pytest.approx(8.04e24, rel=0.01)
        assert collapse.collapse_time(8.6e-6, cfg) == pytest.approx(1.087e23, rel=0.01)
        assert collapse.collapse_time(2.5e11, cfg) == pytest.approx(1.286e-10, rel=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            collapse.collapse_time(0.0, CollapseConfig())

    def test_relativistic_factor(self):
        cfg = CollapseConfig.physical()
        base = collapse.collapse_time(1.0, cfg)
        assert collapse.relativistic_collapse_time(1.0, 0.0, cfg) == base
        third = collapse.relativistic_collapse_time(1.0, cfg.c / 3.0, cfg)
        assert third / base == pytest.approx(9.0 / 16.0, abs=1e-12)

    def test_rejects_superluminal(self):
        cfg = CollapseConfig.physical()
        with pytest.raises(ContractViolation):
            collapse.relativistic_collapse_time(1.0, cfg.c, cfg)


class TestManyBodyDeltaE:
    def test_single_subsystem_matches(self):
        s = hilbert.EnergySuperposition([0.0, 1.0, 2.0], np.sqrt([0.5, 0.3, 0.2]))
        table = ManyBodyBranchTable(s.energies[None, :], s.amplitudes)
        expected = hilbert.energy_uncertainty(s)
        assert collapse.manybody_delta_e(table, "rms") == pytest.approx(expected)
        assert collapse.manybody_delta_e(table, "linear-sum") == pytest.approx(expected)

    def test_two_subsystem_example(self):
        # two subsystems, equal two-branch superposition, unit gap each
        table = ManyBodyBranchTable([[0.0, 1.0], [0.0, 1.0]],
                                    np.sqrt([0.5, 0.5]))
        assert collapse.manybody_delta_e(table, "rms") == pytest.approx(np.sqrt(0.5))
        assert collapse.manybody_delta_e(table, "linear-sum") == pytest.approx(1.0)

    def test_product_state_zero(self):
        table = ManyBodyBranchTable([[2.0, 2.0], [5.0, 5.0]],
                                    np.sqrt([0.4, 0.6]))
        assert collapse.manybody_delta_e(table, "rms") == 0.0
        assert collapse.manybody_delta_e(table, "linear-sum") == 0.0

    def test_degenerate_total_but_nonzero_sum(self):
        # branch total energies equal, per-subsystem spreads do not vanish
        table = ManyBodyBranchTable([[0.0, 1.0], [1.0, 0.0]],
                                    np.sqrt([0.5, 0.5]))
        totals = table.energies.sum(axis=0)
        assert totals[0] == totals[1]
        assert collapse.manybody_delta_e(table, "rms") > 0.5


class TestScaleInvariance:
    def test_singleton_grouping(self):
        s = hilbert.EnergySuperposition([0.0, 0.3, 0.6],
                                        np.sqrt([0.2, 0.5, 0.3]))
        res = collapse.scale_invariance_check(s, CollapseConfig(), [[0], [1], [2]], 1)
        assert res["passed"]

    def test_pairwise_grouping(self):
        s = hilbert.EnergySuperposition([0.0, 0.2, 0.4, 0.6],
                                        np.sqrt([0.25, 0.25, 0.25, 0.25]))
        res = collapse.scale_invariance_check(s, CollapseConfig(),
                                              [[0, 1], [2, 3]], 0)
        assert res["passed"]

    def test_random_partitions(self):
        rng = np.random.Generator(np.random.PCG64(12))
        s = hilbert.EnergySuperposition(0.25 * np.arange(8.0),
                                        np.sqrt(np.full(8, 0.125)))
        for _ in range(50):
            perm = rng.permutation(8)
            cut = int(rng.integers(1, 8))
            grouping = [perm[:cut], perm[cut:]]
            stay = int(rng.integers(0, 8))
            assert collapse.scale_invariance_check(
                s, CollapseConfig(), grouping, stay)["passed"]

    def test_invalid_partition(self):
        s = equal_two_level()
        with pytest.raises(ContractViolation):
            collapse.scale_invariance_check(s, CollapseConfig(), [[0]], 0)


class TestHorizonLevels:
    def test_massless_value(self):
        levels = collapse.horizon_energy_levels(1e25, 3)
        assert levels[0] == pytest.approx(3.1e-32, rel=0.01)
        assert levels[1] / levels[0] == pytest.approx(4.0)
        assert levels[2] / levels[0] == pytest.approx(9.0)

    def test_electron_value(self):
        levels = collapse.horizon_energy_levels(
            1e25, 1, mass_ev=constants.ELECTRON_MC2_EV)
        assert levels[0] == pytest.approx(9.4e-70, rel=0.01)

    def test_doubling_n_quadruples(self):
        levels = collapse.horizon_energy_levels(3.3e24, 4)
        assert levels[3] / levels[1] == pytest.approx(4.0)


class TestConfig:
    def test_frozen_requires_k0(self):
        with pytest.raises(ContractViolation):
            CollapseConfig(k_mode="frozen")

    def test_physical_constants(self):
        cfg = CollapseConfig.physical()
        assert cfg.hbar == constants.HBAR_EVS
        assert cfg.t_p == constants.PLANCK_TIME_S
        assert cfg.c == constants.C_M_S

    def test_epsilon_range(self):
        with pytest.raises(ContractViolation):
            CollapseConfig(collapse_epsilon=1.5)

    @pytest.mark.parametrize("field", ["t_p", "hbar", "c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_constants_finite_and_positive(self, field, value):
        with pytest.raises(ContractViolation):
            CollapseConfig(**{field: value})
