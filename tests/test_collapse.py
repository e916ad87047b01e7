import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rdmsim import collapse, constants, hilbert
from rdmsim.collapse import CollapseConfig
from rdmsim.errors import ContractViolation, NumericFailure, SuperPlanckianError
from rdmsim.seeding import trial_rngs


def equal_two_level():
    return hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))


class TestCollapseStep:
    def test_eigenstate_unchanged(self):
        # one branch: the kernel keeps it, whatever the draw and k
        p = np.array([[1.0, 1.0, 1.0]])
        stay = collapse._collapse_kernel(p, np.array([0.0, 0.5, 1.0 - 2.0**-53]),
                                         np.array([0.0, 0.4, 1.0]))
        assert np.all(stay)
        assert np.all(p == 1.0)

    def test_hand_evaluated_update(self):
        # natural units, dE = 0.5 so k = 0.5; staying branch 1 gives (0.25, 0.75)
        for seed in range(20):
            out = collapse.run_trajectory(equal_two_level(), CollapseConfig(seed=seed), 1)
            if out["staying"][0] == 1:
                break
        assert seed == 1
        assert np.allclose(out["probabilities"][1], [0.25, 0.75], atol=1e-15)

    def test_bounds_and_sum(self):
        # frozen k on three branches, then dynamic k on five equal ones
        # (dE = 0.71 keeps k inside the k <= 1 regime)
        for cfg, s, steps in (
                (CollapseConfig(k_mode="frozen", k0=0.3, seed=2),
                 hilbert.EnergySuperposition([0.0, 0.4, 0.9], np.sqrt([0.2, 0.5, 0.3])), 300),
                (CollapseConfig(seed=2),
                 hilbert.EnergySuperposition(0.5 * np.arange(5.0), np.sqrt(np.full(5, 0.2))),
                 500)):
            for p in collapse.run_trajectory(s, cfg, steps)["probabilities"]:
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
            collapse.run_trajectory(s, CollapseConfig(seed=3), 10)

    def test_degenerate_branches_move_together(self):
        cfg = CollapseConfig(k_mode="frozen", k0=0.2, seed=5)
        s = hilbert.EnergySuperposition([1.0, 1.0, 2.0],
                                        np.sqrt([0.2, 0.3, 0.5]))
        out = collapse.run_trajectory(s, cfg, 1)
        p = out["probabilities"][1]
        # members of the degenerate group keep their relative weights
        assert p[0] / p[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert out["staying"][0] in (0, 2)


class TestStrength:
    @given(st.integers(-10**8, 10**8),
           st.lists(st.tuples(st.integers(0, 1024), st.floats(0.01, 1.0)),
                    min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_global_offset_cancels(self, c, branches):
        # c + j 2^-10 is exact, and so is the walk's shift by E_0: the same history
        j = np.array([b[0] for b in branches]) * 2.0**-10
        w = np.array([b[1] for b in branches])
        amps = np.sqrt(w / w.sum())
        runs = [collapse.run_trajectory(hilbert.EnergySuperposition(e, amps), CollapseConfig(), 20)
                for e in (j, c + j)]
        assert runs[0]["probabilities"].tobytes() == runs[1]["probabilities"].tobytes()
        assert np.array_equal(runs[0]["staying"], runs[1]["staying"])

    # up to 200 columns: a column alone takes _running_sum's accumulate and the
    # same column in a sub-array over NARROW_COLUMNS wide its row loop
    @given(st.integers(1, 10), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_column_independent_of_the_array(self, m, n, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        energies = gen.uniform(-1e3, -1e3 + 1.0, m)
        p = gen.random((m, n)) + 1e-3
        p /= p.sum(axis=0)
        t = int(gen.integers(n))
        alone = np.float64(collapse._strength(p[:, t], energies)).tobytes()
        for lo, hi in ((0, n), (t, t + 1), (0, t + 1), (t, n)):
            k = collapse._strength(p[:, lo:hi], energies[:, None], 0, np.arange(lo, hi))
            assert k[t - lo].tobytes() == alone

    def test_super_planckian_names_step(self):
        # k = 0.36 at step 0 and above 1 once branch 1 stays
        s = hilbert.EnergySuperposition([0.0, 2.1], np.sqrt([0.97, 0.03]))
        p0 = s.probabilities
        seed = next(seed for seed in range(200)
                    if trial_rngs(seed, 0, 1)[0].random() * (p0[0] + p0[1]) >= p0[0])
        with pytest.raises(SuperPlanckianError,
                           match=r"^k = dE\*t_P/hbar = 1\.02 > 1 at step 1 in trial 0$") as exc:
            collapse.run_trajectory(s, CollapseConfig(seed=seed), 100)
        assert (exc.value.step, exc.value.trial) == (1, 0)


def reference_step(gp, energies, cfg, rng):
    """One instant on the group weights gp written out inline: k = k0, or the
    RMS spread of the energies shifted by the first, its sums by cumsum; then
    cumsum, u * cum[-1] >= cum, P - kP, P[s] += k, min(P, 1).  Returns (new
    group weights, staying group)."""
    k = cfg.k0
    if cfg.k_mode == "dynamic":
        e = energies - energies[0]
        e_bar = np.cumsum(gp * e)[-1]
        k = np.sqrt(max(np.cumsum(gp * (e - e_bar) ** 2)[-1], 0.0))
    draw = rng.random()
    cum = np.cumsum(gp)
    g_stay = int(np.sum(draw * cum[-1] >= cum))
    gp_new = gp - k * gp
    gp_new[g_stay] += k
    np.minimum(gp_new, 1.0, out=gp_new)
    return gp_new, g_stay


class TestCollapseStepOnKernel:
    @pytest.mark.parametrize("m, k_mode, degenerate", [
        (m, k_mode, degenerate) for m in range(1, 6) for k_mode in ("frozen", "dynamic")
        for degenerate in (False, True) if m > 1 or not degenerate])
    def test_matches_inline_update(self, m, k_mode, degenerate):
        # a degenerate pair shares one energy, so the draw runs over merged
        # groups; run_trajectory's kernel must take the inline update's
        # staying groups and give its weights bit for bit
        gen = np.random.Generator(np.random.PCG64(100 * m + degenerate))
        energies = gen.random(m)
        if degenerate:
            energies[1] = energies[0]
        weights = gen.random(m) + 0.05
        s = hilbert.EnergySuperposition(energies, np.sqrt(weights / weights.sum()))
        cfg = CollapseConfig(k_mode=k_mode, k0=0.2 if k_mode == "frozen" else None,
                             seed=m)
        out = collapse.run_trajectory(s, cfg, 200)
        label, first, share = collapse._energy_groups(s)
        gp = np.bincount(label, weights=s.probabilities)
        rng = trial_rngs(cfg.seed, 0, 1)[0]
        assert np.array_equal(out["probabilities"][0], gp[label] * share)
        for step, stay in enumerate(out["staying"]):
            gp, g_stay = reference_step(gp, energies[first], cfg, rng)
            assert stay == first[g_stay]
            assert np.array_equal(out["probabilities"][step + 1], gp[label] * share)


def _trajectory_reference(s0, cfg, max_steps):
    """run_trajectory written as an amplitude loop on trial 0's stream: the
    group weights step through the kernel, each member's amplitude scales
    by sqrt(new / old group weight) and turns by its phase, and
    P = min(|c|^2, 1).  Returns (P history, staying branches, outcome,
    steps)."""
    rng = trial_rngs(cfg.seed, 0, 1)[0]
    seen = {}
    label = np.array([seen.setdefault(float(e), len(seen)) for e in s0.energies])
    first = np.unique(label, return_index=True)[1]
    phases = np.exp(-1j * s0.energies)
    amps, p = s0.amplitudes, s0.probabilities
    history, staying = [p], []
    outcome = None
    for step in range(max_steps + 1):
        gp = np.bincount(label, weights=p)
        g_max = int(gp.argmax())
        if gp[g_max] > 1.0 - collapse.COLLAPSE_EPSILON:
            outcome = int(first[g_max])
            break
        if step == max_steps:
            break
        k = cfg.k0 if cfg.k_mode == "frozen" else collapse._strength(
            p, s0.energies - s0.energies[0], step)
        gp_new = gp.copy()
        g = int(collapse._collapse_kernel(gp_new[:, None], rng.random(1), k).argmax())
        occupied = gp > 0.0
        scale = np.where(occupied, np.sqrt(gp_new / np.where(occupied, gp, 1.0)), 0.0)
        amps = amps * scale[label] * phases
        p = np.minimum(np.abs(amps) ** 2, 1.0)
        history.append(p)
        staying.append(first[g])
    return np.array(history), np.array(staying, dtype=np.int64), outcome, step


@st.composite
def trajectory_cases(draw):
    m = draw(st.integers(1, 7))
    energies = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m, unique=True))
    if m > 1 and draw(st.booleans()):
        energies[1] = energies[0]  # a degenerate pair
    # branch 0 keeps the state normalisable; any other branch may be empty
    weights = [draw(st.floats(0.01, 1.0))] + draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m - 1, max_size=m - 1))
    k0 = draw(st.one_of(st.none(), st.floats(0.05, 0.6)))
    return (energies, weights, k0, draw(st.sampled_from([1e-6, 1e-2])),
            draw(st.integers(0, 3000)), draw(st.integers(0, 2**32)))


class TestRunTrajectory:
    def test_eigenstate_immediate(self):
        s = hilbert.EnergySuperposition([5.0], [1.0])
        out = collapse.run_trajectory(s, CollapseConfig(), 100)
        assert (out["outcome"], out["steps"]) == (0, 0)

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

    @given(trajectory_cases())
    @settings(max_examples=25, deadline=None)
    # a degenerate pair beside a third branch, dynamic k
    @example(([0.2, 0.2, 0.7], [0.3, 0.2, 0.5], None, 1e-2, 3000, 15))
    # an empty branch inside a degenerate pair, frozen k
    @example(([0.0, 0.5, 0.5, 0.9], [0.4, 0.3, 0.0, 0.3], 0.2, 1e-6, 2000, 16))
    def test_matches_amplitude_loop(self, case):
        # the walk steps the group weights where the reference stepped the
        # amplitudes (P = |c|^2 after a sqrt round trip): the same draws and
        # staying sequence, P to rounding
        energies, weights, k0, eps, max_steps, seed = case
        w = np.asarray(weights) / np.sum(weights)
        s0 = hilbert.EnergySuperposition(energies, np.sqrt(w))
        cfg = CollapseConfig(k_mode="dynamic" if k0 is None else "frozen", k0=k0, seed=seed)
        with mock.patch.object(collapse, "COLLAPSE_EPSILON", eps):
            out = collapse.run_trajectory(s0, cfg, max_steps)
            probs, staying, outcome, steps = _trajectory_reference(s0, cfg, max_steps)
        assert (out["outcome"], out["steps"]) == (outcome, steps)
        assert np.array_equal(out["staying"], staying)
        assert out["probabilities"].shape == probs.shape
        assert np.max(np.abs(out["probabilities"] - probs)) <= 1e-12


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
            u = np.array([trial_rngs(cfg.seed, t, t + 1)[0].random(30) for t in range(lo, hi)]).T
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

    @pytest.mark.parametrize("k0", [0.02, None])
    def test_draw_chunking_invariant(self, k0):
        # 600 trials over 1100 steps: a budget of 64 or 4096 gives the 8-column
        # floor, 20,000 gives 33 columns and the default the 512 cap, so every
        # budget refills several times at different steps
        s = hilbert.EnergySuperposition([0.0, 0.4, 0.5], np.sqrt([0.3, 0.3, 0.4]))
        cfg = CollapseConfig(k_mode="dynamic" if k0 is None else "frozen", k0=k0,
                             seed=16)
        ref = collapse.ensemble_statistics(s, cfg, 600, 1100, 100)
        for budget in (64, 4096, 20_000):
            with mock.patch.object(collapse, "DRAW_BUDGET", budget):
                res = collapse.ensemble_statistics(s, cfg, 600, 1100, 100)
            for key in ("mean_p", "se_p", "mean_pp", "se_pp"):
                assert np.array_equal(res[key], ref[key]), (budget, key)

    def test_degenerate_members_keep_their_ratio(self):
        # every trial splits the pair's weight as p0 does, so the means do too
        s = hilbert.EnergySuperposition([0.5, 0.5, 1.0], np.sqrt([0.1, 0.3, 0.6]))
        cfg = CollapseConfig(k_mode="dynamic", seed=12)
        res = collapse.ensemble_statistics(s, cfg, 600, 40, 10)
        ratio = res["mean_p"][:, 0] / res["mean_p"][:, 1]
        assert np.allclose(ratio, 1.0 / 3.0, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_steps", [0, 30, 37], ids=["zero", "multiple", "non-multiple"])
    def test_slices_at_every_stride_and_the_last_step(self, n_steps):
        cfg = CollapseConfig(k_mode="frozen", k0=0.1, seed=3)
        res = collapse.ensemble_statistics(equal_two_level(), cfg, 8, n_steps, 10)
        expect = sorted(set(range(0, n_steps + 1, 10)) | {n_steps})
        assert res["steps"].dtype == np.int64 and res["steps"].tolist() == expect
        assert res["mean_p"].shape == (len(expect), 2)


def reference_outcome(s0, cfg, trial, max_steps):
    """One trial on Python floats: k, the staying branch and the update
    written out directly, one uniform per step from the trial's stream.
    Returns (outcome, step), or (None, step) where k fails k <= 1."""
    rng = trial_rngs(cfg.seed, trial, trial + 1)[0]
    p = [float(x) for x in s0.probabilities]
    e = [float(x) for x in s0.energies]
    for step in range(max_steps + 1):
        top = max(p)
        if top > 1.0 - collapse.COLLAPSE_EPSILON:
            return p.index(top), step
        if step == max_steps:
            return -1, max_steps
        if cfg.k_mode == "frozen":
            k = cfg.k0
        else:  # shifted by E_0, two passes
            d = [ei - e[0] for ei in e]
            mean = sum(pi * di for pi, di in zip(p, d))
            var = sum(pi * (di - mean) ** 2 for pi, di in zip(p, d))
            k = math.sqrt(max(var, 0.0))
        if not k <= 1.0:
            return None, step
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


STRENGTH_RUNNERS = [
    lambda s, cfg: collapse.ensemble_outcomes(s, cfg, 10, 10),
    lambda s, cfg: collapse.ensemble_statistics(s, cfg, 10, 10, 5),
    lambda s, cfg: collapse.run_trajectory(s, cfg, 10),
]


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
    # the default budget, not the 512 cap, limits 1100 trials to 476-step chunks
    @example(([0.0, 1.0], [0.5, 0.5], 0.3, 1e-6, 1100, 600, 6, collapse.DRAW_BUDGET))
    # dynamic k (which fades as a trial collapses, hence the wide epsilon)
    # with a chunk refill every 8 steps
    @example(([0.0, 0.3, 0.35, 0.9], [0.4, 0.1, 0.2, 0.3], None, 1e-2, 200, 400, 3, 64))
    def test_matches_scalar_reference(self, case):
        energies, weights, k0, eps, n_trials, max_steps, seed, budget = case
        w = np.asarray(weights) / np.sum(weights)
        s0 = hilbert.EnergySuperposition(energies, np.sqrt(w))
        cfg = CollapseConfig(k_mode="dynamic" if k0 is None else "frozen", k0=k0, seed=seed)
        # a patched budget shrinks the draw chunks down to 8 steps
        with mock.patch.object(collapse, "DRAW_BUDGET", budget), \
                mock.patch.object(collapse, "COLLAPSE_EPSILON", eps):
            res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps)
            ref = np.array([reference_outcome(s0, cfg, t, max_steps)
                            for t in range(n_trials)])
        assert np.array_equal(res["outcomes"], ref[:, 0])
        assert np.array_equal(res["steps"], ref[:, 1])

    @given(trajectory_cases(), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    # frozen k too weak for the cap: trial 0 never collapses
    @example(([0.0, 1.0], [0.5, 0.5], 0.05, 1e-6, 30, 3), 5)
    # a degenerate pair, dynamic k and a wide epsilon
    @example(([0.2, 0.2, 0.7], [0.3, 0.2, 0.5], None, 1e-2, 3000, 15), 12)
    def test_trajectory_is_trial_0(self, case, n_trials):
        # both runners read their outcome off the one collapse test of the
        # walk; a trajectory that never collapses is trial 0's -1
        energies, weights, k0, eps, max_steps, seed = case
        w = np.asarray(weights) / np.sum(weights)
        s0 = hilbert.EnergySuperposition(energies, np.sqrt(w))
        cfg = CollapseConfig(k_mode="dynamic" if k0 is None else "frozen", k0=k0, seed=seed)
        with mock.patch.object(collapse, "COLLAPSE_EPSILON", eps):
            out = collapse.run_trajectory(s0, cfg, max_steps)
            res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps)
        outcome = -1 if out["outcome"] is None else out["outcome"]
        assert (outcome, out["steps"]) == (res["outcomes"][0], res["steps"][0])

    def test_super_planckian_names_step_and_trial(self):
        # k = 0.36 at step 0; a trial that stays in branch 1 reaches k > 1
        s = hilbert.EnergySuperposition([0.0, 2.1], np.sqrt([0.97, 0.03]))
        cfg = CollapseConfig(k_mode="dynamic", seed=14)
        p0 = s.probabilities
        first = next(t for t in range(50)
                     if trial_rngs(cfg.seed, t, t + 1)[0].random() * (p0[0] + p0[1]) >= p0[0])
        with pytest.raises(SuperPlanckianError, match=r"^k = dE\*t_P/hbar = 1\.02 > 1 "
                                                      f"at step 1 in trial {first}$") as exc:
            collapse.ensemble_outcomes(s, cfg, 50, 100)
        assert (exc.value.step, exc.value.trial) == (1, first)

    def test_guard_names_its_trial_after_others_left(self):
        # a far branch at E = 5 sends k past 1 once a trial stays in it; most
        # trials cross the 0.9 threshold within a few steps, and a 64-entry
        # budget refills (and compacts) every 8 steps, so the guard fires on
        # a compacted array where the trial's column is below its index
        s = hilbert.EnergySuperposition([0.0, 0.15, 5.0], np.sqrt([0.88, 0.119, 0.001]))
        cfg = CollapseConfig(k_mode="dynamic", seed=2)
        with mock.patch.object(collapse, "DRAW_BUDGET", 64), \
                mock.patch.object(collapse, "COLLAPSE_EPSILON", 0.1):
            refs = [reference_outcome(s, cfg, t, 60) for t in range(50)]
            with mock.patch.object(collapse, "_strength", wraps=collapse._strength) as strength, \
                    pytest.raises(SuperPlanckianError) as exc:
                collapse.ensemble_outcomes(s, cfg, 50, 60)
        first_bad = min((step, t) for t, (outcome, step) in enumerate(refs) if outcome is None)
        assert first_bad == (16, 41)
        assert sum(outcome is not None and step <= 8 for outcome, step in refs[:41]) >= 30
        assert (exc.value.step, exc.value.trial) == first_bad
        trials = strength.call_args.args[3]
        assert trials.size < 50 and np.flatnonzero(trials == 41)[0] < 41

    @pytest.mark.parametrize("case", [
        # frozen k: every trial crosses well before the step cap
        ([0.0, 1.0], [0.5, 0.5], 0.3, 200, 400),
        # frozen k too weak for the cap: many trials end at max_steps
        ([0.0, 0.5, 1.0], [0.2, 0.3, 0.5], 0.05, 50, 300),
        # dynamic k
        ([0.0, 0.8], [0.3, 0.7], None, 100, 20_000),
        # p0 already past the threshold: no step runs
        ([0.0, 1.0], [1.0, 1e-9], 0.3, 20, 50),
    ])
    def test_kernel_runs_once_per_step_of_the_slowest_trial(self, case):
        energies, weights, k0, n_trials, max_steps = case
        s = hilbert.EnergySuperposition(energies, np.sqrt(np.asarray(weights) / np.sum(weights)))
        cfg = CollapseConfig(k_mode="dynamic" if k0 is None else "frozen", k0=k0, seed=17)
        with mock.patch.object(collapse, "_collapse_kernel",
                               wraps=collapse._collapse_kernel) as kernel:
            res = collapse.ensemble_outcomes(s, cfg, n_trials, max_steps)
        assert kernel.call_count == int(res["steps"].max())

    @pytest.mark.parametrize("run", STRENGTH_RUNNERS)
    def test_nan_strength_rejected(self, run):
        # every runner names trial 0, the single trajectory included
        for energies, weights, value in [
            # the squared deviation overflows: an infinite spread
            ([0.0, 1e200], [0.5, 0.5], "inf"),
            # an empty branch at 1e200 contributes 0 * inf: a NaN spread
            ([0.0, 1.0, 1e200], [0.5, 0.5, 0.0], "nan"),
            # the shift by E_0 overflows: inf - inf in the deviations, a NaN spread
            ([-1e308, 1e308], [0.5, 0.5], "nan"),
        ]:
            s = hilbert.EnergySuperposition(energies, np.sqrt(weights))
            with pytest.raises(NumericFailure, match=r"^k = dE\*t_P/hbar is "
                                                     f"{value} at step 0 in trial 0$") as exc:
                run(s, CollapseConfig(k_mode="dynamic"))
            assert (exc.value.step, exc.value.trial) == (0, 0)

    def test_degenerate_energies_merged(self):
        # [1, 1, 2] runs as the merged state [1, 2], reporting the pair's first
        # member; (3/8)^2 + (4/8)^2 = (5/8)^2 exactly, so the pair's weights
        # sum to the merged weight bit for bit
        cfg = CollapseConfig(k_mode="dynamic", seed=15)
        rest = math.sqrt(1.0 - 0.625**2)
        split = hilbert.EnergySuperposition([1.0, 1.0, 2.0], [0.375, 0.5, rest])
        merged = hilbert.EnergySuperposition([1.0, 2.0], [0.625, rest])
        assert np.array_equal(np.bincount([0, 0, 1], weights=split.probabilities),
                              merged.probabilities)
        with mock.patch.object(collapse, "COLLAPSE_EPSILON", 1e-2):
            res = collapse.ensemble_outcomes(split, cfg, 300, 2000)
            ref = collapse.ensemble_outcomes(merged, cfg, 300, 2000)
        assert np.all(ref["outcomes"] >= 0)
        assert np.array_equal(res["outcomes"], np.array([0, 2])[ref["outcomes"]])
        assert np.array_equal(res["steps"], ref["steps"])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ContractViolation):
            collapse.ensemble_outcomes(equal_two_level(), CollapseConfig(), 0, 10)


class TestZeroColumn:
    # zero columns (trials that left the walk) among live ones, stepped for
    # 12 instants with the edge draws 0 and 1 - 2^-53 among theirs; up to
    # 100 columns, so that the live columns alone may take _running_sum's
    # accumulate while the whole array takes its row loop
    @given(st.integers(2, 4), st.lists(st.booleans(), min_size=2, max_size=100),
           st.one_of(st.none(), st.sampled_from([0.05, 0.3, 1.0])), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_zeroed_column_is_inert(self, m, zero, k0, seed):
        zero = np.array(zero)
        assume(zero.any() and not zero.all())
        gen = np.random.Generator(np.random.PCG64(seed))
        energies = gen.random(m)
        e = (energies - energies[0])[:, None]
        p = gen.random((m, zero.size)) + 1e-3
        p /= p.sum(axis=0)
        p[:, zero] = 0.0
        live = p[:, ~zero]
        for step in range(12):
            u = gen.random(zero.size)
            u[zero] = gen.choice([0.0, 0.5, 1.0 - 2.0**-53], int(zero.sum()))
            if k0 is None:  # k in [0, 0.5] on live columns: energies in [0, 1)
                k = collapse._strength(p, e, step, np.arange(zero.size))
                k_live = collapse._strength(live, e, step, np.arange(live.shape[1]))
                assert np.all(k[zero] == 0.0)
                assert k[~zero].tobytes() == k_live.tobytes()
            else:
                k = k_live = k0
            stay = collapse._collapse_kernel(p, u, k)
            stay_live = collapse._collapse_kernel(live, u[~zero], k_live)
            assert p[:, zero].tobytes() == bytes(8 * m * int(zero.sum()))
            assert not stay[:, zero].any()
            assert p[:, ~zero].tobytes() == live.tobytes()
            assert np.array_equal(stay[:, ~zero], stay_live)


class TestCollapseTime:
    def test_reference_values(self):
        assert collapse.collapse_time(1e-6) == pytest.approx(8.04e24, rel=0.01)
        assert collapse.collapse_time(8.6e-6) == pytest.approx(1.087e23, rel=0.01)
        assert collapse.collapse_time(2.5e11) == pytest.approx(1.286e-10, rel=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            collapse.collapse_time(0.0)

    def test_relativistic_factor(self):
        base = collapse.collapse_time(1.0)
        assert collapse.relativistic_collapse_time(1.0, 0.0) == base
        third = collapse.relativistic_collapse_time(1.0, constants.C_M_S / 3.0)
        assert third / base == pytest.approx(9.0 / 16.0, abs=1e-12)

    def test_rejects_superluminal(self):
        with pytest.raises(ContractViolation):
            collapse.relativistic_collapse_time(1.0, constants.C_M_S)


def forced_step(p, stay, k):
    """_collapse_kernel on the single column p with the draw u set to the
    middle of branch stay's share of the running sum; returns (P', stay
    mask)."""
    cum = np.cumsum(p)
    lo = cum[stay - 1] if stay > 0 else 0.0
    col = np.array(p, dtype=np.float64)[:, None]
    mask = collapse._collapse_kernel(col, np.array([0.5 * (lo + cum[stay]) / cum[-1]]), k)
    return col[:, 0], mask[:, 0]


class TestScaleInvariance:
    def test_singleton_grouping(self):
        # every branch on its own follows P' = P + k (1[stay] - P)
        s = hilbert.EnergySuperposition([0.0, 0.3, 0.6],
                                        np.sqrt([0.2, 0.5, 0.3]))
        p = s.probabilities
        k = collapse._strength(p, s.energies)
        p_new, mask = forced_step(p, 1, k)
        assert np.array_equal(mask, [False, True, False])
        assert np.allclose(p_new, p + k * (mask - p), atol=1e-15)

    def test_pairwise_grouping(self):
        # the pairs {0, 1} and {2, 3} move as two branches would
        s = hilbert.EnergySuperposition([0.0, 0.2, 0.4, 0.6],
                                        np.sqrt([0.25, 0.25, 0.25, 0.25]))
        p = s.probabilities
        k = collapse._strength(p, s.energies)
        p_new, mask = forced_step(p, 0, k)
        assert mask[0] and mask.sum() == 1
        for rows, held in (([0, 1], 1.0), ([2, 3], 0.0)):
            q = p[rows].sum()
            assert p_new[rows].sum() == pytest.approx(q + k * (held - q), abs=1e-15)

    # up to 200 columns, so that the kernel takes running_sum's row loop too
    @given(st.integers(1, 10), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_partitions(self, m, n, seed):
        # any grouping G of the branches follows the same two-level update:
        # sum_G P' = sum_G P + k (1[stay in G] - sum_G P)
        gen = np.random.Generator(np.random.PCG64(seed))
        p = gen.random((m, n)) + 1e-3
        p /= p.sum(axis=0)
        k = gen.random(n)
        p_new = p.copy()
        stay = collapse._collapse_kernel(p_new, gen.random(n), k)
        assert np.all(stay.sum(axis=0) == 1)
        for _ in range(5):
            label = gen.integers(0, gen.integers(1, m + 1), m)
            for g in np.unique(label):
                rows = label == g
                q = p[rows].sum(axis=0)
                expected = q + k * (stay[rows].any(axis=0) - q)
                assert np.max(np.abs(p_new[rows].sum(axis=0) - expected)) <= 1e-15


class TestConfig:
    def test_frozen_requires_k0(self):
        with pytest.raises(ContractViolation):
            CollapseConfig(k_mode="frozen")

    @pytest.mark.parametrize("seed", [1.5, True, False, -1, 2**64, 2**64 + 1, "1", None])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        with pytest.raises(ContractViolation, match="seed"):
            CollapseConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_range_accepted(self, seed):
        assert CollapseConfig(k_mode="frozen", k0=0.5, seed=seed).seed == seed
