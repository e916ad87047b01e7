"""Acceptance criteria as callable checks.

Each criterion_* function runs one end-to-end scenario at its stated
tolerance and returns {"id", "name", "passed", "detail"}.  The pytest
acceptance module asserts on these; `rdmsim verify --pack` runs the same
functions from the bundled scenario pack.  All randomness is seeded, so
the outcomes are reproducible.
"""

import numpy as np
from scipy import stats

from . import beable, collapse, frames, hilbert, protective, rdm, schrodinger
from .collapse import CollapseConfig

# (name, energy spread [eV], quoted target [s], allowed ratio)
TAU_C_TABLE = [
    ("photon_linewidth", 1.0e-6, 1.0e25, 10.0),
    ("squid_supercurrent", 8.6e-6, 1.0e23, 10.0),
    ("ta180_isomer_gap", 7.5e4, 1.2e3, 10.0),
    ("geiger_counter", 1.0e9, 1.0e-5, 10.0),
    ("avalanche_photodiode", 2.5e11, 1.25e-10, 3.0),
    ("single_neuron", 1.0e4, 1.0e5, 10.0),
]


def _report(cid, name, passed, detail):
    return {"id": cid, "name": name, "passed": bool(passed), "detail": detail}


def _fit_loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])


def criterion_1_collapse_time_table():
    """Deterministic calculator values against the quoted targets."""
    cfg = CollapseConfig.physical()
    rows = []
    ok = True
    for name, de, target, factor in TAU_C_TABLE:
        tau = collapse.collapse_time(de, cfg)
        ratio = tau / target
        good = 1.0 / factor <= ratio <= factor
        ok &= good
        rows.append(f"{name}: tau_c={tau:.3g}s target={target:.3g}s ratio={ratio:.2f}")
    return _report(1, "collapse-time table", ok, "; ".join(rows))


def criterion_2_born_martingale(n_trials=10_000, seed=20):
    """Outcome frequencies and the conserved ensemble mean of P_1."""
    s0 = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.3, 0.7]))
    cfg = CollapseConfig(k_mode="frozen", k0=0.05, seed=seed)
    res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps=20_000)
    if np.any(res["outcomes"] < 0):
        return _report(2, "Born-rule martingale", False, "some trials never collapsed")
    freq = float(np.mean(res["outcomes"] == 0))
    sigma = np.sqrt(0.3 * 0.7 / n_trials)
    freq_ok = abs(freq - 0.3) <= 3.0 * sigma

    stats_res = collapse.ensemble_statistics(s0, cfg, n_trials, n_steps=200,
                                             slice_stride=20)
    mean_p1 = stats_res["mean_p"][1:, 0]  # skip step 0 (SE = 0 there)
    se_p1 = stats_res["se_p"][1:, 0]
    mean_ok = bool(np.all(np.abs(mean_p1 - 0.3) <= 3.0 * se_p1))
    detail = (f"outcome-0 freq {freq:.4f} vs 0.3 (3sig={3*sigma:.4f}); "
              f"max |meanP1-0.3|/SE = {np.max(np.abs(mean_p1-0.3)/se_p1):.2f}")
    return _report(2, "Born-rule martingale", freq_ok and mean_ok, detail)


def criterion_3_offdiagonal_decay(n_trials=10_000, seed=21):
    """mean P1 P2 tracks (1-k^2)^n from 0.25 at frozen k = 0.1."""
    s0 = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))
    cfg = CollapseConfig(k_mode="frozen", k0=0.1, seed=seed)
    res = collapse.ensemble_statistics(s0, cfg, n_trials, n_steps=100, slice_stride=10)
    ok = True
    rows = []
    for target_step in (10, 50, 100):
        idx = int(np.flatnonzero(res["steps"] == target_step)[0])
        mean_pp = float(res["mean_pp"][idx, 0])
        se = float(res["se_pp"][idx, 0])
        expect = (1.0 - 0.1**2) ** target_step * 0.25
        good = abs(mean_pp - expect) <= 3.0 * se
        ok &= good
        rows.append(f"n={target_step}: {mean_pp:.5f} vs {expect:.5f} (3SE={3*se:.5f})")
    return _report(3, "off-diagonal decay", ok, "; ".join(rows))


def criterion_4_collapse_time_scaling(seed=22):
    """median steps-to-collapse * k^2 constant within a factor 3."""
    s0 = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))
    products = {}
    for k0, n_trials, cap in ((0.01, 1500, 200_000), (0.03, 3000, 40_000),
                              (0.1, 6000, 8_000)):
        cfg = CollapseConfig(k_mode="frozen", k0=k0, seed=seed)
        res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps=cap)
        if np.any(res["outcomes"] < 0):
            return _report(4, "collapse-time scaling", False,
                           f"k={k0}: cap {cap} too small")
        products[k0] = float(np.median(res["steps"])) * k0**2
    vals = np.array(list(products.values()))
    spread = float(vals.max() / vals.min())
    detail = ", ".join(f"k={k}: median*k^2={v:.2f}" for k, v in products.items())
    return _report(4, "collapse-time scaling", spread <= 3.0,
                   f"{detail}; max/min={spread:.2f}")


def _protective_setup(n_projections, g_profile="constant"):
    psi = hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    a = hilbert.HermitianOperator(np.diag([1.0, 0.0]))
    pointer = protective.PointerState.gaussian(x_min=-40.0, dx=80.0 / 512, n=512,
                                               x0=0.0, w0=5.0)
    return protective.ProtectiveSetup(psi, a, n_projections, tau=1.0,
                                      pointer=pointer, g_profile=g_profile)


def criterion_5_protective_convergence():
    """Shift -> <A>, survival -> 1, width preserved, 1/N rates."""
    n_list = (100, 1000, 10_000)
    shifts, survivals, widths = [], [], []
    for n in n_list:
        out = protective.zeno_protective_run(_protective_setup(n))
        shifts.append(out["pointer_shift"])
        survivals.append(out["survival_probability"])
        widths.append(out["width_ratio"])
    shift_err = np.abs(np.array(shifts) - 0.5)
    deficit = 1.0 - np.array(survivals)
    shift_ok = shift_err[-1] <= 1e-3
    # survival deficit must fall off as 1/N
    surv_slope = _fit_loglog_slope(n_list, deficit)
    surv_ok = abs(surv_slope + 1.0) <= 0.2
    # the post-selected shift error for this symmetric pair sits at the
    # float floor; accept either a fitted slope <= -0.8 or the floor,
    # both of which satisfy the <= C/N envelope
    if np.all(shift_err < 1e-9):
        shift_rate_ok = True
        shift_note = "shift error at numerical floor (faster than 1/N)"
    else:
        slope = _fit_loglog_slope(n_list, np.maximum(shift_err, 1e-16))
        shift_rate_ok = slope <= -0.8
        shift_note = f"shift-error slope {slope:.2f}"
    width_ok = abs(widths[-1] - 1.0) < 1e-6
    ok = shift_ok and surv_ok and shift_rate_ok and width_ok
    detail = (f"shift(1e4)={shifts[-1]:.6f}; survival slope {surv_slope:.2f}; "
              f"{shift_note}; width ratio-1 = {widths[-1]-1:.2e}")
    return _report(5, "protective convergence", ok, detail)


def _rabi_system():
    h = hilbert.HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
    psi0 = hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))
    return h, psi0


def criterion_6_beable_equivariance(n_traj=10_000, seed=23):
    """Ensembles track |psi(t)|^2; rates satisfy the defining relation;
    homogeneous noise leaves slice distributions unchanged."""
    h, psi0 = _rabi_system()
    dt, steps, every = 0.005, 1200, 120
    rec_steps, sites, p_rows = beable.ensemble_jump_run(
        h, psi0, n_traj, dt, steps, seed=seed, record_every=every)
    chi_ok = True
    worst_p = 1.0
    for row in range(1, len(rec_steps)):
        counts = np.bincount(sites[row], minlength=2)
        expected = n_traj * p_rows[row]
        stat = stats.chisquare(counts, f_exp=expected)
        worst_p = min(worst_p, float(stat.pvalue))
        chi_ok &= stat.pvalue > 0.001

    # defining relation residual over the same sweep, with and without noise
    amps = psi0.amplitudes.copy()
    u = beable.unitary_step_matrix(h, dt, 1.0)
    residual = 0.0
    for _ in range(steps):
        state = hilbert.ComplexVectorState(amps)
        j = beable.probability_current(h, state)
        p = np.abs(amps) ** 2
        for noise in (0.0, 1.0):
            t = beable.bell_transition_rates(j, p)
            if noise:
                t = beable.add_homogeneous_noise(t, p, noise)
            lhs = j / 1.0
            rhs = t.rates * p[None, :] - t.rates.T * p[:, None]
            residual = max(residual, float(np.max(np.abs(lhs - rhs))))
        amps = u @ amps
    rel_ok = residual < 1e-10

    # noise run: same dynamics, independent seed, c = 1
    _, sites_noise, _ = beable.ensemble_jump_run(
        h, psi0, n_traj, dt, steps, seed=seed + 1, noise_c=1.0, record_every=every)
    noise_ok = True
    worst_noise_p = 1.0
    for row in range(1, len(rec_steps)):
        table = np.array([np.bincount(sites[row], minlength=2),
                          np.bincount(sites_noise[row], minlength=2)])
        pval = float(stats.chi2_contingency(table).pvalue)
        worst_noise_p = min(worst_noise_p, pval)
        noise_ok &= pval > 0.001
    ok = chi_ok and rel_ok and noise_ok
    detail = (f"min chi2 p={worst_p:.4f}; relation residual={residual:.1e}; "
              f"min noise-invariance p={worst_noise_p:.4f}")
    return _report(6, "beable equivariance", ok, detail)


def criterion_7_rdm_ergodicity(seed=24):
    """Two-box occupancy and the O(1/sqrt(n)) density convergence."""
    traj = rdm.sample_stays([0.3, 0.7], 100_000, seed=seed)
    frac = float(np.mean(traj.stays == 0))
    sigma = np.sqrt(0.3 * 0.7 / traj.instants)
    box_ok = abs(frac - 0.3) <= 3.0 * sigma

    rng = np.random.Generator(np.random.PCG64(99))
    source = rng.random(16)
    source /= source.sum()
    ns = (1000, 10_000, 100_000)
    tv_mean = []
    for n in ns:
        tvs = [rdm.total_variation(
                   rdm.empirical_density(rdm.sample_stays(source, n, seed=seed + 7 * r)),
                   source)
               for r in range(8)]
        tv_mean.append(np.mean(tvs))
    slope = _fit_loglog_slope(ns, tv_mean)
    slope_ok = abs(slope + 0.5) <= 0.1
    detail = f"box-1 freq {frac:.4f} (3sig={3*sigma:.4f}); TV slope {slope:.3f}"
    return _report(7, "ergodic sampling", box_ok and slope_ok, detail)


def _entangled_trajectory(a_sq, n, seed):
    spec = [
        (a_sq, (0.0, 50.0), (10_000.0, 10_050.0)),
        (1.0 - a_sq, (50.0, 100.0), (10_050.0, 10_100.0)),
    ]
    return rdm.sample_entangled_stays(spec, n, seed=seed)


def criterion_8_entanglement_frames(n=100_000, seed=25):
    """Exact home-frame synchronicity; boosted reversal 2|ab|^2."""
    ok = True
    rows = []
    for a_sq in (0.5, 0.9):
        traj = _entangled_trajectory(a_sq, n, seed)
        home = frames.boosted_correlation_stats(traj, v=0.0)
        if home["reversed_fraction"] != 0.0:
            ok = False
            rows.append(f"a^2={a_sq}: home-frame reversal nonzero")
            continue
        boosted = frames.boosted_correlation_stats(traj, v=0.5)
        expect = 2.0 * a_sq * (1.0 - a_sq)
        sigma = np.sqrt(max(expect * (1.0 - expect), 1e-12) / boosted["pairs"])
        good = abs(boosted["reversed_fraction"] - expect) <= 3.0 * sigma
        ok &= good
        rows.append(f"a^2={a_sq}: reversed {boosted['reversed_fraction']:.4f} "
                    f"vs {expect:.4f} (3sig={3*sigma:.4f}, pairs={boosted['pairs']})")
    return _report(8, "entanglement frame statistics", ok, "; ".join(rows))


def criterion_9_relativistic_anisotropy():
    """60 km/s frame change shifts tau_c fractionally by 4e-4."""
    cfg = CollapseConfig.physical()
    base = collapse.relativistic_collapse_time(1.0, 0.0, cfg)
    moved = collapse.relativistic_collapse_time(1.0, 60_000.0, cfg)
    frac = (base - moved) / base
    ok = abs(frac / 4e-4 - 1.0) <= 0.05
    return _report(9, "relativistic collapse anisotropy", ok,
                   f"fractional difference {frac:.6g} vs 4e-4")


def criterion_10_frame_algebra(seed=26):
    """Synchrony-general reduction, absolute-sync form, interval invariance."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst_reduction = 0.0
    for _ in range(200):
        t, x = rng.uniform(-1, 1, 2)
        v = rng.uniform(-0.99, 0.99)
        e = frames.Event(t, x)
        lt = frames.lorentz_transform(e, v)
        ew = frames.edwards_winnie_transform(e, frames.SynchronyParams(v=v))
        worst_reduction = max(worst_reduction, abs(lt.t - ew.t), abs(lt.x - ew.x))
    red_ok = worst_reduction < 1e-12

    worst_sync = 0.0
    for _ in range(200):
        t, x = rng.uniform(-1, 1, 2)
        v = rng.uniform(-0.99, 0.99)
        e = frames.Event(t, x)
        out = frames.edwards_winnie_transform(e, frames.absolute_sync_params(v))
        worst_sync = max(worst_sync, abs(out.t - t * np.sqrt(1 - v**2)))
    sync_ok = worst_sync < 1e-12

    worst_interval = 0.0
    for _ in range(10_000):
        t1, x1, t2, x2 = rng.uniform(-1, 1, 4)
        v = rng.uniform(-0.99, 0.99)
        e1, e2 = frames.Event(t1, x1), frames.Event(t2, x2)
        before = frames.interval(e1, e2)
        after = frames.interval(frames.lorentz_transform(e1, v),
                                frames.lorentz_transform(e2, v))
        worst_interval = max(worst_interval, abs(before - after))
    int_ok = worst_interval < 1e-12
    ok = red_ok and sync_ok and int_ok
    detail = (f"reduction residual {worst_reduction:.1e}; absolute-sync residual "
              f"{worst_sync:.1e}; interval residual {worst_interval:.1e}")
    return _report(10, "frame algebra", ok, detail)


def criterion_11_schrodinger_checks():
    """Free-packet width doubling, dispersion order, tomography order.

    The doubling time 2 m D^2 / hbar is exact for the width convention
    D^2 = sqrt(3) * sigma_rms^2 (see the analytic spreading law); the
    run checks the measured RMS-width ratio equals 2 within 2%.
    """
    sigma0 = 1.0
    n, length = 2048, 80.0
    psi = schrodinger.GridWavefunction.gaussian(-length / 2, length / n, n,
                                                center=0.0, sigma=sigma0)
    t_double = 2.0 * np.sqrt(3.0) * sigma0**2  # = 2 m D^2/hbar, D^2 = sqrt(3) sigma0^2
    steps = 200
    evolved = schrodinger.evolve_grid(psi, None, t_double / steps, steps)
    ratio = schrodinger.rms_width(evolved) / schrodinger.rms_width(psi)
    width_ok = abs(ratio - 2.0) <= 0.02 * 2.0

    p = 2.0 * np.pi * 3.0 / (2.0 * np.pi)  # mode 3 on the default grid
    r1 = schrodinger.dispersion_check(p, n_samples=128)
    r2 = schrodinger.dispersion_check(p, n_samples=256)
    disp_ratio = r1 / r2
    disp_ok = 3.4 <= disp_ratio <= 4.6

    truth = schrodinger.GridWavefunction.gaussian(-16.0, 32.0 / 4096, 4096,
                                                  center=0.5, sigma=2.5, momentum=0.5)
    e256 = protective.tomography(truth, 256)["l2_error"]
    e1024 = protective.tomography(truth, 1024)["l2_error"]
    tomo_ok = e256 < 1e-2 and 2.5 <= e256 / e1024 <= 6.5
    ok = width_ok and disp_ok and tomo_ok
    detail = (f"width ratio {ratio:.4f} vs 2; dispersion refinement ratio "
              f"{disp_ratio:.2f}; tomography err(256)={e256:.2e}, "
              f"err ratio {e256/e1024:.2f}")
    return _report(11, "grid evolution checks", ok, detail)


def criterion_12_nogo_constructions():
    """Exclusion table zero pattern and the invariant-unitary check."""
    table = hilbert.pbr_orthogonality_table()
    diag_zero = bool(np.all(np.diag(table) < 1e-12))
    off = table[~np.eye(4, dtype=bool)]
    off_pos = bool(np.all(off > 1e-12))
    per_line = (np.sum(table < 1e-12, axis=0) == 1).all() and \
               (np.sum(table < 1e-12, axis=1) == 1).all()
    hardy = hilbert.hardy_unitary_check()
    ok = diag_zero and off_pos and bool(per_line) and hardy["passed"]
    detail = (f"zeros on matching indices: {diag_zero}; others positive: {off_pos}; "
              f"unitary check residuals: {hardy['invariant_residual']:.1e}/"
              f"{hardy['flip_residual']:.1e}/{hardy['orthogonality_residual']:.1e}")
    return _report(12, "no-go constructions", ok, detail)


ALL_CRITERIA = [
    criterion_1_collapse_time_table,
    criterion_2_born_martingale,
    criterion_3_offdiagonal_decay,
    criterion_4_collapse_time_scaling,
    criterion_5_protective_convergence,
    criterion_6_beable_equivariance,
    criterion_7_rdm_ergodicity,
    criterion_8_entanglement_frames,
    criterion_9_relativistic_anisotropy,
    criterion_10_frame_algebra,
    criterion_11_schrodinger_checks,
    criterion_12_nogo_constructions,
]
