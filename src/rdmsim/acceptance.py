"""Acceptance criteria as callable checks.

Each criterion_* function checks one end-to-end scenario at its stated
tolerance and returns {"id", "name", "passed", "detail"}.  Criterion N
is entry N of ALL_CRITERIA, which `verify` reads at call time.  A
criterion whose bundled scenario NN_*.yaml produces data is called by
`cli.run_criterion` as fn(p, run): p is the parsed scenario, run its
handler's computation; a leg that overrides one scenario value runs
run({**p, key: value}).  Legs no subcommand can express are constants
here.  All randomness is seeded, so the outcomes are reproducible.
"""

import numpy as np

from . import beable, collapse, frames, hilbert, rdm, schrodinger
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
    rows = []
    ok = True
    for name, de, target, factor in TAU_C_TABLE:
        tau = collapse.collapse_time(de)
        ratio = tau / target
        good = 1.0 / factor <= ratio <= factor
        ok &= good
        rows.append(f"{name}: tau_c={tau:.3g}s target={target:.3g}s ratio={ratio:.2f}")
    return _report(1, "collapse-time table", ok, "; ".join(rows))


def criterion_2_born_martingale(p, run):
    """Outcome frequencies and the conserved ensemble mean of P_1."""
    s0, cfg, stats_res = run(p)
    n_trials, p1 = p["n_trials"], float(p["probabilities"][0])
    res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps=20_000)
    if np.any(res["outcomes"] < 0):
        return _report(2, "Born-rule martingale", False, "some trials never collapsed")
    freq = float(np.mean(res["outcomes"] == 0))
    sigma = np.sqrt(p1 * (1.0 - p1) / n_trials)
    freq_ok = abs(freq - p1) <= 3.0 * sigma

    mean_p1 = stats_res["mean_p"][1:, 0]  # skip step 0 (SE = 0 there)
    se_p1 = stats_res["se_p"][1:, 0]
    mean_ok = bool(np.all(np.abs(mean_p1 - p1) <= 3.0 * se_p1))
    detail = (f"outcome-0 freq {freq:.4f} vs {p1} (3sig={3*sigma:.4f}); "
              f"max |meanP1-{p1}|/SE = {np.max(np.abs(mean_p1-p1)/se_p1):.2f}")
    return _report(2, "Born-rule martingale", freq_ok and mean_ok, detail)


def criterion_3_offdiagonal_decay(p, run):
    """mean P1 P2 tracks (1-k^2)^n P1 P2 at frozen k (first, middle, last slice)."""
    _, cfg, res = run(p)
    start = p["probabilities"][0] * p["probabilities"][1]
    steps = res["steps"]
    ok = True
    rows = []
    for idx in (1, len(steps) // 2, len(steps) - 1):
        target_step = int(steps[idx])
        mean_pp = float(res["mean_pp"][idx, 0])
        se = float(res["se_pp"][idx, 0])
        expect = (1.0 - cfg.k0**2) ** target_step * start
        good = abs(mean_pp - expect) <= 3.0 * se
        ok &= good
        rows.append(f"n={target_step}: {mean_pp:.5f} vs {expect:.5f} (3SE={3*se:.5f})")
    return _report(3, "off-diagonal decay", ok, "; ".join(rows))


def criterion_4_collapse_time_scaling():
    """median steps-to-collapse * k^2 constant within a factor 3."""
    s0 = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))
    products = {}
    for k0, n_trials, cap in ((0.01, 1500, 200_000), (0.03, 3000, 40_000),
                              (0.1, 6000, 8_000)):
        cfg = CollapseConfig(k_mode="frozen", k0=k0, seed=22)
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


def criterion_5_protective_convergence(p, run):
    """Shift -> <A>, survival -> 1, width preserved, 1/N rates."""
    _, cols = run(p)
    n_list, shifts, widths = cols["N"], cols["shift"], cols["width_ratio"]
    shift_err = np.array(cols["shift_error"])
    deficit = 1.0 - np.array(cols["survival"])
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
    n, k = n_list[-1], round(np.log10(n_list[-1]))
    largest = f"1e{k}" if n == 10**k else str(n)
    detail = (f"shift({largest})={shifts[-1]:.6f}; survival slope {surv_slope:.2f}; "
              f"{shift_note}; width ratio-1 = {widths[-1]-1:.2e}")
    return _report(5, "protective convergence", ok, detail)


def criterion_6_beable_equivariance(p, run):
    """Ensembles track |psi(t)|^2; rates satisfy the defining relation;
    homogeneous noise leaves slice distributions unchanged."""
    h, psi0, _, slices = run(p)
    worst_p = min(s["p_value"] for s in slices)
    chi_ok = worst_p > 0.001

    # defining relation residual over the same sweep, with and without noise
    residual = 0.0
    for noise in (0.0, 1.0):
        for pr, j, t, _ in beable._rate_path(h, psi0, p["dt"], p["steps"], noise):
            rhs = t * pr[:-1, None, :] - np.swapaxes(t, 1, 2) * pr[:-1, :, None]
            residual = max(residual, float(np.max(np.abs(j - rhs))))
    rel_ok = residual < 1e-10

    # noise run: same dynamics, the next independent seed, c = 1, tested
    # against |psi(t)|^2 as the plain run is
    noise_slices = run({**p, "seed": p["seed"] + 1, "noise_c": 1.0})[3]
    worst_noise_p = min(s["p_value"] for s in noise_slices)
    noise_ok = worst_noise_p > 0.001
    ok = chi_ok and rel_ok and noise_ok
    detail = (f"min chi2 p={worst_p:.4f}; relation residual={residual:.1e}; "
              f"min noise-invariance p={worst_noise_p:.4f}")
    return _report(6, "beable equivariance", ok, detail)


def criterion_7_rdm_ergodicity(p, run):
    """Two-box occupancy and the O(1/sqrt(n)) density convergence."""
    traj, a_sq, seed = run(p), p["weights"][0], p["seed"]
    frac = float(np.mean(traj.stays == 0))
    sigma = np.sqrt(a_sq * (1.0 - a_sq) / traj.instants)
    box_ok = abs(frac - a_sq) <= 3.0 * sigma

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


def criterion_8_entanglement_frames(p, run):
    """Exact home-frame synchronicity; boosted reversal 2|ab|^2 (also at a^2 = 0.9)."""
    ok = True
    rows = []
    for a_sq in (p["a_sq"], 0.9):
        traj, boosted = run({**p, "a_sq": a_sq})
        home = frames.boosted_correlation_stats(traj, 0.0)
        if home["reversed_fraction"] != 0.0:
            ok = False
            rows.append(f"a^2={a_sq}: home-frame reversal nonzero")
            continue
        expect = boosted["expected_reversed"]
        sigma = np.sqrt(max(expect * (1.0 - expect), 1e-12) / boosted["pairs"])
        good = abs(boosted["reversed_fraction"] - expect) <= 3.0 * sigma
        ok &= good
        rows.append(f"a^2={a_sq}: reversed {boosted['reversed_fraction']:.4f} "
                    f"vs {expect:.4f} (3sig={3*sigma:.4f}, pairs={boosted['pairs']})")
    return _report(8, "entanglement frame statistics", ok, "; ".join(rows))


def criterion_9_relativistic_anisotropy():
    """60 km/s frame change shifts tau_c fractionally by 4e-4."""
    base = collapse.relativistic_collapse_time(1.0, 0.0)
    moved = collapse.relativistic_collapse_time(1.0, 60_000.0)
    frac = (base - moved) / base
    ok = abs(frac / 4e-4 - 1.0) <= 0.05
    return _report(9, "relativistic collapse anisotropy", ok,
                   f"fractional difference {frac:.6g} vs 4e-4")


def criterion_10_frame_algebra():
    """Synchrony-general reduction, absolute-sync form, interval invariance."""
    rng = np.random.Generator(np.random.PCG64(26))

    def draw(n, k):  # n rows of k coordinates in [-1, 1) and a velocity in [-0.99, 0.99)
        low = np.array([-1.0] * (k - 1) + [-0.99])
        return rng.uniform(low, -low, (n, k)).T

    t, x, v = draw(200, 3)
    e = frames.Event(t, x)
    lt = frames.lorentz_transform(e, v)
    ew = frames.edwards_winnie_transform(e, frames.SynchronyParams(v=v))
    worst_reduction = np.max(np.abs([lt.t - ew.t, lt.x - ew.x]))
    red_ok = worst_reduction < 1e-12

    t, x, v = draw(200, 3)
    out = frames.edwards_winnie_transform(frames.Event(t, x), frames.absolute_sync_params(v))
    worst_sync = np.max(np.abs(out.t - t * np.sqrt(1 - v**2)))
    sync_ok = worst_sync < 1e-12

    t1, x1, t2, x2, v = draw(10_000, 5)
    e1, e2 = frames.Event(t1, x1), frames.Event(t2, x2)
    before = frames.interval(e1, e2)
    after = frames.interval(frames.lorentz_transform(e1, v), frames.lorentz_transform(e2, v))
    worst_interval = np.max(np.abs(before - after))
    int_ok = worst_interval < 1e-12
    ok = red_ok and sync_ok and int_ok
    detail = (f"reduction residual {worst_reduction:.1e}; absolute-sync residual "
              f"{worst_sync:.1e}; interval residual {worst_interval:.1e}")
    return _report(10, "frame algebra", ok, detail)


def criterion_11_schrodinger_checks(p, run):
    """Free-packet width doubling, dispersion order, tomography order.

    The doubling time 2 D^2 (hbar = m = 1) is exact for the width convention
    D^2 = sqrt(3) * sigma_rms^2 (see the analytic spreading law); the
    run checks the measured RMS-width ratio equals 2 within 2%.
    """
    sigma0 = 1.0
    n, length = 2048, 80.0
    psi = schrodinger.GridWavefunction.gaussian(-length / 2, length / n, n,
                                                center=0.0, sigma=sigma0)
    t_double = 2.0 * np.sqrt(3.0) * sigma0**2  # = 2 D^2, D^2 = sqrt(3) sigma0^2
    steps = 200
    evolved = schrodinger.evolve_grid(psi, None, t_double / steps, steps)
    ratio = schrodinger.rms_width(evolved) / schrodinger.rms_width(psi)
    width_ok = abs(ratio - 2.0) <= 0.02 * 2.0

    r1 = schrodinger.dispersion_check(3.0, n_samples=128)  # p = 3: mode 3 of the 2 pi period
    r2 = schrodinger.dispersion_check(3.0, n_samples=256)
    disp_ratio = r1 / r2
    disp_ok = 3.4 <= disp_ratio <= 4.6

    # tomography: the scenario's regions and 4x as many
    e_coarse = run(p)["l2_error"]
    e_fine = run({**p, "n_regions": 4 * p["n_regions"]})["l2_error"]
    tomo_ok = e_coarse < 1e-2 and 2.5 <= e_coarse / e_fine <= 6.5
    ok = width_ok and disp_ok and tomo_ok
    detail = (f"width ratio {ratio:.4f} vs 2; dispersion refinement ratio "
              f"{disp_ratio:.2f}; tomography err({p['n_regions']})={e_coarse:.2e}, "
              f"err ratio {e_coarse/e_fine:.2f}")
    return _report(11, "grid evolution checks", ok, detail)


def _exclusion_table():
    """PBR's Born table |<phi_k|prod_j>|^2 and the largest deviation of
    the phi_k from orthonormal.  The rows are four entangled measurement
    states, the columns the product states {|0>,|+>}^2 ordered 00, 0+,
    +0, ++; state k is orthogonal to product state k."""
    k0, k1 = np.eye(2)
    kp, km = (k0 + k1) / np.sqrt(2.0), (k0 - k1) / np.sqrt(2.0)
    prods = np.array([np.kron(a, b) for a in (k0, kp) for b in (k0, kp)])
    phis = np.array([np.kron(a, b) + np.kron(c, d) for a, b, c, d in
                     ((k0, k1, k1, k0), (k0, km, k1, kp), (kp, k1, km, k0),
                      (kp, km, km, kp))]) / np.sqrt(2.0)
    return np.abs(phis @ prods.T) ** 2, float(np.max(np.abs(phis @ phis.T - np.eye(4))))


def criterion_12_nogo_constructions():
    """PBR: the exclusion table is zero exactly on its diagonal.  Hardy:
    U = diag(1, -1) leaves psi1 unchanged and maps (psi1+psi2)/sqrt(2) to
    the orthogonal (psi1-psi2)/sqrt(2)."""
    table, gram_dev = _exclusion_table()
    diag_zero = bool(np.all(np.diag(table) < 1e-12))
    off_pos = bool(np.all(table[~np.eye(4, dtype=bool)] > 1e-12))
    psi1, psi2 = np.eye(2)
    plus, minus = (psi1 + psi2) / np.sqrt(2.0), (psi1 - psi2) / np.sqrt(2.0)
    u = np.diag([1.0, -1.0])
    residuals = (np.max(np.abs(u @ psi1 - psi1)), np.max(np.abs(u @ plus - minus)),
                 abs(np.vdot(plus, minus)))
    ok = diag_zero and off_pos and gram_dev <= 1e-12 and max(residuals) < 1e-12
    detail = (f"zeros on matching indices: {diag_zero}; others positive: {off_pos}; "
              "unitary check residuals: " + "/".join(f"{r:.1e}" for r in residuals))
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
