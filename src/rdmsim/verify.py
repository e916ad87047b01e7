"""Built-in invariant suites behind `rdmsim verify`.

Each suite is a list of fast, seeded checks (name, ok, detail); the CLI
prints per-suite counts and fails the process if anything is red.  The
slower acceptance pack lives in rdmsim.acceptance.
"""

import numpy as np

from . import beable, collapse, frames, hilbert, io, protective, rdm, schrodinger
from .collapse import CollapseConfig
from .seeding import derive_seed, derive_seeds, trial_rngs


def _rand_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return hilbert.ComplexVectorState(v / np.linalg.norm(v))


def _rand_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hilbert.HermitianOperator((m + m.conj().T) / 2.0)


def suite_hilbert(rng):
    checks = []
    worst = 0.0
    for _ in range(50):
        s = _rand_state(rng, int(rng.integers(2, 6)))
        worst = max(worst, abs(np.sum(hilbert.born_probabilities(s)) - 1.0))
    checks.append(("born probabilities sum to 1", worst < 1e-10, f"worst {worst:.1e}"))

    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        s = _rand_state(rng, dim)
        a = _rand_hermitian(rng, dim)
        val = np.vdot(s.amplitudes, a.matrix @ s.amplitudes)
        worst = max(worst, abs(val.imag))
    checks.append(("expectation values real", worst < 1e-12, f"worst imag {worst:.1e}"))

    worst = 0.0
    for _ in range(50):
        e = rng.normal(size=2)
        p = rng.random()
        s = hilbert.EnergySuperposition(e, np.sqrt([p, 1 - p]))
        closed = np.sqrt(p * (1 - p)) * abs(e[0] - e[1])
        worst = max(worst, abs(hilbert.energy_uncertainty(s) - closed))
    checks.append(("two-level spread closed form", worst < 1e-12, f"worst {worst:.1e}"))
    return checks


def suite_schrodinger(rng):
    checks = []
    psi = schrodinger.GridWavefunction.gaussian(-20, 40 / 256, 256, 0.0, 1.5, momentum=0.8)
    v = 0.3 * np.cos(2 * np.pi * psi.x / psi.length)
    drift = 0.0
    cur = psi
    for _ in range(10):
        cur = schrodinger.evolve_grid(cur, v, 0.01, 100)
        drift = max(drift, abs(cur.dx * np.sum(np.abs(cur.samples) ** 2) - 1.0))
    checks.append(("norm drift over 1000 steps", drift < 1e-7, f"drift {drift:.1e}"))

    s = hilbert.EnergySuperposition([0.0, 1.3, 2.1], np.sqrt([0.2, 0.5, 0.3]))
    before = s.probabilities
    after = schrodinger.evolve_phases(s, 7.7).probabilities
    worst = float(np.max(np.abs(before - after)))
    checks.append(("phase evolution keeps probabilities", worst < 1e-15, f"{worst:.1e}"))

    # tails must fall below the support floor inside the domain, else the
    # winding phase meets the periodic wrap of the flux stencil
    worst = 0.0
    for _ in range(10):
        n, length = 65536, 16.0
        x = -length / 2 + (length / n) * np.arange(n)
        rho = np.exp(-((x - rng.uniform(-1.5, 1.5)) ** 2)
                     / (2 * rng.uniform(0.7, 1.0) ** 2))
        rho /= np.sum(rho) * (length / n)
        vfield = rng.uniform(-0.1, 0.1) + rng.uniform(0.05, 0.15) * np.sin(
            2 * np.pi * x / length)
        pair = schrodinger.DensityPair(-length / 2, length / n, rho, rho * vfield)
        rec = schrodinger.reconstruct_wavefunction(pair)
        rho2 = schrodinger.position_density(rec)
        j2 = schrodinger.flux_density(rec)
        worst = max(worst, float(np.max(np.abs(rho2 - rho))),
                    float(np.max(np.abs(j2 - pair.j))))
    checks.append(("density/flux round trip", worst < 1e-8, f"worst {worst:.1e}"))

    r1 = schrodinger.dispersion_check(2.0, n_samples=128)
    r2 = schrodinger.dispersion_check(2.0, n_samples=256)
    checks.append(("dispersion second order", 3.4 < r1 / r2 < 4.6, f"ratio {r1/r2:.2f}"))
    return checks


def suite_rdm(rng):
    checks = []
    t1 = rdm.sample_stays([0.2, 0.3, 0.5], 2000, seed=123)
    t2 = rdm.sample_stays([0.2, 0.3, 0.5], 2000, seed=123)
    checks.append(("seeded sampling reproducible",
                   bool(np.array_equal(t1.stays, t2.stays)), ""))

    psi = schrodinger.GridWavefunction.gaussian(-20, 40 / 256, 256, 0.0, 1.0)
    q = -1.0
    total = psi.dx * np.sum(rdm.effective_charge_density(psi, q))
    checks.append(("charge integrates to Q", abs(total - q) < 1e-8, f"{total:.12f}"))

    spec = [(0.4, (0.0, 1.0), (5.0, 6.0)), (0.6, (2.0, 3.0), (7.0, 8.0))]
    traj = rdm.sample_entangled_stays(spec, 5000, seed=7)
    in1 = ((traj.x1 >= 2.0) & (traj.x1 <= 3.0)).astype(int)
    in2 = ((traj.x2 >= 7.0) & (traj.x2 <= 8.0)).astype(int)
    sync = bool(np.array_equal(in1, traj.branches) and np.array_equal(in2, traj.branches))
    checks.append(("branch synchronicity exact", sync, ""))
    return checks


def suite_beable(rng):
    checks = []
    worst_anti = 0.0
    worst_rel = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        h = _rand_hermitian(rng, dim)
        s = _rand_state(rng, dim)
        j = beable.probability_current(h, s)
        worst_anti = max(worst_anti, float(np.max(np.abs(j + j.T))))
        p = np.abs(s.amplitudes) ** 2
        if np.min(p) < 1e-6:
            continue
        for c in (0.0, 1.0):
            t = beable.bell_transition_rates(j, p)
            if c:
                t = beable.add_homogeneous_noise(t, p, c)
            rhs = t.rates * p[None, :] - t.rates.T * p[:, None]
            worst_rel = max(worst_rel, float(np.max(np.abs(j - rhs))))
    checks.append(("current antisymmetry", worst_anti < 1e-12, f"worst {worst_anti:.1e}"))
    checks.append(("defining rate relation", worst_rel < 1e-10, f"worst {worst_rel:.1e}"))

    p = np.array([0.25, 0.375, 0.375])
    t = beable.TransitionRateMatrix(np.array([[0, 2.0, 0], [1.0, 0, 0.5], [0, 1.5, 0]]))
    p2 = beable.master_equation_step(p, t, 0.01)
    checks.append(("master step conserves probability",
                   abs(p2.sum() - 1.0) < 1e-15 and np.all(p2 >= 0), f"sum {p2.sum()!r}"))

    h = hilbert.HermitianOperator([[1.0, 0.0], [0.0, 2.0]])
    s = hilbert.ComplexVectorState([0.6, 0.8])
    traj = beable.jump_trajectory(h, s, 0, 0.01, 200, seed=5)
    checks.append(("eigenbasis start never jumps",
                   bool(np.all(traj.stays == 0)), ""))
    return checks


def suite_collapse(rng):
    checks = []
    cfg = CollapseConfig()
    worst_bound = 0.0
    worst_sum = 0.0
    gen = np.random.Generator(np.random.PCG64(3))
    # spread 0.71 keeps dynamic k = dE * t_P / hbar inside the k <= 1 regime
    s = hilbert.EnergySuperposition(0.5 * np.arange(5.0), np.sqrt(np.full(5, 0.2)))
    for _ in range(500):
        s, _ = collapse.collapse_step(s, cfg, gen)
        p = s.probabilities
        worst_bound = max(worst_bound, float(-p.min()), float(p.max() - 1.0))
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
    checks.append(("probability bounds", worst_bound <= 0.0, f"worst {worst_bound:.1e}"))
    checks.append(("probability sum", worst_sum < 1e-14, f"worst {worst_sum:.1e}"))

    s8 = hilbert.EnergySuperposition(0.25 * np.arange(8.0), np.sqrt(np.full(8, 0.125)))
    ok = True
    for _ in range(20):
        perm = rng.permutation(8)
        cuts = sorted(rng.choice(np.arange(1, 8), size=2, replace=False))
        grouping = [perm[: cuts[0]], perm[cuts[0]:cuts[1]], perm[cuts[1]:]]
        stay = int(rng.integers(0, 8))
        res = collapse.scale_invariance_check(s8, cfg, grouping, stay)
        ok &= res["passed"]
    checks.append(("scale invariance on random partitions", ok, ""))

    eig = hilbert.EnergySuperposition([4.0], [1.0])
    out = collapse.run_trajectory(eig, cfg, 50)
    checks.append(("eigenstate is a fixed point",
                   out["collapsed"] and out["steps"] == 0, ""))

    cfgp = CollapseConfig.physical()
    ratio = collapse.relativistic_collapse_time(1.0, cfgp.c / 3.0, cfgp) / \
        collapse.collapse_time(1.0, cfgp)
    checks.append(("frame factor (1+v/c)^-2", abs(ratio - 9.0 / 16.0) < 1e-12,
                   f"{ratio:.12f}"))
    return checks


def suite_protective(rng):
    checks = []
    psi = hilbert.ComplexVectorState([1.0, 0.0])
    a = hilbert.HermitianOperator(np.diag([0.7, -0.4]))
    pointer = protective.PointerState.gaussian(-40, 80 / 256, 256, 0.0, 5.0)
    setup = protective.ProtectiveSetup(psi, a, 50, 1.0, pointer)
    out = protective.zeno_protective_run(setup)
    checks.append(("eigenstate: exact shift and survival",
                   abs(out["pointer_shift"] - 0.7) < 1e-9
                   and abs(out["survival_probability"] - 1.0) < 1e-12,
                   f"shift {out['pointer_shift']:.2e}"))

    plus = hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2))
    proj = hilbert.HermitianOperator(np.diag([1.0, 0.0]))
    branches = protective.unprotected_measurement(
        protective.ProtectiveSetup(plus, proj, 1, 1.0, pointer))
    checks.append(("unprotected run stays entangled", len(branches) == 2,
                   f"{len(branches)} branches"))
    return checks


def suite_frames(rng):
    checks = []
    rng.random(5000)  # start 5000 draws in, so the residuals the verify report pins stay put
    t, x, v = rng.uniform([-1.0, -1.0, -0.99], [1.0, 1.0, 0.99], (200, 3)).T
    back = frames.lorentz_transform(frames.lorentz_transform(frames.Event(t, x), v), -v)
    worst = np.max(np.abs([back.t - t, back.x - x]))
    checks.append(("boost inverse", worst < 1e-12, f"worst {worst:.1e}"))

    k = np.linspace(-0.95, 0.95, 21)
    cp, cm, _, _ = frames.one_way_speeds(frames.SynchronyParams(v=0.1, k=k))
    worst = np.max(np.abs(2.0 / (1.0 / cp + 1.0 / cm) - 1.0))
    checks.append(("two-way speed invariant", worst < 1e-12, f"worst {worst:.1e}"))

    v = frames.simultaneity_frame(frames.Event(0, 0), frames.Event(1, 3))
    checks.append(("simultaneity frame velocity", abs(v - 1 / 3) < 1e-12, f"v {v}"))
    return checks


def suite_io(rng, tmpdir):
    import os

    checks = []
    traj = rdm.sample_stays([0.5, 0.5], 100, seed=1)
    path = os.path.join(tmpdir, "t.rdmt")
    io.write_trajectory_binary(path, traj)
    back = io.read_trajectory_binary(path)
    checks.append(("binary trajectory round trip",
                   bool(np.array_equal(back.stays, traj.stays))
                   and back.n_sites == traj.n_sites and back.seed == traj.seed, ""))

    amps = [[0.6, 0.0], [0.0, 0.8]]
    rebuilt = io.pairs_to_complex(io.complex_to_pairs(io.pairs_to_complex(amps)))
    checks.append(("json complex round trip",
                   bool(np.allclose(rebuilt, [0.6, 0.8j])), ""))
    return checks


def suite_seeding(rng):
    checks = []
    seeds = derive_seeds(12345, 0, 10_000)
    checks.append(("10k derived seeds distinct", np.unique(seeds).size == 10_000, ""))
    # the vectorised SeedSequence hash against the installed numpy's own
    same = all(np.array_equal(gen.random(8), np.random.Generator(
                   np.random.PCG64(derive_seed(master, t))).random(8))
               for master in (12345, 2**64 - 1)
               for t, gen in enumerate(trial_rngs(master, 0, 64)))
    checks.append(("vectorised trial generators match PCG64(derive_seed)", same, ""))
    return checks


def run_suites(tmpdir):
    rng = np.random.Generator(np.random.PCG64(2024))
    return {
        "hilbert": suite_hilbert(rng),
        "schrodinger": suite_schrodinger(rng),
        "rdm": suite_rdm(rng),
        "beable": suite_beable(rng),
        "collapse": suite_collapse(rng),
        "protective": suite_protective(rng),
        "frames": suite_frames(rng),
        "io": suite_io(rng, tmpdir),
        "seeding": suite_seeding(rng),
    }
