"""The benchmark's three workloads: inputs made from the seed, the jobs
that run them, and each job's output check.

Importing this module imports numpy and every rdmsim module, which is
the first part of the benchmark's set-up time; building a workload's
input sets is the second.

Every workload makes INPUT_SETS independent input sets from one seed,
and the runner cycles through them.  The collapse-tail run time depends
on its inputs (the slowest trial of each 256-trial block sets the
block's cost), so several sets keep one heavy or light set from
deciding a run; a set that comes round again must give identical
outputs.

Jobs call the library only through module attributes
(``collapse.ensemble_outcomes(...)``) so that the traced run, which
swaps those attributes, sees every call.  A job's ``run`` is timed; its
``prepare`` and ``check`` are not.  ``check`` returns None when the
outputs pass, else a one-line reason; it also receives the outputs of
the jobs before it in the same input set, for checks that span jobs,
and a list to which it adds notes that do not fail the job.

Statistical checks fail at 5 sigma (two-sided p below 1e-6) rather than
at the acceptance suite's 3 sigma (p below 1e-3): comparing two commits
takes about a hundred runs of a few dozen such tests each, and at
3 sigma about one run in twenty would fail by chance.  A result outside
the acceptance tolerance but inside the failure bound is reported as a
note.  A kernel whose statistics are wrong misses either bound by
orders of magnitude at these sample sizes.
"""

import dataclasses
import hashlib
import importlib
import json
import pkgutil
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import yaml
from scipy import stats

import rdmsim

for _mod in pkgutil.iter_modules(rdmsim.__path__):
    importlib.import_module(f"rdmsim.{_mod.name}")

from rdmsim import beable, cli, collapse, frames, hilbert, protective, rdm, schrodinger  # noqa: E402

INPUT_SETS = 3


@dataclass
class Job:
    name: str
    run: Callable  # run(tracer) -> outputs
    check: Callable  # check(outputs, earlier outputs by job name, notes) -> None or reason
    digest: Optional[Callable] = None  # digest(outputs) -> hex; default: the outputs
    prepare: Optional[Callable] = None


def derive(seed: int, *labels) -> int:
    """A 63-bit seed for one input, fixed by the benchmark seed and labels."""
    h = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def digest_data(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    else:
        h.update(repr(obj).encode())


FAIL_Z, NOTE_Z = 5.0, 3.0  # sigma bounds for a frequency (see the module notes)
FAIL_P, NOTE_P = 1e-6, 1e-3  # the same for a p-value


def _frequency(what, freq, p, n, notes):
    """Failure reason if freq is more than FAIL_Z sigma from p, else None;
    beyond NOTE_Z sigma (the acceptance tolerance) it adds a note."""
    z = (freq - p) / np.sqrt(p * (1.0 - p) / n)
    text = f"{what} {freq:.4f} is {z:+.2f} sigma from {p:.4f}"
    if abs(z) > FAIL_Z:
        return text
    if abs(z) > NOTE_Z:
        notes.append(text)
    return None


def _p_value(what, p, notes):
    text = f"{what} p = {p:.2g}"
    if not p > FAIL_P:
        return text
    if not p > NOTE_P:
        notes.append(text)
    return None


# --- collapse-tail ------------------------------------------------------

# (k0, trials, step cap): the k = 0.03 and k = 0.1 legs of criterion 4
COLLAPSE_LEGS = {"full": ((0.03, 3000, 40_000), (0.1, 6000, 8_000)),
                 "tiny": ((0.1, 256, 8_000), (0.3, 256, 1_000))}


def collapse_tail(seed, size, workdir):
    return [[_outcomes_job(k0, n, cap, derive(seed, r, "collapse", k0))
             for k0, n, cap in COLLAPSE_LEGS[size]]
            for r in range(INPUT_SETS)]


def _outcomes_job(k0, n_trials, cap, seed):
    def run(tracer):
        with tracer.span("hilbert.build"):
            s0 = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))
        cfg = collapse.CollapseConfig(k_mode="frozen", k0=k0, seed=seed)
        res = collapse.ensemble_outcomes(s0, cfg, n_trials, max_steps=cap)
        return {"k0": k0, "outcomes": res["outcomes"], "steps": res["steps"]}

    def check(out, earlier, notes):
        outcomes = out["outcomes"]
        if np.any(outcomes < 0):
            return f"{int(np.sum(outcomes < 0))} trials did not collapse within {cap} steps"
        for branch in (0, 1):
            miss = _frequency(f"branch {branch} frequency", float(np.mean(outcomes == branch)),
                              0.5, n_trials, notes)
            if miss:
                return miss
        # criterion 4: median steps-to-collapse * k^2 is the same across k
        prods = [float(np.median(o["steps"])) * o["k0"] ** 2
                 for o in list(earlier.values()) + [out]]
        if max(prods) > 3.0 * min(prods):
            return f"median*k^2 spread {max(prods) / min(prods):.2f} exceeds 3"
        return None

    return Job(f"outcomes-k{k0}", run, check)


# --- kernels-mix --------------------------------------------------------

KERNEL_SIZES = {
    "full": dict(n_traj=10_000, beable_steps=1200, record_every=120,
                 zeno_n=(100, 1000, 10_000), frames_n=100_000, scan_n=60_000,
                 grid_n=2048, grid_steps=200, tomo=(4096, 256, 1024), draws=1_000_000),
    # Zeno and tomography meet their criteria only at full size
    "tiny": dict(n_traj=500, beable_steps=120, record_every=12,
                 zeno_n=(100, 1000, 10_000), frames_n=8000, scan_n=500,
                 grid_n=256, grid_steps=20, tomo=(4096, 256, 1024), draws=10_000),
}


def kernels_mix(seed, size, workdir):
    z = KERNEL_SIZES[size]
    sets = []
    for r in range(INPUT_SETS):
        rng = np.random.Generator(np.random.PCG64(derive(seed, r, "weights")))
        weights16 = rng.random(16) + 0.1
        weights4 = rng.random(4) + 0.1
        sets.append([
            _beable_job("beable-plain", z, derive(seed, r, "beable"), 0.0),
            _beable_job("beable-noise", z, derive(seed, r, "beable-noise"), 1.0),
            _zeno_constant_job(z["zeno_n"]),
            _zeno_triangular_job(z["zeno_n"][-1]),
            _frames_entangled_job(z["frames_n"], derive(seed, r, "frames")),
            _appearance_scan_job(weights4 / weights4.sum(), z["scan_n"],
                                 derive(seed, r, "scan")),
            _grid_job(z["grid_n"], z["grid_steps"]),
            _tomography_job(*z["tomo"]),
            _rdm_job(weights16 / weights16.sum(), z["draws"], derive(seed, r, "rdm")),
        ])
    return sets


def _rabi_system():
    h = hilbert.HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
    return h, hilbert.ComplexVectorState(np.sqrt([0.7, 0.3]))


def _beable_job(name, z, seed, noise_c):
    n_traj = z["n_traj"]

    def run(tracer):
        with tracer.span("hilbert.build"):
            h, psi0 = _rabi_system()
        steps, sites, p_rows = beable.ensemble_jump_run(
            h, psi0, n_traj, 0.005, z["beable_steps"], seed=seed, noise_c=noise_c,
            record_every=z["record_every"])
        return {"steps": steps, "sites": sites, "p": p_rows}

    def check(out, earlier, notes):
        # criterion 6: every recorded slice tracks |psi(t)|^2 ...
        plain = earlier.get("beable-plain") if noise_c else None
        for row in range(1, len(out["steps"])):
            step = out["steps"][row]
            counts = np.bincount(out["sites"][row], minlength=2)
            miss = _p_value(f"step {step}: equivariance chi-square",
                            stats.chisquare(counts, f_exp=n_traj * out["p"][row]).pvalue,
                            notes)
            # ... and homogeneous noise leaves the slice distributions unchanged
            if not miss and plain is not None:
                table = [np.bincount(plain["sites"][row], minlength=2), counts]
                miss = _p_value(f"step {step}: noise invariance",
                                stats.chi2_contingency(table).pvalue, notes)
            if miss:
                return miss
        return None

    return Job(name, run, check)


def _zeno_setup(n, profile):
    psi = hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    a = hilbert.HermitianOperator(np.diag([1.0, 0.0]))
    pointer = protective.PointerState.gaussian(x_min=-40.0, dx=80.0 / 512, n=512,
                                               x0=0.0, w0=5.0)
    return protective.ProtectiveSetup(psi, a, n, tau=1.0, pointer=pointer, g_profile=profile)


def _zeno_outputs(runs):
    return {key: np.array([r[key] for r in runs])
            for key in ("pointer_shift", "survival_probability", "width_ratio")}


def _zeno_constant_job(n_list):
    def run(tracer):
        with tracer.span("hilbert.build"):
            setups = [_zeno_setup(n, "constant") for n in n_list]
        return _zeno_outputs([protective.zeno_protective_run(s) for s in setups])

    def check(out, earlier, notes):
        # criterion 5: shift -> <A> = 0.5, survival deficit ~ 1/N, width kept
        shift_err = np.abs(out["pointer_shift"] - 0.5)
        if shift_err[-1] > 1e-3:
            return f"shift error {shift_err[-1]:.2e} at N={n_list[-1]} exceeds 1e-3"
        logn = np.log(np.asarray(n_list, float))
        slope = np.polyfit(logn, np.log(1.0 - out["survival_probability"]), 1)[0]
        if abs(slope + 1.0) > 0.2:
            return f"survival-deficit slope {slope:.2f} is not -1 within 0.2"
        if not np.all(shift_err < 1e-9):  # below the float floor any rate passes
            rate = np.polyfit(logn, np.log(np.maximum(shift_err, 1e-16)), 1)[0]
            if rate > -0.8:
                return f"shift-error slope {rate:.2f} is above -0.8"
        if abs(out["width_ratio"][-1] - 1.0) >= 1e-6:
            return f"width ratio {float(out['width_ratio'][-1])!r} is not 1 within 1e-6"
        return None

    return Job("zeno-constant", run, check)


def _zeno_triangular_job(n):
    def run(tracer):
        with tracer.span("hilbert.build"):
            setup = _zeno_setup(n, "triangular")
        return _zeno_outputs([protective.zeno_protective_run(setup)])

    def check(out, earlier, notes):
        shift_err = abs(float(out["pointer_shift"][0]) - 0.5)
        if shift_err > 1e-3:
            return f"triangular shift error {shift_err:.2e} exceeds 1e-3"
        if abs(float(out["width_ratio"][0]) - 1.0) >= 1e-6:
            return "triangular width ratio is not 1 within 1e-6"
        if float(out["survival_probability"][0]) < 0.5:
            return "triangular protection failed (survival < 0.5)"
        return None

    return Job("zeno-triangular", run, check)


def _frames_entangled_job(n, seed):
    a_sqs = (0.5, 0.9)

    def run(tracer):
        out = {}
        for a_sq in a_sqs:
            spec = [(a_sq, (0.0, 50.0), (10_000.0, 10_050.0)),
                    (1.0 - a_sq, (50.0, 100.0), (10_050.0, 10_100.0))]
            traj = rdm.sample_entangled_stays(spec, n, seed=seed)
            out[a_sq] = (frames.boosted_correlation_stats(traj, v=0.0),
                         frames.boosted_correlation_stats(traj, v=0.5))
        return out

    def check(out, earlier, notes):
        # criterion 8: exact home-frame synchrony, boosted reversal 2|ab|^2
        for a_sq, (home, boosted) in out.items():
            if home["reversed_fraction"] != 0.0:
                return f"a^2={a_sq}: home-frame reversed fraction is not 0"
            miss = _frequency(f"a^2={a_sq}: reversed fraction", boosted["reversed_fraction"],
                              2.0 * a_sq * (1.0 - a_sq), boosted["pairs"], notes)
            if miss:
                return miss
        return None

    return Job("frames-entangled", run, check)


SCAN_V = 0.3
SCAN_TOL = 0.5 / np.sqrt(1.0 - SCAN_V**2)  # half the boosted instant spacing


def _appearance_scan_job(weights, n, seed):
    def run(tracer):
        traj = rdm.sample_stays(weights, n, seed=seed)
        positions = 10.0 * traj.stays
        count = frames.multiparticle_appearance_scan(traj, positions, SCAN_V,
                                                     coincidence_tol=SCAN_TOL)
        return {"stays": traj.stays, "count": count}

    def check(out, earlier, notes):
        expect = _reference_appearance_count(10.0 * out["stays"])
        if out["count"] != expect:
            return f"appearance count {out['count']} != reference {expect}"
        return None

    return Job("frames-appearance", run, check)


def _reference_appearance_count(positions):
    """Vectorised recount of the scan: pairs of instants whose boosted
    times differ by at most the tolerance (the same float subtraction as
    the scan) while their boosted positions differ."""
    n = positions.size
    t = np.arange(n, dtype=np.float64)
    tb = frames.boost_times(t, positions, SCAN_V)
    xb = frames.boost_positions(t, positions, SCAN_V)
    order = np.argsort(tb, kind="stable")
    tb, xb = tb[order], xb[order]
    i = np.arange(n)
    # first j > i with tb[j] - tb[i] > tol; searchsorted gives a start
    # that a few +-1 steps correct to the exact float predicate
    j = np.maximum(np.searchsorted(tb, tb + SCAN_TOL, side="right"), i + 1)
    while True:
        up = (j < n) & (tb[np.minimum(j, n - 1)] - tb <= SCAN_TOL)
        down = (j - 1 > i) & (tb[j - 1] - tb > SCAN_TOL)
        if not (up.any() or down.any()):
            break
        j = j + up - down
    width = j - i - 1
    first = np.repeat(i, width)
    offset = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    return int(np.sum(xb[first + 1 + offset] != xb[first]))


def _grid_job(n, steps):
    t_double = 2.0 * np.sqrt(3.0)  # width-doubling time at sigma = 1

    def run(tracer):
        with tracer.span("hilbert.build"):
            psi = schrodinger.GridWavefunction.gaussian(-40.0, 80.0 / n, n,
                                                        center=0.0, sigma=1.0)
        return {"initial": psi,
                "evolved": schrodinger.evolve_grid(psi, None, t_double / steps, steps)}

    def check(out, earlier, notes):
        # criterion 11: the free packet's RMS width doubles, within 2%
        ratio = schrodinger.rms_width(out["evolved"]) / schrodinger.rms_width(out["initial"])
        if abs(ratio - 2.0) > 0.04:
            return f"width ratio {ratio:.4f} is not 2 within 2%"
        return None

    return Job("grid-evolve", run, check)


def _tomography_job(n, coarse, fine):
    def run(tracer):
        with tracer.span("hilbert.build"):
            truth = schrodinger.GridWavefunction.gaussian(-16.0, 32.0 / n, n, center=0.5,
                                                          sigma=2.5, momentum=0.5)
        out = {}
        for regions in (coarse, fine):
            res = protective.tomography(truth, regions)
            out[regions] = {k: res[k] for k in ("l2_error", "rho_measured", "j_measured")}
        return out

    def check(out, earlier, notes):
        # criterion 11: first-order convergence in the region width
        e_coarse, e_fine = out[coarse]["l2_error"], out[fine]["l2_error"]
        if not (e_coarse < 1e-2 and 2.5 <= e_coarse / e_fine <= 6.5):
            return f"tomography errors {e_coarse:.2e}/{e_fine:.2e} miss the criterion"
        return None

    return Job("tomography", run, check)


def _rdm_job(weights, n, seed):
    def run(tracer):
        return {"stays": rdm.sample_stays(weights, n, seed=seed).stays}

    def check(out, earlier, notes):
        freq = np.bincount(out["stays"], minlength=weights.size) / n
        if freq.size != weights.size:
            return f"stays reach site {freq.size - 1} of {weights.size}"
        # no acceptance tolerance applies, so no 3-sigma notes for 16 sites
        worst = int(np.argmax(np.abs(freq - weights) / np.sqrt(weights * (1 - weights) / n)))
        return _frequency(f"site {worst} frequency", freq[worst], weights[worst], n, [])

    return Job("rdm-sample", run, check)


# --- cli-scenarios ------------------------------------------------------

# data files each subcommand writes on success, besides manifest.json
CLI_OUTPUTS = {
    "tau-c": ["tau_c.csv"],
    "collapse-ensemble": ["collapse_ensemble.json"],
    "collapse-run": ["collapse_trajectory.csv"],
    "protect-sweep": ["protect_sweep.csv"],
    "beable-run": ["beable_trajectory.csv", "equivariance.json"],
    "rdm-sample": ["stays.csv"],
    "frames-analyze": ["frames_report.json", "stay_events.csv"],
    "verify": ["verify_report.json"],
    "tomography": ["tomography.json"],
}

# criterion 4 at full size takes half a minute, so scenario 04 is left out
TINY_BUNDLED = ("01", "09", "12")

CLI_SIZES = {
    "full": dict(m4_steps=10_000, m8_trials=4000, m8_steps=300, draws=100_000,
                 events=50_000),
    "tiny": dict(m4_steps=200, m8_trials=100, m8_steps=20, draws=1000, events=8000),
}


def _malformed(seed):
    """(subcommand, scenario) pairs whose correct result is exit code 1.
    The first two escape as tracebacks at the time of writing; they stay
    in the job set so that the fix shows as fewer failed jobs."""
    return {
        "bad-n-trials": ("collapse-ensemble", {
            "energies": [0.0, 1.0], "probabilities": [0.5, 0.5], "k_mode": "frozen",
            "k0": 0.1, "n_trials": "abc", "seed": seed}),
        "bad-two-box": ("rdm-sample", {"two_box": {}, "n": 10, "seed": seed}),
        "unknown-key": ("rdm-sample", {"weights": [0.5, 0.5], "n": 10, "seed": seed,
                                       "bogus": 1}),
        "wrong-subcommand": ("rdm-sample", {"subcommand": "tau-c", "seed": seed}),
        "missing-key": ("frames-analyze", {"a_sq": 0.5, "n": 10, "seed": seed}),
        "frozen-no-k0": ("collapse-run", {
            "energies": [0.0, 1.0], "probabilities": [0.5, 0.5], "k_mode": "frozen",
            "seed": seed}),
        "not-a-mapping": ("collapse-ensemble", [1, 2, 3]),
    }


def cli_scenarios(seed, size, workdir):
    z = CLI_SIZES[size]
    bundled = {p.name.split("_")[0]: yaml.safe_load(p.read_text())
               for p in cli.bundled_scenarios()}
    keep = sorted(k for k in bundled if k != "04"
                  and (size == "full" or k in TINY_BUNDLED))
    sets = []
    for r in range(INPUT_SETS):
        rng = np.random.Generator(np.random.PCG64(derive(seed, r, "cli")))
        scenarios = {}
        for key in keep:
            sc = dict(bundled[key])
            if "seed" in sc:
                sc["seed"] = derive(seed, r, "bundled", key)
            scenarios[f"bundled-{key}"] = sc
        w4, w8, weights = rng.random(4) + 0.5, rng.random(8) + 0.5, rng.random(8) + 0.1
        # energies within 0.01: k stays near 0.005, far from collapse in 10k steps
        scenarios["collapse-run-m4"] = {
            "subcommand": "collapse-run", "energies": _floats(np.sort(rng.uniform(0, 0.01, 4))),
            "probabilities": _floats(w4 / w4.sum()), "k_mode": "dynamic",
            "max_steps": z["m4_steps"], "seed": derive(seed, r, "m4")}
        scenarios["collapse-ensemble-m8"] = {
            "subcommand": "collapse-ensemble",
            "energies": _floats(np.sort(rng.uniform(0, 0.5, 8))),
            "probabilities": _floats(w8 / w8.sum()), "k_mode": "dynamic",
            "n_trials": z["m8_trials"], "n_steps": z["m8_steps"],
            "slice_stride": max(1, z["m8_steps"] // 10), "seed": derive(seed, r, "m8")}
        for binary in (False, True):
            scenarios["rdm-sample-" + ("binary" if binary else "csv")] = {
                "subcommand": "rdm-sample", "weights": _floats(weights / weights.sum()),
                "n": z["draws"], "binary": binary, "seed": derive(seed, r, "rdm")}
        scenarios["frames-events"] = {
            "subcommand": "frames-analyze", "a_sq": float(rng.uniform(0.2, 0.8)),
            "n": z["events"], "v": 0.5, "events_csv": True, "seed": derive(seed, r, "frames")}
        runs = {name: (sc["subcommand"], sc, 0, _expected_files(sc))
                for name, sc in scenarios.items()}
        runs.update({name: (sub, sc, 1, [])
                     for name, (sub, sc) in _malformed(derive(seed, r, "malformed")).items()})

        jobs = [_cli_job("verify-suites", ["verify"], workdir / "out" / "verify-suites",
                         0, CLI_OUTPUTS["verify"])]
        for name, (sub, sc, expect, files) in runs.items():
            path = workdir / f"set{r}" / f"{name}.yaml"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(yaml.safe_dump(sc, sort_keys=True))
            jobs.append(_cli_job(name, [sub, "--scenario", str(path)],
                                 workdir / "out" / name, expect, files))
        sets.append(jobs)
    return sets


def _floats(a):
    return [float(x) for x in a]


def _expected_files(sc):
    sub = sc["subcommand"]
    if sub == "rdm-sample" and sc.get("binary"):
        return ["stays.rdmt"]
    if sub == "beable-run" and not sc.get("ensemble"):
        return ["beable_trajectory.csv"]
    if sub == "frames-analyze" and not sc.get("events_csv"):
        return ["frames_report.json"]
    return CLI_OUTPUTS[sub]


def _cli_job(name, argv, out_dir, expect, files):
    argv = argv + ["--out-dir", str(out_dir)]

    def prepare():
        shutil.rmtree(out_dir, ignore_errors=True)

    def run(tracer):
        sink = StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(argv)

    def check(code, earlier, notes):
        if code != expect:
            return f"exit code {code}, expected {expect}"
        if expect != 0:
            return None
        manifest = out_dir / "manifest.json"
        if not manifest.is_file():
            return "manifest.json missing"
        declared = [out_dir / f for f in files] + \
            [Path(p) for p in json.loads(manifest.read_text())["outputs"]]
        missing = [str(p) for p in declared if not p.is_file()]
        return f"declared outputs missing: {missing}" if missing else None

    def digest(code):
        h = hashlib.sha256(repr(code).encode())
        if out_dir.is_dir():
            for path in sorted(out_dir.rglob("*")):
                if path.is_file() and path.name != "manifest.json":
                    h.update(path.relative_to(out_dir).as_posix().encode())
                    h.update(path.read_bytes())
        return h.hexdigest()

    return Job(name, run, check, digest, prepare)


WORKLOADS = {
    "collapse-tail": collapse_tail,
    "kernels-mix": kernels_mix,
    "cli-scenarios": cli_scenarios,
}
