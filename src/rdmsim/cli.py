"""Command-line front end.

Every subcommand reads its parameters from a scenario file (YAML, with
JSON as the canonical subset), optionally overridden by --seed, and
writes declared outputs plus a manifest into --out-dir.  Identical
scenario + seed reproduce byte-identical data files; only the manifest's
wall-time field differs between runs.  --threads is accepted for
compatibility and ignored: every run is single-threaded.

Exit codes: 0 ok, 1 contract violation (bad scenario / precondition),
2 numeric failure (NaN or overflow mid-run).
"""

import argparse
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__, acceptance, beable, collapse, constants, frames
from . import hilbert, io, protective, rdm, schrodinger, verify
from .collapse import CollapseConfig
from .errors import ContractViolation, NumericFailure, ScenarioError


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    except yaml.YAMLError as exc:
        raise ScenarioError(f"malformed scenario file: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a key-value mapping")
    return data


def scenario_hash(scenario: dict) -> str:
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _take(params: dict, required=(), optional=None):
    """Validate scenario keys against the subcommand's parameter set."""
    optional = dict(optional or {})
    out = {}
    for key in required:
        if key not in params:
            raise ScenarioError(f"missing required scenario key {key!r}")
        out[key] = params[key]
    for key, default in optional.items():
        out[key] = params.get(key, default)
    unknown = set(params) - set(required) - set(optional) - {"name", "subcommand"}
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    return out


def _pop_int(params: dict, key: str, default: int) -> int:
    value = params.pop(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"scenario key {key!r} must be an integer, not {value!r}")


def _complex_vector(spec) -> np.ndarray:
    arr = np.asarray(spec, dtype=np.float64)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return io.pairs_to_complex(arr)
    if arr.ndim == 1:
        return arr.astype(np.complex128)
    raise ScenarioError("state must be a list of reals or of [re, im] pairs")


def _complex_matrix(spec) -> np.ndarray:
    arr = np.asarray(spec, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 2:
        return io.pairs_to_complex(arr)
    if arr.ndim == 2:
        return arr.astype(np.complex128)
    raise ScenarioError("matrix must be rows of reals or of [re, im] pairs")


def _collapse_config(params: dict, seed: int) -> CollapseConfig:
    units = params.pop("units", "natural")
    base = CollapseConfig.physical if units == "physical" else CollapseConfig.natural
    kw = {
        "k_mode": params.pop("k_mode", "dynamic"),
        "k0": params.pop("k0", None),
        "delta_e_reducer": params.pop("delta_e_reducer", "rms"),
        "collapse_epsilon": params.pop("collapse_epsilon", 1e-6),
        "seed": seed,
    }
    try:
        return base(**kw)
    except TypeError as exc:
        raise ScenarioError(f"bad collapse config: {exc}")


def _superposition(params: dict) -> hilbert.EnergySuperposition:
    energies = np.asarray(params["energies"], dtype=np.float64)
    if "amplitudes" in params:
        amps = _complex_vector(params["amplitudes"])
    elif "probabilities" in params:
        amps = np.sqrt(np.asarray(params["probabilities"], dtype=np.float64))
    else:
        raise ScenarioError("need 'amplitudes' or 'probabilities'")
    return hilbert.EnergySuperposition(energies, amps)


def _grid_from_spec(spec: dict) -> schrodinger.GridWavefunction:
    g = dict(spec)
    kind = g.pop("type", "gaussian")
    if kind != "gaussian":
        raise ScenarioError(f"unknown grid state type {kind!r}")
    try:
        out = schrodinger.GridWavefunction.gaussian(
            x0=float(g.pop("x_min")), dx=float(g.pop("dx")), n=int(g.pop("n")),
            center=float(g.pop("center", 0.0)), sigma=float(g.pop("sigma", 1.0)),
            momentum=float(g.pop("momentum", 0.0)), mass=float(g.pop("mass", 1.0)),
            hbar=float(g.pop("hbar", 1.0)))
    except KeyError as exc:
        raise ScenarioError(f"grid state spec is missing {exc}")
    if g:
        raise ScenarioError(f"unknown grid state keys: {sorted(g)}")
    return out


def _pointer_from_spec(spec: dict) -> protective.PointerState:
    p = dict(spec)
    try:
        out = protective.PointerState.gaussian(
            x_min=float(p.pop("x_min")), dx=float(p.pop("dx")),
            n=int(p.pop("n")), x0=float(p.pop("x0", 0.0)),
            w0=float(p.pop("w0")))
    except KeyError as exc:
        raise ScenarioError(f"pointer spec is missing {exc}")
    if p:
        raise ScenarioError(f"unknown pointer keys: {sorted(p)}")
    return out


# --- subcommand handlers -------------------------------------------------

def cmd_rdm_sample(params, ctx):
    p = _take(params,
              required=("n", "seed"),
              optional={"weights": None, "two_box": None, "dt_instant": 1.0,
                        "binary": False})
    if p["weights"] is not None:
        weights = np.asarray(p["weights"], dtype=np.float64)
    elif p["two_box"] is not None:
        try:
            a_sq = float(p["two_box"]["a_sq"])
        except (KeyError, TypeError, ValueError):
            raise ScenarioError("'two_box' must be a mapping with a numeric 'a_sq'")
        weights = np.array([a_sq, 1.0 - a_sq])
    else:
        raise ScenarioError("need 'weights' or 'two_box'")
    seed = ctx["seed"] if ctx["seed"] is not None else int(p["seed"])
    traj = rdm.sample_stays(weights, int(p["n"]), seed=seed,
                            dt_instant=float(p["dt_instant"]))
    outputs = []
    if p["binary"]:
        path = ctx["out_dir"] / "stays.rdmt"
        io.write_trajectory_binary(path, traj)
    else:
        path = ctx["out_dir"] / ("stays.csv" if ctx["fmt"] == "csv" else "stays.json")
        if ctx["fmt"] == "csv":
            io.write_trajectory_csv(path, traj)
        else:
            io.write_json(path, {"stays": traj.stays.tolist(),
                                 "n_sites": traj.n_sites, "seed": traj.seed,
                                 "dt_instant": traj.dt_instant})
    outputs.append(path)
    hist = rdm.empirical_density(traj)
    summary = (f"sampled {traj.instants} stays over {traj.n_sites} sites; "
               f"empirical density {np.round(hist, 4).tolist()}")
    return summary, outputs


def cmd_beable_run(params, ctx):
    p = _take(params,
              required=("hamiltonian", "psi0", "dt", "steps", "seed"),
              optional={"beable0": 0, "hbar": 1.0, "noise_c": 0.0,
                        "ensemble": None})
    h = hilbert.HermitianOperator(_complex_matrix(p["hamiltonian"]))
    psi0 = hilbert.ComplexVectorState(_complex_vector(p["psi0"]))
    seed = ctx["seed"] if ctx["seed"] is not None else int(p["seed"])
    traj = beable.jump_trajectory(h, psi0, int(p["beable0"]), float(p["dt"]),
                                  int(p["steps"]), seed=seed,
                                  hbar=float(p["hbar"]), noise_c=float(p["noise_c"]))
    path = ctx["out_dir"] / "beable_trajectory.csv"
    io.write_trajectory_csv(path, traj)
    outputs = [path]
    summary = f"beable trajectory of {traj.instants - 1} steps written"
    if p["ensemble"]:
        ens = p["ensemble"]
        from scipy import stats as sps

        rec_steps, sites, p_rows = beable.ensemble_jump_run(
            h, psi0, int(ens["n_traj"]), float(p["dt"]), int(p["steps"]),
            seed=seed + 1, hbar=float(p["hbar"]), noise_c=float(p["noise_c"]),
            record_every=int(ens.get("record_every", max(1, int(p["steps"]) // 10))))
        slices = []
        for row in range(1, len(rec_steps)):
            counts = np.bincount(sites[row], minlength=psi0.dim)
            expected = int(ens["n_traj"]) * p_rows[row]
            test = sps.chisquare(counts, f_exp=expected)
            slices.append({"step": int(rec_steps[row]),
                           "time": float(rec_steps[row]) * float(p["dt"]),
                           "counts": counts.tolist(),
                           "expected": expected.tolist(),
                           "chi2": float(test.statistic),
                           "p_value": float(test.pvalue)})
        report = ctx["out_dir"] / "equivariance.json"
        io.write_json(report, {"slices": slices, "n_traj": int(ens["n_traj"]),
                               "noise_c": float(p["noise_c"])})
        outputs.append(report)
        min_p = min(s["p_value"] for s in slices)
        summary += f"; equivariance min p-value {min_p:.4f} over {len(slices)} slices"
    return summary, outputs


def cmd_collapse_run(params, ctx):
    p = dict(params)
    seed_param = _pop_int(p, "seed", 0)
    max_steps = _pop_int(p, "max_steps", 100_000)
    s0 = _superposition({k: p.pop(k) for k in ("energies", "amplitudes",
                                               "probabilities") if k in p})
    seed = ctx["seed"] if ctx["seed"] is not None else seed_param
    cfg = _collapse_config(p, seed)
    if p:
        raise ScenarioError(f"unknown scenario keys: {sorted(p)}")
    out = collapse.run_trajectory(s0, cfg, max_steps)
    m = s0.n_branches
    probs = out["probabilities"]
    columns = {"step": np.arange(probs.shape[0])}
    for i in range(m):
        columns[f"P_{i + 1}"] = probs[:, i]
    staying = np.full(probs.shape[0], -1, dtype=np.int64)
    staying[1:len(out["staying"]) + 1] = out["staying"]
    columns["staying_index"] = staying
    path = ctx["out_dir"] / "collapse_trajectory.csv"
    io.write_csv(path, columns, header_comments=[
        f"k_mode={cfg.k_mode} k0={cfg.k0} epsilon={cfg.collapse_epsilon} seed={seed}"])
    summary = (f"collapsed to branch {out['outcome']} after {out['steps']} steps"
               if out["collapsed"] else f"no collapse within {out['steps']} steps")
    return summary, [path]


def cmd_collapse_ensemble(params, ctx):
    p = dict(params)
    seed_param = _pop_int(p, "seed", 0)
    n_trials = _pop_int(p, "n_trials", 1000)
    n_steps = _pop_int(p, "n_steps", 100)
    slice_stride = _pop_int(p, "slice_stride", 10)
    s0 = _superposition({k: p.pop(k) for k in ("energies", "amplitudes",
                                               "probabilities") if k in p})
    seed = ctx["seed"] if ctx["seed"] is not None else seed_param
    cfg = _collapse_config(p, seed)
    if p:
        raise ScenarioError(f"unknown scenario keys: {sorted(p)}")
    res = collapse.ensemble_statistics(s0, cfg, n_trials, n_steps, slice_stride)
    payload = {
        "n_trials": n_trials,
        "pairs": [list(pr) for pr in res["pairs"]],
        "slices": [
            {
                "step": int(res["steps"][r]),
                "mean_p": res["mean_p"][r].tolist(),
                "se_p": res["se_p"][r].tolist(),
                "mean_pp": res["mean_pp"][r].tolist(),
                "se_pp": res["se_pp"][r].tolist(),
            }
            for r in range(len(res["steps"]))
        ],
    }
    path = ctx["out_dir"] / "collapse_ensemble.json"
    io.write_json(path, payload)
    return (f"{n_trials} trials x {n_steps} steps, "
            f"{len(res['steps'])} slices recorded"), [path]


def cmd_tau_c(params, ctx):
    p = _take(params, optional={"entries": None})
    entries = p["entries"]
    if entries is None:
        entries = [{"name": n, "delta_e_ev": d, "quoted_target_s": t}
                   for n, d, t, _ in acceptance.TAU_C_TABLE]
    cfg = CollapseConfig.physical()
    names, des, taus, targets = [], [], [], []
    for row in entries:
        names.append(str(row["name"]))
        de = float(row["delta_e_ev"])
        des.append(de)
        taus.append(collapse.collapse_time(de, cfg))
        targets.append(float(row.get("quoted_target_s", float("nan"))))
    path = ctx["out_dir"] / "tau_c.csv"
    io.write_csv(path, {"name": names, "delta_e_ev": des, "tau_c_s": taus,
                        "quoted_target_s": targets},
                 header_comments=[
                     f"hbar_ev_s={constants.HBAR_EVS!r} t_p_s={constants.PLANCK_TIME_S!r}"])
    return f"{len(names)} collapse-time rows written", [path]


def cmd_protect_run(params, ctx):
    p = _take(params,
              required=("psi", "observable", "n_projections", "tau", "pointer"),
              optional={"g_profile": "constant"})
    setup = protective.ProtectiveSetup(
        hilbert.ComplexVectorState(_complex_vector(p["psi"])),
        hilbert.HermitianOperator(_complex_matrix(p["observable"])),
        int(p["n_projections"]), float(p["tau"]),
        _pointer_from_spec(p["pointer"]), g_profile=p["g_profile"])
    out = protective.zeno_protective_run(setup)
    path = ctx["out_dir"] / "protective_run.json"
    io.write_json(path, {
        "pointer_shift": out["pointer_shift"],
        "survival_probability": out["survival_probability"],
        "final_width": out["final_width"],
        "width_ratio": out["width_ratio"],
        "protection_failed": out["protection_failed"],
        "n_projections": setup.n_projections,
    })
    return (f"shift {out['pointer_shift']:.6f}, survival "
            f"{out['survival_probability']:.6f}"), [path]


def cmd_protect_sweep(params, ctx):
    p = _take(params,
              required=("psi", "observable", "tau", "pointer", "n_list"),
              optional={"g_profile": "constant"})
    psi = hilbert.ComplexVectorState(_complex_vector(p["psi"]))
    obs = hilbert.HermitianOperator(_complex_matrix(p["observable"]))
    pointer = _pointer_from_spec(p["pointer"])
    target = hilbert.expectation_value(psi, obs)
    cols = {"N": [], "shift": [], "shift_error": [], "survival": [],
            "width_ratio": []}
    for n in p["n_list"]:
        setup = protective.ProtectiveSetup(psi, obs, int(n), float(p["tau"]),
                                           pointer, g_profile=p["g_profile"])
        out = protective.zeno_protective_run(setup)
        cols["N"].append(int(n))
        cols["shift"].append(out["pointer_shift"])
        cols["shift_error"].append(abs(out["pointer_shift"] - target))
        cols["survival"].append(out["survival_probability"])
        cols["width_ratio"].append(out["width_ratio"])
    path = ctx["out_dir"] / "protect_sweep.csv"
    io.write_csv(path, cols, header_comments=[f"target_expectation={target!r}"])
    return f"swept N in {list(map(int, p['n_list']))}", [path]


def cmd_tomography(params, ctx):
    p = _take(params, required=("state", "n_regions"))
    truth = _grid_from_spec(p["state"])
    out = protective.tomography(truth, int(p["n_regions"]))
    path = ctx["out_dir"] / "tomography.json"
    io.write_json(path, {
        "l2_error": out["l2_error"],
        "n_regions": out["n_regions"],
        "rho_measured": out["rho_measured"].tolist(),
        "j_measured": out["j_measured"].tolist(),
    })
    return f"tomography L2 error {out['l2_error']:.3e}", [path]


def cmd_frames_analyze(params, ctx):
    p = _take(params,
              required=("a_sq", "n", "seed", "v"),
              optional={"regions": None, "coincidence_tol": None,
                        "dt_instant": 1.0, "events_csv": False})
    a_sq = float(p["a_sq"])
    if p["regions"] is not None:
        spec = [(a_sq, tuple(p["regions"]["u1"]), tuple(p["regions"]["u2"])),
                (1.0 - a_sq, tuple(p["regions"]["d1"]), tuple(p["regions"]["d2"]))]
    else:
        spec = [(a_sq, (0.0, 50.0), (10_000.0, 10_050.0)),
                (1.0 - a_sq, (50.0, 100.0), (10_050.0, 10_100.0))]
    seed = ctx["seed"] if ctx["seed"] is not None else int(p["seed"])
    traj = rdm.sample_entangled_stays(spec, int(p["n"]), seed=seed,
                                      dt_instant=float(p["dt_instant"]))
    tol = p["coincidence_tol"]
    stats = frames.boosted_correlation_stats(
        traj, float(p["v"]), None if tol is None else float(tol))
    payload = dict(stats)
    payload["expected_reversed"] = 2.0 * a_sq * (1.0 - a_sq)
    payload["a_sq"] = a_sq
    path = ctx["out_dir"] / "frames_report.json"
    io.write_json(path, payload)
    outputs = [path]
    if p["events_csv"]:
        epath = ctx["out_dir"] / "stay_events.csv"
        io.write_paired_trajectory_csv(epath, traj)
        outputs.append(epath)
    return (f"kept {stats['kept_fraction']:.4f} / reversed "
            f"{stats['reversed_fraction']:.4f} over {stats['pairs']} pairs"), outputs


def cmd_verify(params, ctx):
    p = _take(params, optional={"pack": False, "criteria": None})
    run_pack = bool(p["pack"]) or ctx.get("pack", False)
    wanted = None if p["criteria"] is None else {int(c) for c in p["criteria"]}
    lines = []
    all_ok = True
    results = {}
    if wanted is None:
        results = verify.run_suites(str(ctx["out_dir"]))
        for suite, checks in results.items():
            n_ok = sum(1 for _, ok, _ in checks if ok)
            all_ok &= n_ok == len(checks)
            lines.append(f"suite {suite}: {n_ok}/{len(checks)} ok")
            for name, ok, detail in checks:
                if not ok:
                    lines.append(f"  FAIL {name}: {detail}")
    pack_results = []
    if run_pack or wanted is not None:
        to_run = [fn for fn in acceptance.ALL_CRITERIA
                  if wanted is None or int(fn.__name__.split("_")[1]) in wanted]
        for fn in to_run:
            res = fn()
            pack_results.append(res)
            all_ok &= res["passed"]
            lines.append(f"criterion {res['id']:>2} "
                         f"{'PASS' if res['passed'] else 'FAIL'} {res['name']}: "
                         f"{res['detail']}")
    path = ctx["out_dir"] / "verify_report.json"
    io.write_json(path, {
        "suites": {suite: [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
                   for suite, checks in results.items()},
        "acceptance": pack_results,
        "all_ok": all_ok,
    })
    print("\n".join(lines))
    if not all_ok:
        raise ContractViolation("verification failed; see verify_report.json")
    return "all verification suites green", [path]


HANDLERS = {
    "rdm-sample": cmd_rdm_sample,
    "beable-run": cmd_beable_run,
    "collapse-run": cmd_collapse_run,
    "collapse-ensemble": cmd_collapse_ensemble,
    "tau-c": cmd_tau_c,
    "protect-run": cmd_protect_run,
    "protect-sweep": cmd_protect_sweep,
    "tomography": cmd_tomography,
    "frames-analyze": cmd_frames_analyze,
    "verify": cmd_verify,
}


def bundled_scenarios():
    """Paths of the built-in scenario pack, sorted by file name."""
    root = resources.files("rdmsim") / "scenarios"
    return sorted(root.iterdir(), key=lambda p: p.name)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise ScenarioError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="rdmsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", help="YAML/JSON scenario file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario's master seed")
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: $RDMSIM_OUT_DIR or '.')")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; runs are single-threaded")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "verify":
            sp.add_argument("--pack", action="store_true",
                            help="also run the bundled acceptance scenario pack")
    return parser


def _run(args) -> int:
    import os

    scenario = load_scenario(args.scenario) if args.scenario else {}
    declared = scenario.get("subcommand")
    if declared is not None and declared != args.subcommand:
        raise ScenarioError(f"scenario targets {declared!r}, not {args.subcommand!r}")
    params = {k: v for k, v in scenario.items() if k not in ("name", "subcommand")}
    out_dir = Path(args.out_dir or os.environ.get("RDMSIM_OUT_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = {
        "out_dir": out_dir,
        "fmt": args.format,
        "seed": args.seed,
        "pack": getattr(args, "pack", False),
    }
    t0 = time.time()
    summary, outputs = HANDLERS[args.subcommand](params, ctx)
    manifest = {
        "tool": "rdmsim",
        "version": __version__,
        "subcommand": args.subcommand,
        "scenario_hash": scenario_hash(scenario),
        "seed_override": args.seed,
        "constants": {
            "hbar_ev_s": constants.HBAR_EVS,
            "t_p_s": constants.PLANCK_TIME_S,
            "c_m_s": constants.C_M_S,
        },
        "wall_time_s": time.time() - t0,
        "outputs": sorted(str(p) for p in outputs),
    }
    io.write_json(out_dir / "manifest.json", manifest)
    print(f"{args.subcommand}: {summary}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _run(args)
    except ContractViolation as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        step = f" at step {exc.step}" if exc.step is not None else ""
        print(f"numeric failure{step}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
