"""Command-line front end.

Every subcommand reads its parameters from a scenario file (YAML, with
JSON as the canonical subset), checked and typed against SCHEMAS before
anything runs, and writes declared outputs plus a manifest into
--out-dir.  The scenario's `seed` key is the one spelling of the master
seed.  Identical scenarios reproduce byte-identical data files; only the
manifest's wall-time field differs between runs.

Exit codes: 0 ok, 1 contract violation (bad scenario / precondition),
2 numeric failure (NaN or overflow mid-run).
"""

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__, acceptance, beable, collapse, constants, frames
from . import hilbert, io, protective, rdm, schrodinger, seeding, verify
from .collapse import CollapseConfig
from .errors import ContractViolation, NumericFailure, ScenarioError, require_at_most


class _CoreLoader(yaml.SafeLoader):
    """YAML 1.2's core schema with one spelling per value: null is ~, null
    or empty; a bool is true or false; ints and floats are decimal with no
    leading zero, and a float may also be .inf, -.inf or .nan.  Every other
    plain scalar (yes, 0x10, 1_000, 1:30, a date) is a string, and an
    explicit tag is an error."""
    yaml_implicit_resolvers = {}

    def compose_node(self, parent, index):
        event = self.peek_event()
        if getattr(event, "tag", None) is not None:  # an alias has no tag
            raise yaml.composer.ComposerError(
                None, None, f"explicit tag {event.tag!r} is not allowed", event.start_mark)
        return super().compose_node(parent, index)


for _tag, _pattern, _first in [  # int before float, so that 10 is an int
        ("null", r"(~|null|)$", ["~", "n", ""]),
        ("bool", r"(true|false)$", ["t", "f"]),
        ("int", r"[-+]?(0|[1-9][0-9]*)$", list("-+0123456789")),
        ("float", r"([-+]?(0|[1-9][0-9]*)(\.[0-9]*)?|[-+]?\.[0-9]+)([eE][-+]?[0-9]+)?$"
                  r"|-?\.inf$|\.nan$", list("-+.0123456789"))]:
    _CoreLoader.add_implicit_resolver(f"tag:yaml.org,2002:{_tag}", re.compile(_pattern), _first)


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.load(fh, _CoreLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # too many digits or brackets
        raise ScenarioError(f"malformed scenario file: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a key-value mapping")
    return data


def scenario_hash(scenario: dict) -> str:
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# --- scenario schema -----------------------------------------------------
#
# SCHEMAS[subcommand] maps each scenario key to (converter, default); a
# default of REQUIRED makes the key mandatory, and a null value counts as
# an absent key.  A converter is a function of the raw value, a nested
# schema dict (a mapping) or a one-element list (a list of such values).

REQUIRED = object()


def _int(value, lo=-2**60, hi=2**60) -> int:  # by default the most float64s numpy can index
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    if not lo <= value < hi:
        raise ValueError(f"expected an integer in [{lo}, {hi}), not {value!r}")
    return value


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, not {value!r}")
    return float(value)


def _instance(kind):
    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected a {kind.__name__}, not {value!r}")
        return value
    return convert


def _seed(value) -> int:
    return seeding.check_seed(_int(value, hi=2**64))


def _reals(*ndims):
    def leaves(value, depth):  # np.asarray would read a bool or a numeric string as a number
        return [leaves(v, depth - 1) for v in value] if depth and isinstance(value, list) \
            else _float(value)

    def convert(value) -> np.ndarray:
        arr = np.asarray(leaves(value, max(ndims)), dtype=np.float64)
        if arr.ndim not in ndims:
            raise ValueError(f"expected a {' or '.join(map(str, ndims))}-d array of numbers")
        return arr
    return convert


def _complex(ndim):
    """Converter to a complex ndim-d array, given as reals or as [re, im] pairs."""
    def convert(value) -> np.ndarray:
        arr = _reals(ndim, ndim + 1)(value)
        return io.pairs_to_complex(arr) if arr.ndim > ndim else arr.astype(np.complex128)
    return convert


def _interval(value) -> tuple:
    lo, hi = _floats(value)
    return lo, hi


def _probabilities(value) -> np.ndarray:
    arr = _floats(value)
    if np.any(arr < 0.0):
        raise ValueError(f"expected non-negative numbers, not {value!r}")
    return arr


_bool, _str, _floats = _instance(bool), _instance(str), _reals(1)

_COLLAPSE = {
    "energies": (_floats, REQUIRED), "probabilities": (_probabilities, REQUIRED),
    "k_mode": (_str, "dynamic"), "k0": (_float, None), "seed": (_seed, 0),
}
SCHEMAS = {
    "rdm-sample": {
        "n": (_int, REQUIRED), "seed": (_seed, REQUIRED), "weights": (_floats, REQUIRED),
        "binary": (_bool, False),
    },
    "beable-run": {
        "hamiltonian": (_complex(2), REQUIRED), "psi0": (_complex(1), REQUIRED),
        "dt": (_float, REQUIRED), "steps": (_int, REQUIRED), "seed": (_seed, REQUIRED),
        "beable0": (_int, 0), "noise_c": (_float, 0.0),
        "ensemble": ({"n_traj": (_int, REQUIRED)}, None),
    },
    "collapse-run": {**_COLLAPSE, "max_steps": (_int, 100_000)},
    "collapse-ensemble": {**_COLLAPSE, "n_trials": (_int, 1000), "n_steps": (_int, 100),
                          "slice_stride": (_int, 10)},
    "tau-c": {"entries": ([{"name": (_str, REQUIRED), "delta_e_ev": (_float, REQUIRED),
                            "quoted_target_s": (_float, float("nan"))}],
                          [{"name": n, "delta_e_ev": d, "quoted_target_s": t}
                           for n, d, t, _ in acceptance.TAU_C_TABLE])},
    "protect-sweep": {
        "psi": (_complex(1), REQUIRED), "observable": (_complex(2), REQUIRED),
        "tau": (_float, REQUIRED), "g_profile": (_str, "constant"),
        "pointer": ({"x_min": (_float, REQUIRED), "dx": (_float, REQUIRED),
                     "n": (_int, REQUIRED), "x0": (_float, 0.0), "w0": (_float, REQUIRED)},
                    REQUIRED),
        "n_list": ([_int], REQUIRED),
    },
    "tomography": {
        "state": ({"x_min": (_float, REQUIRED), "dx": (_float, REQUIRED), "n": (_int, REQUIRED),
                   "center": (_float, 0.0), "sigma": (_float, 1.0), "momentum": (_float, 0.0)},
                  REQUIRED),
        "n_regions": (_int, REQUIRED),
    },
    "frames-analyze": {
        "a_sq": (_float, REQUIRED), "n": (_int, REQUIRED), "seed": (_seed, REQUIRED),
        "v": (_float, REQUIRED), "events_csv": (_bool, False),
        "regions": ({"u1": (_interval, REQUIRED), "u2": (_interval, REQUIRED),
                     "d1": (_interval, REQUIRED), "d2": (_interval, REQUIRED)},
                    {"u1": (0.0, 50.0), "u2": (10_000.0, 10_050.0),
                     "d1": (50.0, 100.0), "d2": (10_050.0, 10_100.0)}),
    },
    "verify": {"criteria": ([_int], None)},
}


# a run records a row per step, up to the value of its subcommand's row key;
# parse_scenario caps that value at MAX_ROWS, far above every bundled or default one
MAX_ROWS = 1_000_000
ROW_KEYS = {"beable-run": "steps", "collapse-run": "max_steps"}


def _convert(convert, value, path: str):
    if isinstance(convert, dict):
        return _parse(convert, value, path)
    if isinstance(convert, list):
        if not isinstance(value, list):
            raise ScenarioError(f"scenario key {path!r} must be a list, not {value!r}")
        return [_convert(convert[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad value for {path!r}: {exc}") from None


def _parse(schema: dict, values, path: str = "") -> dict:
    """Typed copy of the mapping `values`; any unknown, missing or
    unconvertible key raises ScenarioError naming its path."""
    if not isinstance(values, dict):
        raise ScenarioError(f"scenario key {path!r} must be a mapping, not {values!r}")
    prefix = f"{path}." if path else ""
    unknown = sorted(prefix + str(k) for k in values if k not in schema)
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {unknown}")
    out = {}
    for key, (convert, default) in schema.items():
        value = values.get(key)
        if value is None and default is REQUIRED:
            raise ScenarioError(f"missing required scenario key {prefix + key!r}")
        out[key] = default if value is None else _convert(convert, value, prefix + key)
    return out


# --- subcommand handlers -------------------------------------------------
#
# The handlers of scenarios that feed an acceptance criterion are split:
# the computation (in COMPUTE) and the cmd_* function that writes it.

def rdm_sample(p):
    return rdm.sample_stays(p["weights"], p["n"], seed=p["seed"])


def cmd_rdm_sample(p, out_dir):
    traj = rdm_sample(p)
    if p["binary"]:
        path = out_dir / "stays.rdmt"
        io.write_trajectory_binary(path, traj)
    else:
        path = out_dir / "stays.csv"
        io.write_trajectory_csv(path, traj)
    hist = rdm.empirical_density(traj)
    summary = (f"sampled {traj.instants} stays over {traj.n_sites} sites; "
               f"empirical density {np.round(hist, 4).tolist()}")
    return summary, [path]


def beable_run(p):
    """(H, psi0, trajectory, equivariance slices or None); the ensemble
    records a slice every max(1, steps // 10) steps."""
    h = hilbert.HermitianOperator(p["hamiltonian"])
    psi0 = hilbert.ComplexVectorState(p["psi0"])
    traj = beable.jump_trajectory(h, psi0, p["beable0"], p["dt"], p["steps"],
                                  seed=p["seed"], noise_c=p["noise_c"])
    ens = p["ensemble"]
    if ens is None:
        return h, psi0, traj, None
    rec_steps, sites, p_rows = beable.ensemble_jump_run(
        h, psi0, ens["n_traj"], p["dt"], p["steps"], seed=p["seed"] + 1,
        noise_c=p["noise_c"], record_every=max(1, p["steps"] // 10))
    slices = []
    for row in range(1, len(rec_steps)):
        counts = np.bincount(sites[row], minlength=psi0.dim)
        expected = ens["n_traj"] * p_rows[row]
        held = expected > 0  # no current flows into a zero amplitude, so no walker is there
        chi2 = float(((counts[held] - expected[held]) ** 2 / expected[held]).sum())
        dof = np.count_nonzero(held) - 1  # one held site tests nothing: p = 1
        slices.append({"step": int(rec_steps[row]),
                       "time": float(rec_steps[row]) * p["dt"],
                       "counts": counts.tolist(),
                       "expected": expected.tolist(),
                       "chi2": chi2,
                       "p_value": _chi2_sf(chi2, dof) if dof else 1.0})
    return h, psi0, traj, slices


def _chi2_sf(x, dof):
    """Chi-square survival function for integer dof >= 1: erfc(sqrt(h)) for odd
    dof, plus the dof // 2 terms h^(a+i) e^-h / Gamma(a+i+1), h = x/2, a = 1/2
    or 0, each in log space (a factored e^-h underflows above x ~ 1490)."""
    h, a = x / 2.0, dof % 2 / 2.0
    if h <= 0.0:
        return 1.0
    return (math.erfc(math.sqrt(h)) if a else 0.0) + sum(
        math.exp((a + i) * math.log(h) - h - math.lgamma(a + i + 1.0)) for i in range(dof // 2))


def cmd_beable_run(p, out_dir):
    # every result is computed before the first write, so a failed run writes nothing
    _, _, traj, slices = beable_run(p)
    summary = f"beable trajectory of {traj.instants - 1} steps written"
    path = out_dir / "beable_trajectory.csv"
    io.write_trajectory_csv(path, traj)
    if slices is None:
        return summary, [path]
    min_p = min((s["p_value"] for s in slices), default=float("nan"))
    report = out_dir / "equivariance.json"
    io.write_json(report, {"slices": slices, "n_traj": p["ensemble"]["n_traj"],
                           "noise_c": p["noise_c"]})
    return (f"{summary}; equivariance min p-value {min_p:.4f} over {len(slices)} slices",
            [path, report])


def _collapse_setup(p):
    """Initial superposition and config of the two collapse subcommands."""
    cfg = CollapseConfig(k_mode=p["k_mode"], k0=p["k0"], seed=p["seed"])
    return hilbert.EnergySuperposition(p["energies"], np.sqrt(p["probabilities"])), cfg


def cmd_collapse_run(p, out_dir):
    s0, cfg = _collapse_setup(p)
    out = collapse.run_trajectory(s0, cfg, p["max_steps"])
    probs = out["probabilities"]
    columns = {"step": np.arange(probs.shape[0]),
               **{f"P_{i + 1}": probs[:, i] for i in range(s0.n_branches)},
               "staying_index": np.concatenate(([-1], out["staying"]))}
    path = out_dir / "collapse_trajectory.csv"
    io.write_csv(path, columns, header_comments=[
        f"k_mode={cfg.k_mode} k0={cfg.k0} epsilon={collapse.COLLAPSE_EPSILON} seed={cfg.seed}"])
    summary = (f"collapsed to branch {out['outcome']} after {out['steps']} steps"
               if out["outcome"] is not None else f"no collapse within {out['steps']} steps")
    return summary, [path]


def collapse_ensemble(p):
    """(initial superposition, config, ensemble_statistics result)."""
    s0, cfg = _collapse_setup(p)
    return s0, cfg, collapse.ensemble_statistics(s0, cfg, p["n_trials"], p["n_steps"],
                                                 p["slice_stride"])


def cmd_collapse_ensemble(p, out_dir):
    _, _, res = collapse_ensemble(p)
    stats = ("mean_p", "se_p", "mean_pp", "se_pp")
    path = out_dir / "collapse_ensemble.json"
    io.write_json(path, {
        "n_trials": p["n_trials"],
        "pairs": [list(pr) for pr in res["pairs"]],
        "slices": [{"step": int(step), **{key: res[key][r].tolist() for key in stats}}
                   for r, step in enumerate(res["steps"])],
    })
    return (f"{p['n_trials']} trials x {p['n_steps']} steps, "
            f"{len(res['steps'])} slices recorded"), [path]


def cmd_tau_c(p, out_dir):
    entries = p["entries"]
    des = [row["delta_e_ev"] for row in entries]
    path = out_dir / "tau_c.csv"
    io.write_csv(path, {"name": [row["name"] for row in entries], "delta_e_ev": des,
                        "tau_c_s": [collapse.collapse_time(de) for de in des],
                        "quoted_target_s": [row["quoted_target_s"] for row in entries]},
                 header_comments=[
                     f"hbar_ev_s={constants.HBAR_EVS!r} t_p_s={constants.PLANCK_TIME_S!r}"])
    return f"{len(entries)} collapse-time rows written", [path]


def protect_sweep(p):
    """(<A> on psi, sweep columns keyed N, shift, shift_error, survival, width_ratio)."""
    psi = hilbert.ComplexVectorState(p["psi"])
    obs = hilbert.HermitianOperator(p["observable"])
    pointer = protective.PointerState.gaussian(**p["pointer"])
    target = hilbert.expectation_value(psi, obs)
    cols = {"N": [], "shift": [], "shift_error": [], "survival": [],
            "width_ratio": []}
    for n in p["n_list"]:
        setup = protective.ProtectiveSetup(psi, obs, n, p["tau"], pointer,
                                           g_profile=p["g_profile"])
        out = protective.zeno_protective_run(setup)
        cols["N"].append(n)
        cols["shift"].append(out["pointer_shift"])
        cols["shift_error"].append(abs(out["pointer_shift"] - target))
        cols["survival"].append(out["survival_probability"])
        cols["width_ratio"].append(out["width_ratio"])
    return target, cols


def cmd_protect_sweep(p, out_dir):
    target, cols = protect_sweep(p)
    path = out_dir / "protect_sweep.csv"
    io.write_csv(path, cols, header_comments=[f"target_expectation={target!r}"])
    return f"swept N in {p['n_list']}", [path]


def tomography(p):
    g = p["state"]
    truth = schrodinger.GridWavefunction.gaussian(
        x0=g["x_min"], dx=g["dx"], n=g["n"], center=g["center"], sigma=g["sigma"],
        momentum=g["momentum"])
    return protective.tomography(truth, p["n_regions"])


def cmd_tomography(p, out_dir):
    out = tomography(p)
    path = out_dir / "tomography.json"
    io.write_json(path, {
        "l2_error": out["l2_error"],
        "n_regions": out["n_regions"],
        "rho_measured": out["rho_measured"].tolist(),
        "j_measured": out["j_measured"].tolist(),
    })
    return f"tomography L2 error {out['l2_error']:.3e}", [path]


def frames_analyze(p):
    """(paired trajectory, report: boosted correlation stats, expected_reversed, a_sq)."""
    a_sq = p["a_sq"]
    r = p["regions"]
    spec = [(a_sq, r["u1"], r["u2"]), (1.0 - a_sq, r["d1"], r["d2"])]
    traj = rdm.sample_entangled_stays(spec, p["n"], seed=p["seed"])
    stats = frames.boosted_correlation_stats(traj, p["v"])
    return traj, {**stats, "expected_reversed": 2.0 * a_sq * (1.0 - a_sq), "a_sq": a_sq}


def cmd_frames_analyze(p, out_dir):
    traj, stats = frames_analyze(p)
    path = out_dir / "frames_report.json"
    io.write_json(path, stats)
    outputs = [path]
    if p["events_csv"]:
        epath = out_dir / "stay_events.csv"
        io.write_paired_trajectory_csv(epath, traj)
        outputs.append(epath)
    return (f"kept {stats['kept_fraction']:.4f} / reversed "
            f"{stats['reversed_fraction']:.4f} over {stats['pairs']} pairs"), outputs


def cmd_verify(p, out_dir):
    wanted = p["criteria"]
    if wanted is not None and not set(wanted) <= set(range(1, len(acceptance.ALL_CRITERIA) + 1)):
        raise ScenarioError(f"unknown criteria in {wanted}")
    if wanted == []:
        raise ScenarioError("'criteria' is empty; omit it to run the seeding suite")
    lines = []
    all_ok = True
    results = verify.run_suites() if wanted is None else {}
    for suite, checks in results.items():
        n_ok = sum(1 for _, ok, _ in checks if ok)
        all_ok &= n_ok == len(checks)
        lines.append(f"suite {suite}: {n_ok}/{len(checks)} ok")
        for name, ok, detail in checks:
            if not ok:
                lines.append(f"  FAIL {name}: {detail}")
    reports = []
    for cid in sorted(set(wanted or ())):
        res = run_criterion(cid)
        reports.append(res)
        all_ok &= res["passed"]
        lines.append(f"criterion {res['id']:>2} "
                     f"{'PASS' if res['passed'] else 'FAIL'} {res['name']}: "
                     f"{res['detail']}")
    path = out_dir / "verify_report.json"
    io.write_json(path, {
        "suites": {suite: [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
                   for suite, checks in results.items()},
        "acceptance": reports,
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
    "protect-sweep": cmd_protect_sweep,
    "tomography": cmd_tomography,
    "frames-analyze": cmd_frames_analyze,
    "verify": cmd_verify,
}


COMPUTE = {
    "rdm-sample": rdm_sample,
    "beable-run": beable_run,
    "collapse-ensemble": collapse_ensemble,
    "protect-sweep": protect_sweep,
    "tomography": tomography,
    "frames-analyze": frames_analyze,
}


def bundled_scenarios():
    """Paths of the built-in scenario pack, sorted by name."""
    return sorted((resources.files("rdmsim") / "scenarios").iterdir(), key=lambda p: p.name)


def bundled_scenario(cid):
    """Parsed scenario `NN_*.yaml` of criterion `cid` from the pack, and
    the computation of its handler (None for tau-c and verify)."""
    if cid not in range(1, len(acceptance.ALL_CRITERIA) + 1):
        raise ScenarioError(f"unknown criterion {cid!r}")
    path, = [f for f in bundled_scenarios() if f.name.startswith(f"{cid:02d}_")]
    scenario = load_scenario(path)
    return parse_scenario(scenario, scenario["subcommand"]), COMPUTE.get(scenario["subcommand"])


def run_criterion(cid):
    """Acceptance criterion `cid` checked on its bundled scenario: it gets the
    parsed scenario and the handler's computation (see rdmsim.acceptance).
    The criterion is acceptance.ALL_CRITERIA[cid - 1], read at call time."""
    params, compute = bundled_scenario(cid)
    fn = acceptance.ALL_CRITERIA[cid - 1]
    return fn() if compute is None else fn(params, compute)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise ScenarioError(message)


@functools.cache  # parse_args keeps no state, and building costs ~2 ms
def build_parser() -> _Parser:
    parser = _Parser(prog="rdmsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", help="YAML/JSON scenario file")
        sp.add_argument("--out-dir", default=".", help="output directory (default: '.')")
    return parser


def parse_scenario(scenario: dict, subcommand: str) -> dict:
    """Parameters of `scenario` for `subcommand`, typed against SCHEMAS, with
    the subcommand's row key (ROW_KEYS) at most MAX_ROWS."""
    declared = scenario.get("subcommand")
    if declared is not None and declared != subcommand:
        raise ScenarioError(f"scenario targets {declared!r}, not {subcommand!r}")
    if not isinstance(scenario.get("name", ""), str):
        raise ScenarioError("scenario key 'name' must be a string")
    params = _parse(SCHEMAS[subcommand],
                    {k: v for k, v in scenario.items() if k not in ("name", "subcommand")})
    key = ROW_KEYS.get(subcommand)
    if key is not None:
        require_at_most(**{key: (params[key], MAX_ROWS)})
    return params


def _run(args) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else {}
    params = parse_scenario(scenario, args.subcommand)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot use --out-dir {str(out_dir)!r}: {exc}") from None
    t0 = time.time()
    try:
        summary, outputs = HANDLERS[args.subcommand](params, out_dir)
    except MemoryError as exc:  # a size within _int's range can still exceed memory
        raise ScenarioError(f"{args.subcommand} cannot allocate its arrays: {exc}") from None
    except OverflowError as exc:  # Python's float ** raises where numpy would give inf
        raise NumericFailure(f"{args.subcommand} overflows: {exc}") from None
    manifest = {
        "tool": "rdmsim",
        "version": __version__,
        "subcommand": args.subcommand,
        "scenario_hash": scenario_hash(scenario),
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
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
