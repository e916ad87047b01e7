import copy
import json
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rdmsim import cli, io, rdm
from rdmsim.errors import ContractViolation, ScenarioError
from rdmsim.seeding import derive_seed, seeded_rng, trial_rng


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_indices(self):
        assert derive_seed(7, 0) != derive_seed(7, 1)

    def test_no_collisions_over_10k(self):
        seeds = {derive_seed(12345, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_rng_stream_reproducible(self):
        a = trial_rng(9, 4).random(8)
        b = trial_rng(9, 4).random(8)
        assert np.array_equal(a, b)

    def test_seeded_rng_is_plain_pcg64(self):
        for seed in (0, 7, 2**64 - 1, np.uint64(5)):
            assert np.array_equal(seeded_rng(seed).random(8),
                                  np.random.Generator(np.random.PCG64(seed)).random(8))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, None, "3"])
    def test_seeded_rng_rejects_out_of_range(self, seed):
        with pytest.raises(ContractViolation, match="seed"):
            seeded_rng(seed)


class TestComplexJson:
    def test_round_trip_vector(self):
        v = np.array([0.6, 0.8j, -0.1 + 0.2j])
        assert np.allclose(io.pairs_to_complex(io.complex_to_pairs(v)), v)

    def test_round_trip_matrix(self):
        m = np.array([[1.0, 1j], [-1j, 2.0]])
        assert np.allclose(io.pairs_to_complex(io.complex_to_pairs(m)), m)

    def test_bad_payload(self):
        with pytest.raises(ScenarioError):
            io.pairs_to_complex([[1.0, 2.0, 3.0]])


class TestBinaryTrajectory:
    def test_single_round_trip(self, tmp_path):
        traj = rdm.sample_stays([0.3, 0.7], 500, seed=5, dt_instant=0.5)
        path = tmp_path / "run.rdmt"
        io.write_trajectory_binary(path, traj)
        back = io.read_trajectory_binary(path)
        assert np.array_equal(back.stays, traj.stays)
        assert back.n_sites == 2 and back.dt_instant == 0.5 and back.seed == 5

    def test_paired_round_trip(self, tmp_path):
        spec = [(0.4, (0.0, 1.0), (5.0, 6.0)), (0.6, (2.0, 3.0), (7.0, 8.0))]
        traj = rdm.sample_entangled_stays(spec, 300, seed=6)
        path = tmp_path / "pair.rdmt"
        io.write_trajectory_binary(path, traj)
        back = io.read_trajectory_binary(path)
        assert np.array_equal(back.branches, traj.branches)
        assert np.allclose(back.x1, traj.x1)
        assert np.allclose(back.x2, traj.x2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rdmt"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ScenarioError):
            io.read_trajectory_binary(path)


class TestScenarioLoading:
    def test_yaml_and_json_equivalent(self, tmp_path):
        data = {"subcommand": "tau-c", "entries": [
            {"name": "x", "delta_e_ev": 1.0, "quoted_target_s": 1.0}]}
        ypath = tmp_path / "s.yaml"
        jpath = tmp_path / "s.json"
        ypath.write_text(yaml.safe_dump(data))
        jpath.write_text(json.dumps(data))
        assert cli.load_scenario(ypath) == cli.load_scenario(jpath)

    def test_hash_stable_under_key_order(self):
        a = cli.scenario_hash({"b": 1, "a": 2})
        b = cli.scenario_hash({"a": 2, "b": 1})
        assert a == b

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError):
            cli.load_scenario(path)


def run_cli(*args):
    return cli.main(list(args))


class TestCliRuns:
    def test_tau_c_defaults(self, tmp_path):
        assert run_cli("tau-c", "--out-dir", str(tmp_path)) == 0
        table = (tmp_path / "tau_c.csv").read_text()
        assert "photon_linewidth" in table
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "tau-c"

    def test_unknown_subcommand_exits_1(self):
        assert run_cli("no-such-command") == 1

    def test_unknown_scenario_key_exits_1(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: rdm-sample\nbogus_key: 1\nn: 10\nseed: 0\n"
                        "weights: [0.5, 0.5]\n")
        assert run_cli("rdm-sample", "--scenario", str(path),
                       "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("subcommand, body, extra", [
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "k_mode: frozen\nk0: 0.1\nn_trials: abc\n", ()),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         "max_steps: [1]\n", ()),
        ("rdm-sample", "two_box: {}\nn: 10\nseed: 0\n", ()),
        ("rdm-sample", "two_box: 0.3\nn: 10\nseed: 0\n", ()),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: abc\nseed: 0\n", ()),
        ("frames-analyze", "a_sq: abc\nn: 10\nseed: 0\nv: 0.5\n", ()),
        ("tau-c", "entries: 5\n", ()),
        ("tomography", "state: 5\nn_regions: 16\n", ()),
        ("verify", "criteria: 5\n", ()),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\nbinary: 'no'\n", ()),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         "units: bogus\n", ()),
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "delta_e_reducer: linear-sum\n", ()),
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       "dt: 0.01\nsteps: 10\nseed: 0\n"
                       "ensemble: {n_traj: 10, foo: 1}\n", ()),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: -1\n", ()),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\n", ("--seed", "-1")),
        ("tau-c", "entries: [{name: x, delta_e_ev: 1.0}]\n", ("--seed", "5")),
        ("protect-run", "psi: [0.6, 0.8]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                        "n_projections: 10\ntau: 1.0\n"
                        "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 2.0}\n",
         ("--format", "json")),
    ], ids=["n-trials-abc", "max-steps-list", "two-box-empty", "two-box-number",
            "n-abc", "a-sq-abc", "entries-number", "state-number", "criteria-number",
            "binary-string", "units-bogus", "delta-e-reducer", "ensemble-unknown-key",
            "seed-negative", "seed-override-negative", "seed-without-seed-key",
            "format-not-read"])
    def test_malformed_value_exits_1(self, tmp_path, capsys, subcommand, body, extra):
        path = tmp_path / "s.yaml"
        path.write_text(f"subcommand: {subcommand}\n{body}")
        assert run_cli(subcommand, "--scenario", str(path),
                       "--out-dir", str(tmp_path), *extra) == 1
        assert "ScenarioError" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, body, name", [
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\ndt_instant: -1\n",
         "dt_instant"),
        ("frames-analyze", "a_sq: 0.5\nn: 10\nseed: 0\nv: 0.5\ndt_instant: 0\n",
         "dt_instant"),
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       "dt: -0.005\nsteps: 10\nseed: 0\n", "dt"),
        ("tomography", "state: {x_min: -8.0, dx: 0.125, n: 128, sigma: 0}\n"
                       "n_regions: 16\n", "sigma"),
        ("protect-run", "psi: [0.6, 0.8]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                        "n_projections: 10\ntau: 1.0\n"
                        "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 0}\n", "w0"),
    ], ids=["rdm-dt-instant", "frames-dt-instant", "beable-dt", "tomography-sigma",
            "pointer-w0"])
    def test_nonpositive_step_or_width_exits_1(self, tmp_path, capsys, subcommand, body,
                                               name):
        path = tmp_path / "s.yaml"
        path.write_text(f"subcommand: {subcommand}\n{body}")
        assert run_cli(subcommand, "--scenario", str(path),
                       "--out-dir", str(tmp_path)) == 1
        assert f"{name} must be positive" in capsys.readouterr().err

    def test_negative_noise_without_steps_exits_1(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
                        "psi0: [0.6, 0.8]\ndt: 0.01\nsteps: 0\nseed: 0\nnoise_c: -1.0\n")
        assert run_cli("beable-run", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 1
        assert "noise rate c must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out" / "beable_trajectory.csv").exists()

    def test_nan_strength_exits_2(self, tmp_path, capsys):
        # E^2 overflows, so the dynamic k of the ensemble is NaN
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: collapse-ensemble\nenergies: [0.0, 1.0e+200]\n"
                        "probabilities: [0.5, 0.5]\nn_trials: 10\nn_steps: 10\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("collapse-ensemble", "--scenario", str(path),
                           "--out-dir", str(tmp_path)) == 2
        assert "numeric failure at step 0" in capsys.readouterr().err

    def test_precondition_violation_exits_1(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: rdm-sample\nn: 10\nseed: 0\n"
                        "weights: [0.5, 0.6]\n")
        assert run_cli("rdm-sample", "--scenario", str(path),
                       "--out-dir", str(tmp_path)) == 1

    def test_byte_identical_reruns(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: collapse-run\nenergies: [0.0, 0.5]\n"
            "probabilities: [0.4, 0.6]\nk_mode: frozen\nk0: 0.05\nseed: 11\n"
            "max_steps: 5000\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("collapse-run", "--scenario", str(scenario),
                       "--out-dir", str(out1)) == 0
        assert run_cli("collapse-run", "--scenario", str(scenario),
                       "--out-dir", str(out2)) == 0
        assert (out1 / "collapse_trajectory.csv").read_bytes() == \
               (out2 / "collapse_trajectory.csv").read_bytes()

    def test_thread_count_invariant_output(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: collapse-ensemble\nenergies: [0.0, 1.0]\n"
            "probabilities: [0.5, 0.5]\nk_mode: frozen\nk0: 0.1\nseed: 3\n"
            "n_trials: 600\nn_steps: 30\nslice_stride: 10\n")
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert run_cli("collapse-ensemble", "--scenario", str(scenario),
                       "--out-dir", str(out1), "--threads", "1") == 0
        assert run_cli("collapse-ensemble", "--scenario", str(scenario),
                       "--out-dir", str(out2), "--threads", "4") == 0
        assert (out1 / "collapse_ensemble.json").read_bytes() == \
               (out2 / "collapse_ensemble.json").read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("subcommand: rdm-sample\nn: 200\nseed: 1\n"
                            "weights: [0.5, 0.5]\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("rdm-sample", "--scenario", str(scenario), "--out-dir", str(out1))
        run_cli("rdm-sample", "--scenario", str(scenario), "--out-dir", str(out2),
                "--seed", "2")
        assert (out1 / "stays.csv").read_text() != (out2 / "stays.csv").read_text()

    def test_protect_run(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: protect-run\n"
            "psi: [0.7071067811865476, 0.7071067811865476]\n"
            "observable: [[1.0, 0.0], [0.0, 0.0]]\n"
            "n_projections: 500\ntau: 1.0\n"
            "pointer: {x_min: -40.0, dx: 0.3125, n: 256, x0: 0.0, w0: 5.0}\n")
        assert run_cli("protect-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / "protective_run.json").read_text())
        assert abs(report["pointer_shift"] - 0.5) < 1e-2
        assert not report["protection_failed"]

    def test_frames_analyze_emits_events(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("subcommand: frames-analyze\na_sq: 0.5\nn: 5000\n"
                            "seed: 2\nv: 0.5\nevents_csv: true\n")
        assert run_cli("frames-analyze", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / "frames_report.json").read_text())
        assert report["kept_fraction"] + report["reversed_fraction"] == 1.0
        assert (tmp_path / "stay_events.csv").exists()

    def test_beable_run_trajectory_csv(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
            "psi0: [0.8366600265340756, 0.5477225575051661]\n"
            "dt: 0.01\nsteps: 200\nseed: 4\n")
        assert run_cli("beable-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "beable_trajectory.csv").read_text().splitlines()
        assert lines[1] == "instant,site_index"
        assert len(lines) == 2 + 201  # header comment + column row + stays

    def test_rdm_sample_binary_output(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("subcommand: rdm-sample\nn: 300\nseed: 9\n"
                            "weights: [0.25, 0.75]\nbinary: true\n")
        assert run_cli("rdm-sample", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        back = io.read_trajectory_binary(tmp_path / "stays.rdmt")
        assert back.instants == 300 and back.n_sites == 2

    def test_beable_equivariance_report(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
            "psi0: [0.8366600265340756, 0.5477225575051661]\n"
            "dt: 0.01\nsteps: 300\nseed: 5\n"
            "ensemble: {n_traj: 500, record_every: 100}\n")
        assert run_cli("beable-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / "equivariance.json").read_text())
        assert len(report["slices"]) == 3
        for entry in report["slices"]:
            assert {"step", "time", "counts", "expected", "chi2",
                    "p_value"} <= set(entry)

    def test_beable_ensemble_without_slices(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
            "psi0: [0.6, 0.8]\ndt: 0.01\nsteps: 5\nseed: 5\n"
            "ensemble: {n_traj: 50, record_every: 10}\n")
        assert run_cli("beable-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        assert json.loads((tmp_path / "equivariance.json").read_text())["slices"] == []

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "rdmsim.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0


# One small valid scenario per subcommand, with every key set so that the
# fuzz test can corrupt each one; verify's pack and criteria stay off.
SMALL_SCENARIOS = {
    "rdm-sample": {"n": 20, "seed": 1, "two_box": {"a_sq": 0.3}, "dt_instant": 1.0,
                   "binary": False},
    "beable-run": {"hamiltonian": [[0.0, -1.0], [-1.0, 0.0]], "psi0": [0.8, 0.6],
                   "dt": 0.01, "steps": 4, "seed": 2, "beable0": 0, "hbar": 1.0,
                   "noise_c": 0.0, "ensemble": {"n_traj": 20, "record_every": 2}},
    "collapse-run": {"energies": [0.0, 1.0], "probabilities": [0.5, 0.5],
                     "k_mode": "frozen", "k0": 0.3, "collapse_epsilon": 1e-3,
                     "units": "natural", "seed": 3, "max_steps": 50},
    "collapse-ensemble": {"energies": [0.0, 1.0], "amplitudes": [0.6, 0.8],
                          "k_mode": "frozen", "k0": 0.1, "collapse_epsilon": 1e-3,
                          "units": "natural", "seed": 4, "n_trials": 8, "n_steps": 6,
                          "slice_stride": 3},
    "tau-c": {"entries": [{"name": "x", "delta_e_ev": 1.0, "quoted_target_s": 1.0}]},
    "protect-run": {"psi": [0.6, 0.8], "observable": [[1.0, 0.0], [0.0, 0.0]],
                    "n_projections": 10, "tau": 1.0, "g_profile": "constant",
                    "pointer": {"x_min": -20.0, "dx": 0.5, "n": 80, "x0": 0.0,
                                "w0": 2.0}},
    "protect-sweep": {"psi": [0.6, 0.8], "observable": [[1.0, 0.0], [0.0, 0.0]],
                      "n_list": [10, 20], "tau": 1.0, "g_profile": "constant",
                      "pointer": {"x_min": -20.0, "dx": 0.5, "n": 80, "x0": 0.0,
                                  "w0": 2.0}},
    "tomography": {"state": {"type": "gaussian", "x_min": -8.0, "dx": 0.125, "n": 128,
                             "center": 0.0, "sigma": 1.0, "momentum": 0.5,
                             "mass": 1.0, "hbar": 1.0},
                   "n_regions": 16},
    "frames-analyze": {"a_sq": 0.5, "n": 200, "seed": 5, "v": 0.5,
                       "regions": {"u1": [0.0, 5.0], "u2": [50.0, 55.0],
                                   "d1": [5.0, 10.0], "d2": [55.0, 60.0]},
                       "coincidence_tol": 0.5, "dt_instant": 1.0, "events_csv": False},
    "verify": {"pack": False},
}

JUNK = ["abc", [], {}, None, -1, 0, 1.5, float("nan"), True]


def key_paths(value, prefix=()):
    """Paths of every mapping key, nested ones and those inside lists included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, sub in items:
        if isinstance(key, str):
            paths.append(prefix + (key,))
        paths += key_paths(sub, prefix + (key,))
    return paths


def mutated(scenario, path, junk):
    out = copy.deepcopy(scenario)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = junk
    return out


FUZZ_CASES = [(sub, path, junk) for sub, sc in SMALL_SCENARIOS.items()
              for path in key_paths(sc) for junk in JUNK
              if not (sub == "verify" and junk is True)]


class TestScenarioFuzz:
    def test_small_scenarios_run(self, tmp_path):
        for sub, sc in SMALL_SCENARIOS.items():
            if sub == "verify":
                continue  # its built-in suites take a third of a second
            path = tmp_path / f"{sub}.yaml"
            path.write_text(yaml.safe_dump({"subcommand": sub, **sc}))
            assert run_cli(sub, "--scenario", str(path),
                           "--out-dir", str(tmp_path / sub)) == 0, sub

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(FUZZ_CASES))
    def test_one_junk_value_never_escapes(self, tmp_path, capsys, case):
        sub, key_path, junk = case
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(
            {"subcommand": sub, **mutated(SMALL_SCENARIOS[sub], key_path, junk)}))
        code = run_cli(sub, "--scenario", str(path), "--out-dir", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 1:
            assert "error (" in err


class TestBundledScenarios:
    def test_pack_is_complete(self):
        names = [p.name for p in cli.bundled_scenarios()]
        assert len(names) == 12
        assert names == sorted(names)

    def test_every_pack_file_parses_and_targets_a_handler(self):
        for path in cli.bundled_scenarios():
            data = yaml.safe_load(path.read_text())
            assert data["subcommand"] in cli.HANDLERS
