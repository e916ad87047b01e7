import copy
import csv
import json
import math
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rdmsim import cli, io, rdm, verify
from rdmsim.errors import ContractViolation, ScenarioError
from rdmsim.seeding import _seed_words, derive_seed, derive_seeds, seeded_rng, trial_rngs

# derive_seed(master, index), computed with SplitMix64 on Python integers
KNOWN_SEEDS = {
    (0, 0): 0xE220A8397B1DCDAF, (0, 1): 0x6E789E6AA1B965F4, (0, 12345): 0xAE3B8A9B02E1CCA9,
    (7, 0): 0x63CBE1E459320DD7, (7, 1): 0x044C3CD7F43C661C, (7, 12345): 0x9C344DE3FEA3E759,
    (2**63, 0): 0x481EC0A212A9F3DB, (2**63, 1): 0xC46FA638A6309012,
    (2**63, 12345): 0xAA25A087EE4D1B50,
    (2**64 - 1, 0): 0xE4D971771B652C20, (2**64 - 1, 1): 0xE99FF867DBF682C9,
    (2**64 - 1, 12345): 0x33AEA1658BA2D28A,
}
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
MASK64 = 2**64 - 1


def splitmix_reference(master, index):
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class TestSeeding:
    def test_known_answers(self):
        assert {key: derive_seed(*key) for key in KNOWN_SEEDS} == KNOWN_SEEDS

    def test_distinct_indices(self):
        assert derive_seed(7, 0) != derive_seed(7, 1)

    def test_verify_suite(self):
        checks = verify.suite_seeding()
        assert [name for name, _, _ in checks] == [
            "10k derived seeds distinct",
            "vectorised trial generators match PCG64(derive_seed)"]
        assert all(ok for _, ok, _ in checks)

    @settings(max_examples=60, deadline=None)
    @given(master=st.integers(-2**65, 2**66), lo=st.integers(-5, 2**64), n=st.integers(0, 40))
    def test_derive_seeds_is_splitmix_on_each_index(self, master, lo, n):
        seeds = derive_seeds(master, lo, lo + n)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [splitmix_reference(master, lo + i) for i in range(n)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, MASK64), max_size=40))
    def test_seed_words_are_numpys_seed_sequence(self, drawn):
        seeds = EDGE_SEEDS + drawn
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for row, seed in zip(words, seeds):
            assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(master=st.sampled_from([0, 7, -3, 2**32, 2**64 - 1, 2**64 + 5]) | st.integers(0, MASK64),
           lo=st.integers(0, 10**6), n=st.integers(1, 20), k=st.integers(1, 9))
    def test_trial_rngs_are_pcg64_of_derived_seeds(self, master, lo, n, k):
        for i, gen in enumerate(trial_rngs(master, lo, lo + n)):
            ref = np.random.Generator(np.random.PCG64(derive_seed(master, lo + i)))
            assert np.array_equal(gen.random(k), ref.random(k))
            assert np.array_equal(gen.integers(0, 2**62, 3), ref.integers(0, 2**62, 3))

    def test_distinct_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_rng_stream_reproducible(self):
        a = trial_rngs(9, 4, 5)[0].random(8)
        b = trial_rngs(9, 4, 5)[0].random(8)
        assert np.array_equal(a, b)

    def test_seeded_rng_is_plain_pcg64(self):
        for seed in (0, 7, 2**64 - 1, np.uint64(5)):
            assert np.array_equal(seeded_rng(seed).random(8),
                                  np.random.Generator(np.random.PCG64(seed)).random(8))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, None, "3", True])
    def test_seeded_rng_rejects_out_of_range(self, seed):
        with pytest.raises(ContractViolation, match="seed"):
            seeded_rng(seed)


class TestComplexJson:
    """A complex scenario value, as reals or as [re, im] pairs (cli._complex)."""

    def test_round_trip_vector(self):
        v = np.array([0.6, 0.8j, -0.1 + 0.2j])
        assert np.array_equal(cli._complex(1)([[0.6, 0.0], [0.0, 0.8], [-0.1, 0.2]]), v)

    def test_round_trip_matrix(self):
        m = np.array([[1.0, 1j], [-1j, 2.0]])
        pairs = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [2.0, 0.0]]]
        assert np.array_equal(cli._complex(2)(pairs), m)

    def test_bad_payload(self):
        with pytest.raises(ValueError, match=r"^complex payload must be \[re, im\] pairs$"):
            cli._complex(1)([[1.0, 2.0, 3.0]])
        with pytest.raises(ScenarioError) as exc:
            cli.parse_scenario({"psi": [[1.0, 2.0, 3.0]]}, "protect-sweep")
        assert str(exc.value) == "bad value for 'psi': complex payload must be [re, im] pairs"


class TestBinaryTrajectory:
    def test_single_round_trip(self, tmp_path):
        traj = rdm.StayTrajectory(rdm.sample_stays([0.3, 0.7], 500, seed=5).stays, 2,
                                  dt_instant=0.5, seed=5)
        path = tmp_path / "run.rdmt"
        io.write_trajectory_binary(path, traj)
        back = io.read_trajectory_binary(path)
        assert np.array_equal(back.stays, traj.stays)
        assert back.n_sites == 2 and back.dt_instant == 0.5 and back.seed == 5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rdmt"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ScenarioError):
            io.read_trajectory_binary(path)

    @pytest.mark.parametrize("keep", [0, 4, 34])
    def test_truncated_header_rejected(self, tmp_path, keep):
        path = tmp_path / "run.rdmt"
        io.write_trajectory_binary(path, rdm.sample_stays([0.3, 0.7], 5, seed=5))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ScenarioError, match="truncated"):
            io.read_trajectory_binary(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "run.rdmt"
        io.write_trajectory_binary(path, rdm.sample_stays([0.3, 0.7], 5, seed=5))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ScenarioError, match="truncated"):
            io.read_trajectory_binary(path)

    def test_paired_kind_rejected(self, tmp_path):
        path = tmp_path / "pair.rdmt"
        header = struct.pack("<4sHBQIQd", b"RDMT", 1, 2, 5, 0, 6, 1.0)
        path.write_bytes(header + b"\0" * (17 * 5))
        with pytest.raises(ScenarioError, match="unknown trajectory kind 2"):
            io.read_trajectory_binary(path)


def csv_module_writer(path, columns, header_comments=()):
    """write_csv as it was written with the csv module: the byte reference."""
    names = list(columns)
    rows = zip(*(np.asarray(columns[n]).tolist() for n in names))
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)


CSV_TEXT = st.text(st.sampled_from(list('ab ,"\r\n\t\xe9')), max_size=5)
CSV_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                        1e16, 1e-5, 0.1]), st.floats())
CSV_CELLS = [st.integers(-2**63, 2**63 - 1), CSV_FLOATS, st.booleans(), CSV_TEXT]


@st.composite
def csv_tables(draw):
    names = draw(st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True))
    n_rows = draw(st.integers(0, 7))
    return {name: draw(st.lists(draw(st.sampled_from(CSV_CELLS)), min_size=n_rows,
                                max_size=n_rows))
            for name in names}


class TestWriteCsv:
    @given(csv_tables(), st.sampled_from([1, 2, 3, io.CSV_BLOCK_ROWS]))
    @example({"i": [-2**63, -1, 0, 2**63 - 1, 7, 8, 9, 10, 11],
              "x": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1, 1.5],
              "b": [True, False] * 4 + [True],
              "s": ["", ",", '"', "\r", "\n", "a b", 'x"y,z', "\xe9", ""]}, 2)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_of_the_csv_module(self, tmp_path, monkeypatch, table, block):
        monkeypatch.setattr(io, "CSV_BLOCK_ROWS", block)  # small blocks: several per table
        io.write_csv(tmp_path / "new.csv", table, header_comments=["k=v"])
        csv_module_writer(tmp_path / "ref.csv", table, header_comments=["k=v"])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_longer_than_one_block(self, tmp_path):
        n = 2 * io.CSV_BLOCK_ROWS + 1
        table = {"i": np.arange(n) - 2**62, "x": np.linspace(-1.0, 1e16, n),
                 "b": np.arange(n) % 3 == 0, "s": np.array(["", "a,b", 'q"'] * n)[:n]}
        io.write_csv(tmp_path / "new.csv", table)
        csv_module_writer(tmp_path / "ref.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_tau_c_quotes_a_name(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump({"subcommand": "tau-c", "entries": [
            {"name": 'a, b "q"', "delta_e_ev": 1.0, "quoted_target_s": 1.0}]}))
        assert run_cli("tau-c", "--scenario", str(path), "--out-dir", str(tmp_path)) == 0
        row = (tmp_path / "tau_c.csv").read_bytes().split(b"\r\n")[1]
        assert row == b'"a, b ""q""",1.0,8036043984000.873,1.0'


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

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.integers(-2**64 + 1, 2**64 - 1) | st.booleans()))
    def test_numbers_and_bools_round_trip(self, tmp_path, values):
        for name, text in [("s.yaml", yaml.safe_dump({"x": values})),
                           ("s.json", json.dumps({"x": values}))]:
            (tmp_path / name).write_text(text)
            assert repr(cli.load_scenario(tmp_path / name)) == repr({"x": values}), text


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

    @pytest.mark.parametrize("subcommand, body, extra, expect", [
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "k_mode: frozen\nk0: 0.1\nn_trials: abc\n", (), "ScenarioError"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         "max_steps: [1]\n", (), "ScenarioError"),
        ("rdm-sample", "two_box: {}\nn: 10\nseed: 0\n", (),
         "error (ScenarioError): unknown scenario keys: ['two_box']"),
        ("rdm-sample", "two_box: 0.3\nn: 10\nseed: 0\n", (),
         "error (ScenarioError): unknown scenario keys: ['two_box']"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: abc\nseed: 0\n", (), "ScenarioError"),
        ("frames-analyze", "a_sq: abc\nn: 10\nseed: 0\nv: 0.5\n", (), "ScenarioError"),
        ("tau-c", "entries: 5\n", (), "ScenarioError"),
        ("tomography", "state: 5\nn_regions: 16\n", (), "ScenarioError"),
        ("verify", "criteria: 5\n", (), "ScenarioError"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\nbinary: 'no'\n", (),
         "ScenarioError"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         "units: bogus\n", (), "ScenarioError"),
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "delta_e_reducer: linear-sum\n", (), "ScenarioError"),
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       "dt: 0.01\nsteps: 10\nseed: 0\n"
                       "ensemble: {n_traj: 10, foo: 1}\n", (), "ScenarioError"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: -1\n", (), "ScenarioError"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\n", ("--seed", "-1"),
         "error (ScenarioError): unrecognized arguments: --seed -1"),
        ("tau-c", "entries: [{name: x, delta_e_ev: 1.0}]\n", ("--seed", "5"), "ScenarioError"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\n", ("--seed", "5"),
         "error (ScenarioError): unrecognized arguments: --seed 5"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\n", ("--format", "json"),
         "error (ScenarioError): unrecognized arguments: --format json"),
        ("verify", "criteria: [9]\npack: true\n", (), "ScenarioError"),
        ("verify", "criteria: [9]\n", ("--pack",),
         "error (ScenarioError): unrecognized arguments: --pack"),
        ("verify", "criteria: []\n", (), "error (ScenarioError): 'criteria' is empty"),
        # criteria are looked up by position, so 0 would otherwise run criterion 12
        ("verify", "criteria: [0]\n", (), "error (ScenarioError): unknown criteria in [0]"),
        ("verify", "criteria: [13]\n", (), "error (ScenarioError): unknown criteria in [13]"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         "k_mode: dynamic\nk0: 0.1\n", (),
         "error (ContractViolation): k0 is ignored with k_mode 'dynamic'"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 100000000000000000000000000000\nseed: 0\n",
         (), "error (ScenarioError): bad value for 'n': expected an integer in"),
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "n_trials: 100000000000000000000000000000\n", (),
         "error (ScenarioError): bad value for 'n_trials': expected an integer in"),
        ("rdm-sample", f"weights: [0.5, 0.5]\nn: {2**62}\nseed: 0\n", (),
         "error (ScenarioError): bad value for 'n': expected an integer in"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [true, false]\n", (),
         "error (ScenarioError): bad value for 'probabilities': expected a number, not True\n"),
        ("rdm-sample", "weights: [true, false]\nn: 10\nseed: 0\n", (),
         "error (ScenarioError): bad value for 'weights': expected a number, not True\n"),
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "collapse_epsilon: 0.5\n", (),
         "error (ScenarioError): unknown scenario keys: ['collapse_epsilon']"),
        ("verify", "pack: true\n", (), "error (ScenarioError): unknown scenario keys: ['pack']"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\nunits: natural\n", (),
         "error (ScenarioError): unknown scenario keys: ['units']"),
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              "units: natural\n", (),
         "error (ScenarioError): unknown scenario keys: ['units']"),
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       "dt: 0.01\nsteps: 10\nseed: 0\nhbar: 1.0\n", (),
         "error (ScenarioError): unknown scenario keys: ['hbar']"),
        ("tomography", "state: {x_min: -8.0, dx: 0.125, n: 128, mass: 2.0}\nn_regions: 16\n", (),
         "error (ScenarioError): unknown scenario keys: ['state.mass']"),
        ("tomography", "state: {x_min: -8.0, dx: 0.125, n: 128, hbar: 1.0}\nn_regions: 16\n", (),
         "error (ScenarioError): unknown scenario keys: ['state.hbar']"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.36, 0.64]\n"
                         "amplitudes: [0.6, 0.8]\n", (),
         "error (ScenarioError): unknown scenario keys: ['amplitudes']"),
        ("collapse-ensemble", "energies: [0.0, 1.0]\nprobabilities: [0.36, 0.64]\n"
                              "amplitudes: [0.6, 0.8]\n", (),
         "error (ScenarioError): unknown scenario keys: ['amplitudes']"),
        ("tomography", "state: {type: gaussian, x_min: -8.0, dx: 0.125, n: 128}\n"
                       "n_regions: 16\n", (),
         "error (ScenarioError): unknown scenario keys: ['state.type']"),
        ("protect-run", "psi: [0.6, 0.8]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                        "n_projections: 10\ntau: 1.0\n"
                        "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 2.0}\n", (),
         "error (ScenarioError): argument subcommand: invalid choice: 'protect-run'"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\ndt_instant: -1\n", (),
         "error (ScenarioError): unknown scenario keys: ['dt_instant']"),
        ("frames-analyze", "a_sq: 0.5\nn: 10\nseed: 0\nv: 0.5\ndt_instant: 0\n", (),
         "error (ScenarioError): unknown scenario keys: ['dt_instant']"),
        ("frames-analyze", "a_sq: 0.5\nn: 10\nseed: 0\nv: 0.5\ncoincidence_tol: 0.5\n", (),
         "error (ScenarioError): unknown scenario keys: ['coincidence_tol']"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         "collapse_epsilon: 0.5\n", (),
         "error (ScenarioError): unknown scenario keys: ['collapse_epsilon']"),
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       "dt: 0.01\nsteps: 10\nseed: 0\n"
                       "ensemble: {n_traj: 10, record_every: 1}\n", (),
         "error (ScenarioError): unknown scenario keys: ['ensemble.record_every']"),
        # every value has one spelling: a quoted number is a string, and YAML 1.1's
        # other spellings of bools and integers are strings too
        ("rdm-sample", "weights: [0.5, 0.5]\nn: \"100\"\nseed: 0\n", (),
         "error (ScenarioError): bad value for 'n': expected an integer, not '100'\n"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: \"5\"\n", (),
         "error (ScenarioError): bad value for 'seed': seed must be an integer in [0, 2^64), "
         "not '5'\n"),
        ("rdm-sample", "weights: [0.5, 0.5]\nn: 10\nseed: 0\nbinary: yes\n", (),
         "error (ScenarioError): bad value for 'binary': expected a bool, not 'yes'\n"),
        *[("rdm-sample", f"weights: [0.5, 0.5]\nn: {n}\nseed: 0\n", (),
           f"error (ScenarioError): bad value for 'n': expected an integer, not '{n}'\n")
          for n in ["1_000", "0x10", "010", "0b101", "1:30", "2020-13-45"]],
        ("rdm-sample", "weights: [\"0.5\", \" 0.5 \"]\nn: 10\nseed: 0\n", (),
         "error (ScenarioError): bad value for 'weights': expected a number, not '0.5'\n"),
        ("frames-analyze", "a_sq: \" 5_0e-2 \"\nn: 10\nseed: 0\nv: 0.5\n", (),
         "error (ScenarioError): bad value for 'a_sq': expected a number, not ' 5_0e-2 '\n"),
        *[("rdm-sample", f"weights: [0.5, 0.5]\nseed: 0\nn: {value}\n", (),
           f"error (ScenarioError): malformed scenario file: explicit tag {tag!r} is not allowed"
           "\n  in ") for value, tag in [
              ("!!int abc", "tag:yaml.org,2002:int"), ("!!float abc", "tag:yaml.org,2002:float"),
              ("!!bool abc", "tag:yaml.org,2002:bool"),
              ("!!timestamp abc", "tag:yaml.org,2002:timestamp"),
              ("!!int", "tag:yaml.org,2002:int"), ("!!int 0x10", "tag:yaml.org,2002:int"),
              ("! 10", "!")]],
        # Python's int() limits the digits it reads, and the composer recurses per level
        ("rdm-sample", f"weights: [0.5, 0.5]\nseed: 0\nn: 1{'0' * 5000}\n", (),
         "error (ScenarioError): "),
        ("rdm-sample", f"weights: [0.5, 0.5]\nseed: 0\nn: {'[' * 3000}{']' * 3000}\n", (),
         "error (ScenarioError): malformed scenario file: maximum recursion depth exceeded"),
        # a run that records a row per step is capped before it starts
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       f"dt: 0.01\nsteps: {2**59}\nseed: 0\n", (),
         f"error (ContractViolation): steps must be <= 1000000, not {2**59}\n"),
        ("collapse-run", "energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                         f"max_steps: {2**59}\n", (),
         f"error (ContractViolation): max_steps must be <= 1000000, not {2**59}\n"),
        # a state is a unit vector, checked where it is built
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [1.0, 1.0]\n"
                       "dt: 0.01\nsteps: 10\nseed: 0\n", (),
         "error (NormalizationError): state must be normalized, not of norm^2 2\n"),
        ("protect-sweep", "psi: [1.0, 1.0]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                          "n_list: [10]\ntau: 1.0\n"
                          "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 2.0}\n", (),
         "error (NormalizationError): state must be normalized, not of norm^2 2\n"),
    ], ids=["n-trials-abc", "max-steps-list", "two-box-empty", "two-box-number",
            "n-abc", "a-sq-abc", "entries-number", "state-number", "criteria-number",
            "binary-string", "units-bogus", "delta-e-reducer", "ensemble-unknown-key",
            "seed-negative", "seed-override-negative", "seed-without-seed-key", "seed-flag",
            "format-not-read", "pack-key-with-criteria",
            "pack-flag-with-criteria", "criteria-empty", "criteria-zero", "criteria-thirteen",
            "k0-with-dynamic-k", "n-beyond-int64",
            "n-trials-beyond-int64", "n-beyond-numpy-index", "bools-as-probabilities",
            "bools-as-weights", "collapse-epsilon-in-ensemble", "pack-key", "units-in-run",
            "units-in-ensemble", "hbar-in-beable-run", "mass-in-tomography",
            "hbar-in-tomography", "amplitudes-in-run", "amplitudes-in-ensemble",
            "type-in-tomography", "protect-run", "dt-instant-in-rdm-sample",
            "dt-instant-in-frames", "coincidence-tol-in-frames", "collapse-epsilon-in-run",
            "record-every-in-ensemble", "n-quoted", "seed-quoted", "binary-yes", "n-underscore",
            "n-hex", "n-octal", "n-binary", "n-sexagesimal", "n-bad-date", "weights-quoted",
            "a-sq-quoted", "tag-int", "tag-float", "tag-bool", "tag-timestamp", "tag-int-empty",
            "tag-int-hex", "tag-non-specific", "n-too-many-digits", "n-too-deep",
            "steps-too-many-rows", "max-steps-too-many-rows", "psi0-unnormalized",
            "psi-unnormalized"])
    def test_malformed_value_exits_1(self, tmp_path, capsys, subcommand, body, extra,
                                     expect):
        path = tmp_path / "s.yaml"
        path.write_text(f"subcommand: {subcommand}\n{body}")
        assert run_cli(subcommand, "--scenario", str(path),
                       "--out-dir", str(tmp_path), *extra) == 1
        assert expect in capsys.readouterr().err

    def test_pack_flag_exits_1(self, tmp_path, capsys):
        # every criterion is spelled `criteria: [1, ..., 12]`; the flag is gone
        assert run_cli("verify", "--pack", "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error (ScenarioError): unrecognized arguments: "
                                           "--pack\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, body", [
        ("rdm-sample", f"weights: [0.5, 0.5]\nn: {2**59}\nseed: 0\n"),
        ("collapse-ensemble", f"energies: [0.0, 1.0]\nprobabilities: [0.5, 0.5]\n"
                              f"n_trials: {2**59}\nn_steps: 0\n"),
    ], ids=["n", "n-trials"])
    def test_unallocatable_size_exits_1(self, tmp_path, capsys, subcommand, body):
        # 2^59 float64s (4 EiB) exceed the address space, so numpy fails at once;
        # with no steps the ensemble's trial-steps stay below cli.MAX_TRIAL_STEPS
        path = tmp_path / "s.yaml"
        path.write_text(f"subcommand: {subcommand}\n{body}")
        assert run_cli(subcommand, "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"error (ScenarioError): {subcommand} cannot allocate its arrays" in err
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("subcommand, body, name", [
        ("beable-run", "hamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\npsi0: [0.6, 0.8]\n"
                       "dt: -0.005\nsteps: 10\nseed: 0\n", "dt"),
        ("tomography", "state: {x_min: -8.0, dx: 0.125, n: 128, sigma: 0}\n"
                       "n_regions: 16\n", "sigma"),
        ("protect-sweep", "psi: [0.6, 0.8]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                          "n_list: [10]\ntau: 1.0\n"
                          "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 0}\n", "w0"),
    ], ids=["beable-dt", "tomography-sigma", "pointer-w0"])
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
        assert capsys.readouterr().err == ("error (NormalizationError): noise_c must be "
                                           "non-negative, not -1.0\n")
        assert not (tmp_path / "out" / "beable_trajectory.csv").exists()

    def test_nan_strength_exits_2(self, tmp_path, capsys):
        # the squared deviation overflows, so the dynamic k of the ensemble is inf
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: collapse-ensemble\nenergies: [0.0, 1.0e+200]\n"
                        "probabilities: [0.5, 0.5]\nn_trials: 10\nn_steps: 10\n")
        assert run_cli("collapse-ensemble", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == ("numeric failure: k = dE*t_P/hbar is inf "
                                           "at step 0 in trial 0\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("subcommand, body", [
        ("tau-c", "entries: [{name: x, delta_e_ev: 1.0e-200}]\n"),  # (hbar/dE)^2 raises
        ("tau-c", "entries: [{name: x, delta_e_ev: 1.0e-160}]\n"),  # tau_c comes out inf
        ("tomography", "state: {x_min: -8.0, dx: 0.125, n: 128, sigma: 1.0e+200}\n"
                       "n_regions: 16\n"),
        ("protect-sweep", "psi: [0.6, 0.8]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                          "n_list: [10]\ntau: 1.0\n"
                          "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 1.0e+200}\n"),
        ("protect-sweep", "psi: [0.6, 0.8]\nobservable: [[1.0, 0.0], [0.0, 0.0]]\n"
                          "n_list: [10]\ntau: 1.0e+200\ng_profile: triangular\n"
                          "pointer: {x_min: -20.0, dx: 0.5, n: 80, w0: 2.0}\n"),
    ], ids=["tau-c-raises", "tau-c-inf", "tomography-sigma", "pointer-w0", "triangular-tau"])
    def test_overflow_exits_2(self, tmp_path, capsys, subcommand, body):
        path = tmp_path / "s.yaml"
        path.write_text(f"subcommand: {subcommand}\n{body}")
        assert run_cli(subcommand, "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_overflowing_region_exits_2(self, tmp_path, capsys):
        # the width of u2 overflows to inf, which would send particle 2 to inf
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: frames-analyze\na_sq: 0.5\nn: 1000\nseed: 0\nv: 0.5\n"
                        "regions: {u1: [0.0, 50.0], u2: [-1.0e+308, 1.0e+308], "
                        "d1: [50.0, 100.0], d2: [10050.0, 10100.0]}\n")
        assert run_cli("frames-analyze", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "numeric failure: the width of particle 2's region [-1e+308, 1e+308] "
            "in branch 0 overflows\n")
        assert list((tmp_path / "out").iterdir()) == []

    def test_negative_probabilities_exit_1_without_a_warning(self, tmp_path):
        # run apart from pytest, whose warning filters would hide a RuntimeWarning
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: collapse-run\nenergies: [0.0, 1.0]\n"
                        "probabilities: [1.5, -0.5]\n")
        out = subprocess.run([sys.executable, "-m", "rdmsim.cli", "collapse-run",
                              "--scenario", str(path), "--out-dir", str(tmp_path / "out")],
                             capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stderr == ("error (ScenarioError): bad value for 'probabilities': "
                              "expected non-negative numbers, not [1.5, -0.5]\n")

    def test_huge_outflow_prints_three_digits(self, tmp_path, capsys):
        # the step-0 outflow of site 0 is 2 * 0.48 / 0.64 * dt = 1.5e300
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
                        "psi0: [[0.8, 0.0], [0.0, 0.6]]\ndt: 1.0e+300\nsteps: 3\nseed: 0\n")
        assert run_cli("beable-run", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error (StepSizeError): outflow probability "
                                           "1.5e+300 exceeds the 0.1 guard at step 0\n")

    @pytest.mark.parametrize("energies, probabilities, k", [
        ("[0.0, 1.0e+200]", "[0.5, 0.5]", "inf"),  # the spread overflows to inf
        ("[0.0, 1.0, 1.0e+200]", "[0.5, 0.5, 0.0]", "nan"),  # 0 * inf in the spread: NaN
    ], ids=["inf", "nan"])
    def test_collapse_run_nonfinite_strength_exits_2(self, tmp_path, capsys, energies,
                                                     probabilities, k):
        path = tmp_path / "s.yaml"
        path.write_text(f"subcommand: collapse-run\nenergies: {energies}\n"
                        f"probabilities: {probabilities}\n")
        assert run_cli("collapse-run", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (f"numeric failure: k = dE*t_P/hbar is {k} "
                                           "at step 0 in trial 0\n")
        assert list((tmp_path / "out").iterdir()) == []

    def test_collapse_run_super_planckian_names_step(self, tmp_path, capsys):
        # k = 0.36 at step 0 and above 1 once branch 1 stays
        p0 = np.sqrt([0.97, 0.03]) ** 2
        seed = next(seed for seed in range(200)
                    if trial_rngs(seed, 0, 1)[0].random() * (p0[0] + p0[1]) >= p0[0])
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: collapse-run\nenergies: [0.0, 2.1]\n"
                        f"probabilities: [0.97, 0.03]\nseed: {seed}\n")
        assert run_cli("collapse-run", "--scenario", str(path),
                       "--out-dir", str(tmp_path)) == 1
        assert capsys.readouterr().err == ("error (SuperPlanckianError): k = dE*t_P/hbar = 1.02 "
                                           "> 1 at step 1 in trial 0\n")

    def test_energy_offset_leaves_ensemble_unchanged(self, tmp_path):
        # 2^20 + j 2^-7 is exact, so the offset cancels exactly in the spread
        outputs = []
        for offset in (0.0, 2.0**20):
            path = tmp_path / f"{offset}.yaml"
            path.write_text(yaml.safe_dump({
                "subcommand": "collapse-ensemble",
                "energies": [offset, offset + 2.0**-7, offset + 2.0**-6],
                "probabilities": [0.2, 0.5, 0.3], "k_mode": "dynamic", "seed": 5,
                "n_trials": 300, "n_steps": 2000, "slice_stride": 500}))
            out = tmp_path / f"out{offset}"
            assert run_cli("collapse-ensemble", "--scenario", str(path),
                           "--out-dir", str(out)) == 0
            outputs.append((out / "collapse_ensemble.json").read_bytes())
        assert outputs[0] == outputs[1]
        # and the products do decay from their initial 0.1
        assert json.loads(outputs[1])["slices"][-1]["mean_pp"][0] < 0.096

    def test_beable_ensemble_guard_writes_nothing(self, tmp_path, capsys):
        # the single trajectory sits on site 1, which has no outflow, and
        # passes; the ensemble starts on site 0, which still holds walkers
        # (trial 12 the first of them) when its outflow passes 0.1 at step 81
        path = tmp_path / "s.yaml"
        path.write_text("subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
                        f"psi0: [1.0, 0.0]\nbeable0: 1\ndt: {np.pi / 200!r}\nsteps: 90\n"
                        "seed: 0\nensemble: {n_traj: 50}\n")
        assert run_cli("beable-run", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error (StepSizeError): outflow probability 0.102 "
                                           "exceeds the 0.1 guard at step 81 in trial 12\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
    def test_out_dir_naming_a_file_exits_1(self, tmp_path, capsys, under):
        (tmp_path / "f").write_text("x")
        assert run_cli("tau-c", "--out-dir", str(tmp_path / "f" / under)) == 1
        assert "error (ScenarioError): cannot use --out-dir" in capsys.readouterr().err
        assert (tmp_path / "f").read_text() == "x"

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
                       "--out-dir", str(out1)) == 0
        assert run_cli("collapse-ensemble", "--scenario", str(scenario),
                       "--out-dir", str(out2)) == 0
        assert (out1 / "collapse_ensemble.json").read_bytes() == \
               (out2 / "collapse_ensemble.json").read_bytes()

    def test_consecutive_calls_share_no_state(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("subcommand: rdm-sample\nn: 20\nseed: 1\nweights: [0.5, 0.5]\n")
        binary = tmp_path / "b.yaml"
        binary.write_text(scenario.read_text().replace("seed: 1", "seed: 5") + "binary: true\n")
        for name, path in [("binary", binary), ("plain", scenario)]:
            assert run_cli("rdm-sample", "--scenario", str(path),
                           "--out-dir", str(tmp_path / name)) == 0
        assert (tmp_path / "binary" / "stays.rdmt").exists()
        assert not (tmp_path / "binary" / "stays.csv").exists()
        assert (tmp_path / "plain" / "stays.csv").exists()
        assert io.read_trajectory_binary(tmp_path / "binary" / "stays.rdmt").seed == 5
        assert (tmp_path / "plain" / "stays.csv").read_text().startswith(
            "# n_sites=2 dt_instant=1.0 seed=1\n")

    def test_scenario_seed_changes_data(self, tmp_path):
        outputs = []
        for seed in (1, 2):
            scenario = tmp_path / f"s{seed}.yaml"
            scenario.write_text(f"subcommand: rdm-sample\nn: 200\nseed: {seed}\n"
                                "weights: [0.5, 0.5]\n")
            assert run_cli("rdm-sample", "--scenario", str(scenario),
                           "--out-dir", str(tmp_path / str(seed))) == 0
            outputs.append((tmp_path / str(seed) / "stays.csv").read_bytes())
        assert outputs[0] != outputs[1]

    def test_protect_run(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: protect-sweep\n"
            "psi: [0.7071067811865476, 0.7071067811865476]\n"
            "observable: [[1.0, 0.0], [0.0, 0.0]]\n"
            "n_list: [500]\ntau: 1.0\n"
            "pointer: {x_min: -40.0, dx: 0.3125, n: 256, x0: 0.0, w0: 5.0}\n")
        assert run_cli("protect-sweep", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        rows = (tmp_path / "protect_sweep.csv").read_text().splitlines()
        row = dict(zip(rows[1].split(","), rows[2].split(",")))
        assert abs(float(row["shift"]) - 0.5) < 1e-2
        assert float(row["survival"]) >= 0.5

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
            "ensemble: {n_traj: 500}\n")
        assert run_cli("beable-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / "equivariance.json").read_text())
        # a slice every max(1, steps // 10) = 30 steps
        assert [entry["step"] for entry in report["slices"]] == list(range(30, 301, 30))
        for entry in report["slices"]:
            assert {"step", "time", "counts", "expected", "chi2",
                    "p_value"} <= set(entry)

    def test_beable_ensemble_without_slices(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "subcommand: beable-run\nhamiltonian: [[0.0, -1.0], [-1.0, 0.0]]\n"
            "psi0: [0.6, 0.8]\ndt: 0.01\nsteps: 0\nseed: 5\n"
            "ensemble: {n_traj: 50}\n")
        assert run_cli("beable-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0
        assert json.loads((tmp_path / "equivariance.json").read_text())["slices"] == []

    @pytest.mark.parametrize("hamiltonian, psi0", [
        ("[[1.0, 0.0], [0.0, 2.0]]", "[1.0, 0.0]"),
        ("[[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]", "[0.8, 0.6, 0.0]"),
    ], ids=["one-held-site", "two-held-sites"])
    def test_beable_zero_probability_site(self, tmp_path, hamiltonian, psi0):
        # no walker reaches a site of zero amplitude: the site is left out of the test
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            f"subcommand: beable-run\nhamiltonian: {hamiltonian}\npsi0: {psi0}\n"
            "dt: 0.01\nsteps: 20\nseed: 3\nensemble: {n_traj: 50}\n")
        assert run_cli("beable-run", "--scenario", str(scenario),
                       "--out-dir", str(tmp_path)) == 0

        def no_constant(name):
            raise ValueError(f"{name} in strict JSON")

        report = json.loads((tmp_path / "equivariance.json").read_text(),
                            parse_constant=no_constant)
        assert len(report["slices"]) == 10
        for entry in report["slices"]:
            assert entry["counts"][-1] == 0 and entry["expected"][-1] == 0.0
            if len(entry["counts"]) == 2:
                assert entry["p_value"] == 1.0
            else:
                test = stats.chisquare(entry["counts"][:-1], f_exp=entry["expected"][:-1])
                assert entry["chi2"] == test.statistic
                assert entry["p_value"] == pytest.approx(test.pvalue, rel=1e-12)

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "rdmsim.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0

    def test_import_leaves_scipy_out(self, tmp_path):
        # the two runs that compute a p-value: an ensemble beable-run and criterion 6
        scenario = tmp_path / "s.yaml"
        scenario.write_text(yaml.safe_dump({"subcommand": "beable-run",
                                            **SMALL_SCENARIOS["beable-run"]}))
        code = ("import sys\nfrom rdmsim import cli\n"
                f"assert cli.main(['beable-run', '--scenario', {str(scenario)!r}, "
                f"'--out-dir', {str(tmp_path)!r}]) == 0\n"
                "assert cli.run_criterion(6)['passed']\n"
                "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.splitlines()[-1] == "False", out.stderr
        assert (tmp_path / "equivariance.json").exists()


class TestChiSquare:
    @settings(max_examples=500, deadline=None)
    @given(dof=st.integers(1, 60), x=st.floats(0.0, 3000.0))
    @example(dof=1, x=0.0)
    @example(dof=2, x=5e-324)
    @example(dof=1500, x=1490.0)  # a factored e^-h would underflow to 0 here
    def test_survival_function_matches_scipy(self, dof, x):
        ref = stats.chi2.sf(x, dof)
        got = cli._chi2_sf(x, dof)
        if ref > 1e-280:
            assert abs(got - ref) <= 1e-12 * ref
        else:
            assert got < 2e-280

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_slice_statistic_is_scipys(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim))
        psi0 = 1.0 + rng.random(dim)
        params = cli.parse_scenario({
            "hamiltonian": ((m + m.T) / 2).tolist(),
            "psi0": (psi0 / np.linalg.norm(psi0)).tolist(), "dt": 0.002, "steps": 40,
            "seed": seed, "ensemble": {"n_traj": 300}}, "beable-run")
        slices = cli.beable_run(params)[3]
        assert len(slices) == 10
        for entry in slices:
            test = stats.chisquare(entry["counts"], f_exp=entry["expected"])
            assert entry["chi2"] == test.statistic
            assert entry["p_value"] == pytest.approx(test.pvalue, rel=1e-12)


# One small valid scenario per subcommand, with every key set so that the
# fuzz test can corrupt each one; verify runs criterion 9, which takes
# milliseconds.
SMALL_SCENARIOS = {
    "rdm-sample": {"n": 20, "seed": 1, "weights": [0.3, 0.7], "binary": False},
    "beable-run": {"hamiltonian": [[0.0, -1.0], [-1.0, 0.0]], "psi0": [0.8, 0.6],
                   "dt": 0.01, "steps": 4, "seed": 2, "beable0": 0,
                   "noise_c": 0.0, "ensemble": {"n_traj": 20}},
    "collapse-run": {"energies": [0.0, 1.0], "probabilities": [0.5, 0.5],
                     "k_mode": "frozen", "k0": 0.3, "seed": 3, "max_steps": 50},
    "collapse-ensemble": {"energies": [0.0, 1.0], "probabilities": [0.36, 0.64],
                          "k_mode": "frozen", "k0": 0.1,
                          "seed": 4, "n_trials": 8, "n_steps": 6,
                          "slice_stride": 3},
    "tau-c": {"entries": [{"name": "x", "delta_e_ev": 1.0, "quoted_target_s": 1.0}]},
    "protect-sweep": {"psi": [0.6, 0.8], "observable": [[1.0, 0.0], [0.0, 0.0]],
                      "n_list": [10, 20], "tau": 1.0, "g_profile": "constant",
                      "pointer": {"x_min": -20.0, "dx": 0.5, "n": 80, "x0": 0.0,
                                  "w0": 2.0}},
    "tomography": {"state": {"x_min": -8.0, "dx": 0.125, "n": 128,
                             "center": 0.0, "sigma": 1.0, "momentum": 0.5},
                   "n_regions": 16},
    "frames-analyze": {"a_sq": 0.5, "n": 200, "seed": 5, "v": 0.5,
                       "regions": {"u1": [0.0, 5.0], "u2": [50.0, 55.0],
                                   "d1": [5.0, 10.0], "d2": [55.0, 60.0]},
                       "events_csv": False},
    "verify": {"criteria": [9]},
}

JUNK = ["abc", [], {}, None, -1, 0, 1.5, float("nan"), True]
# sizes and scales at the edges of what a scenario can spell
EXTREMES = [2**59, 1e308, -1e308, 1e-308, 5e-324, 1e15, 0.999999999999]


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


def schema_paths(schema, prefix=()):
    """Paths of every key of a cli.SCHEMAS entry, with list indices left out."""
    paths = []
    for key, (convert, _) in schema.items():
        paths.append(prefix + (key,))
        if isinstance(convert, list):
            convert = convert[0]
        if isinstance(convert, dict):
            paths += schema_paths(convert, prefix + (key,))
    return paths


def value_at(scenario, path):
    for key in path:
        scenario = scenario[key]
    return scenario


def mutated(scenario, path, junk):
    out = copy.deepcopy(scenario)
    value_at(out, path[:-1])[path[-1]] = junk
    return out


FUZZ_CASES = [(sub, path, junk) for sub, sc in SMALL_SCENARIOS.items()
              for path in key_paths(sc) for junk in JUNK]


def holds_floats(value):
    return isinstance(value, float) or (isinstance(value, list) and bool(value)
                                        and all(map(holds_floats, value)))


def quoted(value):
    """value with each number in it, nested ones too, replaced by its repr."""
    return [quoted(v) for v in value] if isinstance(value, list) else repr(value)


# every key whose value is a float or an array of floats
FLOAT_PATHS = [(sub, path) for sub, sc in SMALL_SCENARIOS.items() for path in key_paths(sc)
               if holds_floats(value_at(sc, path))]


class TestScenarioFuzz:
    def test_small_scenarios_set_every_key(self):
        assert set(SMALL_SCENARIOS) == set(cli.HANDLERS)
        for sub, sc in SMALL_SCENARIOS.items():
            covered = {tuple(k for k in path if isinstance(k, str)) for path in key_paths(sc)}
            assert set(schema_paths(cli.SCHEMAS[sub])) <= covered, sub

    def test_small_scenarios_run(self, tmp_path):
        for sub, sc in SMALL_SCENARIOS.items():
            path = tmp_path / f"{sub}.yaml"
            path.write_text(yaml.safe_dump({"subcommand": sub, **sc}))
            assert run_cli(sub, "--scenario", str(path),
                           "--out-dir", str(tmp_path / sub)) == 0, sub

    @pytest.mark.parametrize("sub, key_path", FLOAT_PATHS,
                             ids=[f"{sub}-{'.'.join(map(str, p))}" for sub, p in FLOAT_PATHS])
    def test_quoted_number_exits_1(self, tmp_path, capsys, sub, key_path):
        scenario = SMALL_SCENARIOS[sub]
        text = quoted(value_at(scenario, key_path))
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump({"subcommand": sub, **mutated(scenario, key_path, text)}))
        assert run_cli(sub, "--scenario", str(path), "--out-dir", str(tmp_path / "out")) == 1
        assert "expected a number, not '" in capsys.readouterr().err

    @staticmethod
    def assert_never_escapes(tmp_path, capsys, sub, key_path, value):
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(
            {"subcommand": sub, **mutated(SMALL_SCENARIOS[sub], key_path, value)}))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)  # tmp_path is shared by the cases
        code = run_cli(sub, "--scenario", str(path), "--out-dir", str(out))
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (key_path, value)
        if code == 1:
            assert "error (" in err
        if code != 0:  # a failed run writes no file
            assert not out.exists() or list(out.iterdir()) == []

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(FUZZ_CASES))
    def test_one_junk_value_never_escapes(self, tmp_path, capsys, case):
        self.assert_never_escapes(tmp_path, capsys, *case)

    # numpy's overflow warnings reach stderr as they do in a user's run; the exit
    # code and the empty --out-dir are what this test holds
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sub", sorted(SMALL_SCENARIOS))
    def test_one_extreme_value_never_escapes(self, tmp_path, capsys, sub):
        for key_path in key_paths(SMALL_SCENARIOS[sub]):
            for value in EXTREMES:
                self.assert_never_escapes(tmp_path, capsys, sub, key_path, value)

    def test_unbounded_ensemble_exits_1_before_it_runs(self, tmp_path, capsys):
        # 10^15 trial-steps would run for days and write nothing until the end
        scenario = {**SMALL_SCENARIOS["collapse-ensemble"], "n_trials": 1000,
                    "n_steps": 10**12, "slice_stride": 10**11}
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump({"subcommand": "collapse-ensemble", **scenario}))
        assert run_cli("collapse-ensemble", "--scenario", str(path),
                       "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error (ContractViolation): n_trials * n_steps "
                                           "must be <= 100000000, not 1000000000000000\n")
        assert not (tmp_path / "out").exists()


class TestRowBound:
    """A run that records a row per step takes at most cli.MAX_ROWS steps, and
    an ensemble at most cli.MAX_TRIAL_STEPS trial-steps."""

    @pytest.mark.parametrize("sub", sorted(cli.ROW_KEYS))
    def test_bound_is_inclusive(self, sub):
        key, sc = cli.ROW_KEYS[sub], SMALL_SCENARIOS[sub]
        assert cli.parse_scenario({**sc, key: cli.MAX_ROWS}, sub)[key] == cli.MAX_ROWS
        with pytest.raises(ContractViolation) as exc:
            cli.parse_scenario({**sc, key: cli.MAX_ROWS + 1}, sub)
        assert type(exc.value) is ContractViolation
        assert str(exc.value) == f"{key} must be <= {cli.MAX_ROWS}, not {cli.MAX_ROWS + 1}"

    def test_bound_exceeds_defaults_and_bundled_values(self):
        for sub, key in cli.ROW_KEYS.items():
            default = cli.SCHEMAS[sub][key][1]
            assert default is cli.REQUIRED or default < cli.MAX_ROWS
        values = [data[cli.ROW_KEYS[data["subcommand"]]]
                  for data in map(cli.load_scenario, cli.bundled_scenarios())
                  if cli.ROW_KEYS.get(data["subcommand"]) in data]
        assert values and max(values) < cli.MAX_ROWS

    def test_trial_step_bound_is_inclusive(self):
        sc = {**SMALL_SCENARIOS["collapse-ensemble"], "n_trials": 1000}
        most = cli.MAX_TRIAL_STEPS // 1000
        assert cli.parse_scenario({**sc, "n_steps": most}, "collapse-ensemble")["n_steps"] == most
        with pytest.raises(ContractViolation) as exc:
            cli.parse_scenario({**sc, "n_steps": most + 1}, "collapse-ensemble")
        assert type(exc.value) is ContractViolation
        assert str(exc.value) == (f"n_trials * n_steps must be <= {cli.MAX_TRIAL_STEPS}, "
                                  f"not {1000 * (most + 1)}")

    def test_trial_step_bound_exceeds_defaults_and_bundled_values(self):
        schema = cli.SCHEMAS["collapse-ensemble"]
        products = [schema["n_trials"][1] * schema["n_steps"][1]]
        products += [data.get("n_trials", schema["n_trials"][1])
                     * data.get("n_steps", schema["n_steps"][1])
                     for data in map(cli.load_scenario, cli.bundled_scenarios())
                     if data["subcommand"] == "collapse-ensemble"]
        assert len(products) > 1 and max(products) < cli.MAX_TRIAL_STEPS


class TestBundledScenarios:
    def test_pack_is_complete(self):
        names = [p.name for p in cli.bundled_scenarios()]
        assert len(names) == 12
        assert names == sorted(names)

    def test_every_pack_file_parses_and_targets_a_handler(self):
        prefixes = []
        for path in cli.bundled_scenarios():
            data = cli.load_scenario(path)
            # the pack reads as YAML 1.1 reads it, so its scenario hashes are unchanged
            assert repr(data) == repr(yaml.safe_load(path.read_text()))
            assert data["subcommand"] in cli.HANDLERS
            cli.parse_scenario(data, data["subcommand"])
            prefixes.append(path.name[:3])
        assert prefixes == [f"{i:02d}_" for i in range(1, 13)]

    def test_scenario_drives_its_criterion(self, tmp_path, monkeypatch):
        for path in cli.bundled_scenarios():
            text = path.read_text()
            if path.name.startswith("03_"):
                text = text.replace("k0: 0.1\n", "k0: 0.2\n")
            (tmp_path / path.name).write_text(text)
        monkeypatch.setattr(cli, "bundled_scenarios",
                            lambda: sorted(tmp_path.iterdir(), key=lambda f: f.name))
        result = cli.run_criterion(3)
        assert result["passed"], result["detail"]
        # the expectation (1 - k0^2)^10 / 4 of the first slice follows k0
        assert f"vs {(1.0 - 0.2**2) ** 10 * 0.25:.5f}" in result["detail"]
        assert f"vs {(1.0 - 0.1**2) ** 10 * 0.25:.5f}" not in result["detail"]

    @pytest.mark.parametrize("cid", [0, 13, -1, "1"])
    def test_unknown_criterion_names_its_id(self, cid):
        with pytest.raises(ScenarioError, match=f"^unknown criterion {cid!r}$"):
            cli.run_criterion(cid)
