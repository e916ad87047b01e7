import hashlib
import json

import pytest

from rdmsim import cli


class TestComplexScenarioStates:
    def test_pairs_accepted_for_states_and_matrices(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        # |psi> = (1/sqrt2)(|0> + i|1>) as [re, im] pairs; H = -sigma_x
        scenario.write_text(
            "subcommand: beable-run\n"
            "hamiltonian: [[[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]\n"
            "psi0: [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]\n"
            "dt: 0.01\nsteps: 50\nseed: 1\n")
        assert cli.main(["beable-run", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path)]) == 0


class TestVerifyCli:
    def test_single_criterion_filter(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("subcommand: verify\ncriteria: [9, 10, 12]\n")
        assert cli.main(["verify", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [r["detail"] for r in report["acceptance"]] == [
            "fractional difference 0.000400157 vs 4e-4",
            "reduction residual 8.9e-16; absolute-sync residual 2.2e-16; "
            "interval residual 8.9e-14",
            "zeros on matching indices: True; others positive: True; "
            "unitary check residuals: 0.0e+00/0.0e+00/2.2e-17",
        ]
        assert [r["id"] for r in report["acceptance"]] == [9, 10, 12]
        assert report["all_ok"]

    def test_plain_verify_is_green(self, tmp_path):
        assert cli.main(["verify", "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert list(report["suites"]) == ["seeding"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "verify_report.json"]
        checks = [c for suite in report["suites"].values() for c in suite]
        assert checks and all(c["ok"] is True for c in checks), \
            [c for c in checks if c["ok"] is not True]
        assert report["acceptance"] == [] and report["all_ok"] is True


# sha256 of every data file (manifest.json aside) that each bundled
# scenario writes, but 04, whose criterion takes seconds.  They pin the
# determinism contract across changes: same scenario + seed, same bytes.
# Float formatting follows numpy's results, so another numpy or BLAS
# build may need them recorded again.
BUNDLED_DATA_SHA256 = {
    "01": {
        "tau_c.csv": "2633c61c6cfb831a5ef9c2734ab8dd0923af24e486cd95931bf3bd0987696cfc",
    },
    "02": {
        "collapse_ensemble.json": "b6a01a00dc5a256198fa00953980b6e131e34793b4dc8782432145445f3089b4",
    },
    "03": {
        "collapse_ensemble.json": "05fd96fdd0bed4a020b1b52f9a9ef64bf9d104d0bfbdab92481708f2a2ae1f58",
    },
    "05": {
        "protect_sweep.csv": "6587d8649a632b0ade49f2a486eccf7fdfca479e13f13fa59c0a94fa200f6fb7",
    },
    "06": {
        "beable_trajectory.csv": "3e0d81c8168987fbc519ad0d65ced136c61e0642d45541017b56af9519583a7d",
        "equivariance.json": "594abdb0c4b7cb764f8a2336e650401b5e23658eeb7653796905e78c3ec43d63",
    },
    "07": {
        "stays.csv": "616c833f8eb2665c53a876ccccf706ac71fb79ebee5f7678bc3b7bb34201dec4",
    },
    "08": {
        "frames_report.json": "32e7b6492f5652f14acf8d069c88dbc236cfefe3515eae8428aea7a7e82106aa",
    },
    "09": {
        "verify_report.json": "b5385e1077a83e331ff63efca5bb3ba25c0c35fbb534627ba3dee4479e2e2af6",
    },
    "10": {
        "verify_report.json": "97d529656d117d5b905f46f55f71d8f2c800ac9030cfa6a5b791d745387df305",
    },
    "11": {
        "tomography.json": "79db8a7794b54ed5d5cffd7e419adc9d5e0b58c5efbddb686d7714dac1d71dbd",
    },
    "12": {
        "verify_report.json": "cfea02a991434ff04dc4048a9f41adf1e664a9d296b18003b2a44d34f2d19e40",
    },
}


# sha256 of the verify_report.json of plain `rdmsim verify` (the seeding suite)
PLAIN_VERIFY_REPORT_SHA256 = "3cdcd7a4ac5b0dae3ee2c99c33920df16f9330151d7aab33079a185308e925b1"


class TestBundledDataBytes:
    @pytest.mark.parametrize("key", sorted(BUNDLED_DATA_SHA256))
    def test_data_files_match_their_digests(self, tmp_path, key):
        path, = [p for p in cli.bundled_scenarios() if p.name.startswith(f"{key}_")]
        subcommand = cli.load_scenario(path)["subcommand"]
        assert cli.main([subcommand, "--scenario", str(path), "--out-dir", str(tmp_path)]) == 0
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.iterdir() if f.name != "manifest.json"}
        assert written == BUNDLED_DATA_SHA256[key]

    def test_plain_verify_report_matches_its_digest(self, tmp_path):
        assert cli.main(["verify", "--out-dir", str(tmp_path)]) == 0
        written = hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest()
        assert written == PLAIN_VERIFY_REPORT_SHA256
