import json

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
