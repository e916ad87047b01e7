"""The traced benchmark binds library entry points by name and reads their
arguments by parameter name (bench/spans.py); a signature change that
breaks that binding fails here instead of in a traced bench run."""

import types
from pathlib import Path

import yaml

import rdmsim
from rdmsim import acceptance, cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    # compiled from its text, so no bytecode is written next to it
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_cli_runs_count_work_and_restore_entry_points(tmp_path):
    spans = load_spans()
    originals = {(layer, attr): getattr(getattr(rdmsim, layer), attr)
                 for layer, attr, _ in spans.ENTRY_POINTS}
    criteria = acceptance.ALL_CRITERIA
    scenarios = {
        "frames-analyze": {"a_sq": 0.5, "n": 200, "seed": 5, "v": 0.5,
                           "regions": {"u1": [0.0, 5.0], "u2": [50.0, 55.0],
                                       "d1": [5.0, 10.0], "d2": [55.0, 60.0]}},
        "rdm-sample": {"weights": [0.25, 0.75], "n": 300, "seed": 9},
        "beable-run": {"hamiltonian": [[0.0, -1.0], [-1.0, 0.0]], "psi0": [0.8, 0.6],
                       "dt": 0.01, "steps": 4, "seed": 2,
                       "ensemble": {"n_traj": 20}},
        "tomography": {"state": {"x_min": -8.0, "dx": 0.125, "n": 128, "momentum": 0.5},
                       "n_regions": 16},
    }
    tracer = spans.Tracer()
    with spans.instrumented(tracer, rdmsim):
        for sub, sc in scenarios.items():
            path = tmp_path / f"{sub}.yaml"
            path.write_text(yaml.safe_dump({"subcommand": sub, **sc}))
            assert cli.main([sub, "--scenario", str(path),
                             "--out-dir", str(tmp_path / sub)]) == 0
    assert tracer.counts["frames.events"] > 0
    assert tracer.counts["rdm.draws"] > 0
    # one trajectory of 4 steps and an ensemble of 20 x 4 steps
    assert tracer.counts["beable.traj_steps"] == 4 + 20 * 4
    # a density and a flux projection per region
    assert tracer.counts["protective.projections"] == 2 * 16
    assert tracer.counts["cli.jobs"] == 4
    for (layer, attr), fn in originals.items():
        assert getattr(getattr(rdmsim, layer), attr) is fn, f"{layer}.{attr}"
    assert acceptance.ALL_CRITERIA is criteria
