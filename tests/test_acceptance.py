"""Acceptance gate: every criterion at its stated tolerance.

Each test checks one criterion on its bundled scenario, through the
same runner as `rdmsim verify` with `criteria: [1, ..., 12]`, and
records a PASS/FAIL line that conftest prints in the terminal summary
(also visible live with pytest -s).  Tolerances are pinned inside
rdmsim.acceptance.
"""

import ast
import inspect

from rdmsim import acceptance, cli

from conftest import record_criterion


def _run(cid):
    result = cli.run_criterion(cid)
    record_criterion(result)
    assert result["passed"], f"criterion {result['id']}: {result['detail']}"


def test_each_criterion_sits_at_its_id():
    # verify and run_criterion find criterion N at ALL_CRITERIA[N - 1], and each
    # _report call spells its id; read from the source, so no criterion runs
    defs = {node.name: node for node in ast.parse(inspect.getsource(acceptance)).body
            if isinstance(node, ast.FunctionDef)}
    for cid, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
        assert fn.__name__.startswith(f"criterion_{cid}_")
        assert getattr(acceptance, fn.__name__) is fn
        ids = [call.args[0] for call in ast.walk(defs[fn.__name__])
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_report"]
        assert {ast.dump(arg) for arg in ids} == {ast.dump(ast.Constant(cid))}, fn.__name__


def test_criterion_01_collapse_time_table():
    _run(1)


def test_criterion_02_born_martingale():
    _run(2)


def test_criterion_03_offdiagonal_decay():
    _run(3)


def test_criterion_04_collapse_time_scaling():
    _run(4)


def test_criterion_05_protective_convergence():
    _run(5)


def test_criterion_06_beable_equivariance():
    _run(6)


def test_criterion_07_rdm_ergodicity():
    _run(7)


def test_criterion_08_entanglement_frames():
    _run(8)


def test_criterion_09_relativistic_anisotropy():
    _run(9)


def test_criterion_10_frame_algebra():
    _run(10)


def test_criterion_11_schrodinger_checks():
    _run(11)


def test_criterion_12_nogo_constructions():
    _run(12)
