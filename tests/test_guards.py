"""Every guard has one spelling, written in rdmsim.errors alone.

A located guard appends " at step N" and, in an ensemble, " in trial T"
to its message (errors._Located); a count guard reads "<name> must be
>= <least>, not <value>" (errors.require_at_least), and a size bound
"<name> must be <= <most>, not <value>" (errors.require_at_most).  The
table pins each count bound, the property checks the location of
whatever guard a random run trips, and the AST check keeps every other
module from spelling any of the three by hand, or any ">=" at all.  A
shape guard names the shape it rejects, and a scalar guard the value,
each pinned in full."""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmsim import beable, collapse, constants, frames, hilbert, protective, rdm, schrodinger
from rdmsim.collapse import CollapseConfig
from rdmsim.errors import (ContractViolation, DimensionMismatchError, NormalizationError,
                           NumericFailure, StepSizeError, SuperluminalFrameError,
                           SuperPlanckianError, _Located)

ROOT = Path(__file__).resolve().parent.parent

PAIR = hilbert.EnergySuperposition([0.0, 0.5], np.sqrt([0.5, 0.5]))
TWO_SITE_H = hilbert.HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
TWO_SITE_PSI = hilbert.ComplexVectorState([0.6, 0.8j])


def _zeno_setup(n):
    pointer = protective.PointerState.gaussian(-40.0, 80.0 / 512, 512, 0.0, 5.0)
    plus = hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2))
    return protective.ProtectiveSetup(plus, hilbert.HermitianOperator(np.diag([1.0, 0.0])), n,
                                      1.0, pointer)


def _packet():
    return schrodinger.GridWavefunction.gaussian(-8.0, 0.125, 128, 0.0, 1.0)


COUNT_GUARDS = {  # one row per bound: (the call with that count one below it, message)
    "run_trajectory-max_steps": (lambda: collapse.run_trajectory(PAIR, CollapseConfig(), -1),
                                 "max_steps must be >= 0, not -1"),
    "ensemble_statistics-n_trials": (
        lambda: collapse.ensemble_statistics(PAIR, CollapseConfig(), 1, 10, 5),
        "n_trials must be >= 2, not 1"),
    "ensemble_statistics-n_steps": (
        lambda: collapse.ensemble_statistics(PAIR, CollapseConfig(), 10, -1, 5),
        "n_steps must be >= 0, not -1"),
    "ensemble_statistics-slice_stride": (
        lambda: collapse.ensemble_statistics(PAIR, CollapseConfig(), 10, 10, 0),
        "slice_stride must be >= 1, not 0"),
    "ensemble_outcomes-n_trials": (
        lambda: collapse.ensemble_outcomes(PAIR, CollapseConfig(), 0, 10),
        "n_trials must be >= 1, not 0"),
    "ensemble_outcomes-max_steps": (
        lambda: collapse.ensemble_outcomes(PAIR, CollapseConfig(), 10, -1),
        "max_steps must be >= 0, not -1"),
    "jump_trajectory-steps": (
        lambda: beable.jump_trajectory(TWO_SITE_H, TWO_SITE_PSI, 0, 0.01, -1, seed=1),
        "steps must be >= 0, not -1"),
    "ensemble_jump_run-n_traj": (
        lambda: beable.ensemble_jump_run(TWO_SITE_H, TWO_SITE_PSI, 0, 0.01, 5, seed=1),
        "n_traj must be >= 1, not 0"),
    "ensemble_jump_run-steps": (
        lambda: beable.ensemble_jump_run(TWO_SITE_H, TWO_SITE_PSI, 10, 0.01, -1, seed=1),
        "steps must be >= 0, not -1"),
    "ensemble_jump_run-record_every": (
        lambda: beable.ensemble_jump_run(TWO_SITE_H, TWO_SITE_PSI, 10, 0.01, 5, seed=1,
                                         record_every=0),
        "record_every must be >= 1, not 0"),
    "ProtectiveSetup-n_projections": (lambda: _zeno_setup(0),
                                      "n_projections must be >= 1, not 0"),
    "tomography-n_regions": (lambda: protective.tomography(_packet(), 8),
                             "n_regions must be >= 16, not 8"),
    "sample_stays-n": (lambda: rdm.sample_stays([1.0], 0, seed=0), "n must be >= 1, not 0"),
    "evolve_grid-steps": (lambda: schrodinger.evolve_grid(_packet(), None, 0.01, -1),
                          "steps must be >= 0, not -1"),
}


@pytest.mark.parametrize("name", COUNT_GUARDS)
def test_count_guard_names_its_count(name):
    run, message = COUNT_GUARDS[name]
    with pytest.raises(ContractViolation) as exc:
        run()
    assert type(exc.value) is ContractViolation
    assert str(exc.value) == message


SHAPE_GUARDS = [  # (amplitudes or samples, message)
    (lambda: hilbert.ComplexVectorState([]),
     "state needs a nonempty 1-d amplitude vector, not shape (0,)"),
    (lambda: hilbert.ComplexVectorState([[0.6, 0.8]]),
     "state needs a nonempty 1-d amplitude vector, not shape (1, 2)"),
    (lambda: schrodinger.GridWavefunction(0.0, 0.5, np.full(6, 1 / np.sqrt(3.0))),
     "grid needs an even count of at least 8 samples in 1-d, not shape (6,)"),
    (lambda: schrodinger.GridWavefunction(0.0, 0.1, np.ones(9) / 3.0),
     "grid needs an even count of at least 8 samples in 1-d, not shape (9,)"),
    (lambda: schrodinger.GridWavefunction(0.0, 0.1, np.ones((2, 8)) / 4.0),
     "grid needs an even count of at least 8 samples in 1-d, not shape (2, 8)"),
]


@pytest.mark.parametrize("build, message", SHAPE_GUARDS)
def test_shape_guard_names_its_shape(build, message):
    with pytest.raises(DimensionMismatchError) as exc:
        build()
    assert str(exc.value) == message


SCALAR_GUARDS = {  # one row per guard and input kind: (the call, its class, message)
    "SynchronyParams-v": (lambda: frames.SynchronyParams(v=1.5), SuperluminalFrameError,
                          "|v| = 1.5 is not below c = 1"),
    "SynchronyParams-v-nan": (lambda: frames.SynchronyParams(v=np.nan), SuperluminalFrameError,
                              "|v| = nan is not below c = 1"),
    "SynchronyParams-v-array": (lambda: frames.SynchronyParams(v=np.array([0.2, -1.0, 0.5])),
                                SuperluminalFrameError, "|v| = 1 is not below c = 1"),
    "SynchronyParams-k": (lambda: frames.SynchronyParams(v=0.1, k=2.0), ContractViolation,
                          "k must lie in [-1, 1], not 2"),
    "SynchronyParams-k-nan": (lambda: frames.SynchronyParams(v=0.1, k=np.nan),
                              ContractViolation, "k must lie in [-1, 1], not nan"),
    "SynchronyParams-k_prime-array": (
        lambda: frames.SynchronyParams(v=np.array([0.1, 0.2, 0.3]),
                                       k_prime=np.array([0.5, -1.5, 3.0])),
        ContractViolation, "k_prime must lie in [-1, 1], not -1.5"),
    "SynchronyParams-k_prime-nan-array": (
        lambda: frames.SynchronyParams(v=0.1, k_prime=np.array([0.0, np.nan])),
        ContractViolation, "k_prime must lie in [-1, 1], not nan"),
    "relativistic_collapse_time-v": (
        lambda: collapse.relativistic_collapse_time(1.0, -constants.C_M_S), ContractViolation,
        "|v| must be below c = 299792458 m/s, not -299792458.0"),
    "relativistic_collapse_time-v-nan": (
        lambda: collapse.relativistic_collapse_time(1.0, np.nan), ContractViolation,
        "|v| must be below c = 299792458 m/s, not nan"),
    "relativistic_collapse_time-v-array": (
        lambda: collapse.relativistic_collapse_time(1.0, np.array([0.0, 1e3])), ContractViolation,
        "v must be a scalar, not shape (2,)"),
    "collapse_time-delta_e-array": (lambda: collapse.collapse_time(np.array([1.0, 2.0])),
                                    ContractViolation, "delta_e must be a scalar, not shape (2,)"),
    "collapse_time-delta_e": (lambda: collapse.collapse_time(-0.5), ContractViolation,
                              "delta_e must be positive, not -0.5"),
    "collapse_time-delta_e-nan": (lambda: collapse.collapse_time(np.nan), ContractViolation,
                                  "delta_e must be positive, not nan"),
    "CollapseConfig-k0": (lambda: CollapseConfig(k_mode="frozen", k0=1.5), ContractViolation,
                          "frozen mode needs 0 <= k0 <= 1, not 1.5"),
    "CollapseConfig-k0-none": (lambda: CollapseConfig(k_mode="frozen"), ContractViolation,
                               "frozen mode needs 0 <= k0 <= 1, not None"),
    "CollapseConfig-k0-nan": (lambda: CollapseConfig(k_mode="frozen", k0=np.nan),
                              ContractViolation, "frozen mode needs 0 <= k0 <= 1, not nan"),
    "rate_path-noise_c": (
        lambda: beable.jump_trajectory(TWO_SITE_H, TWO_SITE_PSI, 0, 0.01, 5, seed=1,
                                       noise_c=-0.5),
        NormalizationError, "noise_c must be non-negative, not -0.5"),
    "rate_path-noise_c-nan": (
        lambda: beable.ensemble_jump_run(TWO_SITE_H, TWO_SITE_PSI, 10, 0.01, 5, seed=1,
                                         noise_c=np.nan),
        NormalizationError, "noise_c must be non-negative, not nan"),
    "GridWavefunction-dx": (lambda: schrodinger.GridWavefunction(0.0, -0.1, np.ones(16)),
                            DimensionMismatchError, "dx must be positive, not -0.1"),
    "GridWavefunction-dx-nan": (
        lambda: schrodinger.GridWavefunction.gaussian(0.0, np.nan, 64, 0.0, 1.0),
        DimensionMismatchError, "dx must be positive, not nan"),
}


@pytest.mark.parametrize("name", SCALAR_GUARDS)
def test_scalar_guard_names_its_value(name):
    run, cls, message = SCALAR_GUARDS[name]
    with pytest.raises(cls) as exc:
        run()
    assert type(exc.value) is cls
    assert str(exc.value) == message


@st.composite
def collapse_cases(draw):
    """A dynamic-k superposition whose spread can pass 1 (energies up to
    4 apart) or overflow (a branch at 1e200), and a runner of it."""
    m = draw(st.integers(2, 4))
    energies = [0.0] + draw(st.lists(st.sampled_from([0.5, 2.1, 2.5, 3.0, 4.0, 1e200]),
                                     min_size=m - 1, max_size=m - 1))
    # one dominant branch keeps k below 1 at first in most cases, so that a
    # trial passes it only once its draws favour a minor branch
    weights = np.array(draw(st.lists(st.floats(0.005, 0.05), min_size=m, max_size=m)))
    weights[draw(st.integers(0, m - 1))] = 1.0
    return dict(s0=hilbert.EnergySuperposition(energies, np.sqrt(weights / weights.sum())),
                cfg=CollapseConfig(k_mode="dynamic", seed=draw(st.integers(0, 1000))),
                runner=draw(st.sampled_from(["run_trajectory", "ensemble_outcomes",
                                             "ensemble_statistics"])),
                n_trials=draw(st.integers(2, 40)), steps=draw(st.integers(0, 60)))


def run_collapse(case, n_trials):
    run = getattr(collapse, case["runner"])
    if case["runner"] == "run_trajectory":
        return run(case["s0"], case["cfg"], case["steps"])
    if case["runner"] == "ensemble_outcomes":
        return run(case["s0"], case["cfg"], n_trials, case["steps"])
    return run(case["s0"], case["cfg"], n_trials, case["steps"], 5)


@st.composite
def beable_cases(draw):
    """A random Hermitian H of dim 2-4, strong enough at some scales to
    pass the outflow guard, and a state with some sites tiny or empty."""
    dim = draw(st.integers(2, 4))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * rng.choice([1, 1, 1e-7, 0], dim)
    v[0] = 1.0
    scale = draw(st.sampled_from([1.0, 20.0]))
    return dict(h=hilbert.HermitianOperator((m + m.conj().T) * scale),
                psi0=hilbert.ComplexVectorState(v / np.linalg.norm(v)),
                dt=draw(st.floats(0.001, 0.03)), steps=draw(st.integers(1, 40)),
                noise_c=draw(st.sampled_from([0.0, 0.5])), seed=draw(st.integers(0, 1000)),
                n_traj=draw(st.integers(1, 30)), ensemble=draw(st.booleans()))


def assert_located(exc):
    assert isinstance(exc, _Located)
    assert type(exc.step) is int and exc.step >= 0
    where = f" at step {exc.step}" + ("" if exc.trial is None else f" in trial {exc.trial}")
    assert str(exc).endswith(where)


@given(collapse_cases(), beable_cases())
@settings(max_examples=150, deadline=None)
def test_every_guard_hit_names_its_step_and_trial(collapse_case, beable_case):
    # collapse: every guard names a trial, trial 0 for a trajectory and the
    # first bad trial of an ensemble.  Each trial runs on its own stream, so
    # an ensemble of the trials up to it fails the same way, and one of only
    # the trials before it passes that step.
    case = collapse_case
    try:
        run_collapse(case, case["n_trials"])
    except (ContractViolation, NumericFailure) as exc:
        assert isinstance(exc, (SuperPlanckianError, NumericFailure))
        assert_located(exc)
        assert type(exc.trial) is int
        if case["runner"] == "run_trajectory":
            assert exc.trial == 0
        else:
            assert 0 <= exc.trial < case["n_trials"]
            least = 2 if case["runner"] == "ensemble_statistics" else 1
            with pytest.raises(type(exc)) as again:
                run_collapse(case, max(exc.trial + 1, least))
            assert str(again.value) == str(exc)
            if exc.trial >= least:
                try:
                    run_collapse(case, exc.trial)
                except (SuperPlanckianError, NumericFailure) as before:
                    assert before.step > exc.step
    # beable: only the ensemble's outflow guard names a trial; the rate-path
    # guards never do, since every walker reads the same path
    case = beable_case
    try:
        if case["ensemble"]:
            beable.ensemble_jump_run(case["h"], case["psi0"], case["n_traj"], case["dt"],
                                     case["steps"], seed=case["seed"], noise_c=case["noise_c"])
        else:
            beable.jump_trajectory(case["h"], case["psi0"], 0, case["dt"], case["steps"],
                                   seed=case["seed"], noise_c=case["noise_c"])
    except (ContractViolation, NumericFailure) as exc:
        assert_located(exc)
        if isinstance(exc, StepSizeError) and case["ensemble"]:
            assert 0 <= exc.trial < case["n_traj"]
        else:
            assert exc.trial is None


def test_grid_nan_names_its_step():
    # once dt and v pass their checks each split step is a product of finite
    # phases, so the third inverse FFT is made to return NaN
    psi, real_ifft, calls = _packet(), np.fft.ifft, []

    def ifft(x):
        calls.append(x)
        return real_ifft(x) * (np.nan if len(calls) == 3 else 1.0)

    with mock.patch.object(np.fft, "ifft", ifft), pytest.raises(NumericFailure) as exc:
        schrodinger.evolve_grid(psi, None, 0.01, 5)
    assert str(exc.value) == "grid evolution produced NaN/overflow at step 2"
    assert (exc.value.step, exc.value.trial) == (2, None)


LOCATION_WORDS = ("at step", "of trial", "in trial", ">=", "must be <=")


def hand_spelled() -> list:
    """Every string of the library outside errors.py, docstrings aside,
    that spells a location, a ">=" or a "must be <=" bound itself."""
    found = []
    for path in sorted((ROOT / "src" / "rdmsim").glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        found += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings
                  and (node.value.startswith("step ")
                       or any(word in node.value for word in LOCATION_WORDS))]
    return found


def test_only_errors_spells_a_location_or_count():
    assert hand_spelled() == []
