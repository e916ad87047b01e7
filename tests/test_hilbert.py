import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rdmsim import acceptance, collapse, frames, hilbert, protective, rdm
from rdmsim.collapse import CollapseConfig
from rdmsim.errors import (
    ContractViolation,
    DimensionMismatchError,
    NormalizationError,
    SuperluminalFrameError,
)


def rand_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return hilbert.ComplexVectorState(v / np.linalg.norm(v))


class TestBornProbabilities:
    """|c_i|^2 of the branch state that the collapse runs step."""

    def test_basis_state(self):
        s = hilbert.EnergySuperposition([0.0, 1.0], [1.0, 0.0])
        assert np.allclose(s.probabilities, [1.0, 0.0])

    def test_equal_superposition(self):
        s = hilbert.EnergySuperposition([0.0, 1.0], np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(s.probabilities, [0.5, 0.5])

    def test_complex_amplitudes(self):
        # hand-evaluated modulus squares of (0.6, 0.8i)
        s = hilbert.EnergySuperposition([0.0, 1.0], [0.6, 0.8j])
        assert np.allclose(s.probabilities, [0.36, 0.64], atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            hilbert.EnergySuperposition([0.0, 1.0], [1.0, 1.0])

    def test_sum_to_one(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(100):
            c = rand_state(rng, int(rng.integers(1, 8))).amplitudes
            s = hilbert.EnergySuperposition(rng.normal(size=c.size), c)
            assert abs(s.probabilities.sum() - 1.0) < 1e-10


class TestUnitNorm:
    """A state's norm^2 is 1 within NORM_TOL, checked where it is built."""

    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=1,
                    max_size=16))
    @example([1.0, 1.0])
    @example([1e-6j])
    @settings(max_examples=200, deadline=None)
    def test_unit_vectors_construct_and_others_do_not(self, values):
        v = np.array(values, dtype=np.complex128)
        norm = np.linalg.norm(v)
        assume(norm > 1e-150)  # a subnormal norm rounds too coarsely to divide by
        unit = v / norm
        assert np.array_equal(hilbert.ComplexVectorState(unit).amplitudes, unit)
        with pytest.raises(NormalizationError, match=r"^state must be normalized, not of norm"):
            hilbert.ComplexVectorState(unit * (1.0 + 1e-9))


class TestExpectationValue:
    def test_eigenstate(self):
        a = hilbert.HermitianOperator(np.diag([3.0, -2.0]))
        s = hilbert.ComplexVectorState([0.0, 1.0])
        assert hilbert.expectation_value(s, a) == pytest.approx(-2.0)

    def test_projector_on_plus(self):
        # |+> measured with |0><0| gives 1/2
        a = hilbert.HermitianOperator(np.diag([1.0, 0.0]))
        s = hilbert.ComplexVectorState(np.array([1.0, 1.0]) / np.sqrt(2))
        assert hilbert.expectation_value(s, a) == pytest.approx(0.5)

    def test_diagonal_sum(self):
        # 0.36*2 + 0.64*(-1) = 0.08
        a = hilbert.HermitianOperator(np.diag([2.0, -1.0]))
        s = hilbert.ComplexVectorState([0.6, 0.8])
        assert hilbert.expectation_value(s, a) == pytest.approx(0.08)

    def test_dimension_mismatch(self):
        a = hilbert.HermitianOperator(np.eye(3))
        s = hilbert.ComplexVectorState([1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            hilbert.expectation_value(s, a)

    def test_always_real(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = hilbert.HermitianOperator((m + m.conj().T) / 2)
            val = hilbert.expectation_value(rand_state(rng, dim), a)
            assert isinstance(val, float)


# collapse's dynamic k = dE: the RMS spread of the energies shifted by the
# first branch's, each sum a _running_sum

def spread(s):
    return collapse._strength(s.probabilities, s.energies - s.energies[0])


class TestEnergyUncertainty:
    def test_single_branch(self):
        s = hilbert.EnergySuperposition([5.0], [1.0])
        assert spread(s) == 0.0

    def test_symmetric_two_level(self):
        s = hilbert.EnergySuperposition([0.0, 1.0], np.sqrt([0.5, 0.5]))
        assert spread(s) == pytest.approx(0.5)

    def test_three_level(self):
        # direct evaluation: var = 0.5*0.49 + 0.3*0.09 + 0.2*1.69 = 0.61
        s = hilbert.EnergySuperposition([0.0, 1.0, 2.0], np.sqrt([0.5, 0.3, 0.2]))
        assert spread(s) == pytest.approx(np.sqrt(0.61))

    # |e1 - e2| <= 1 keeps k = dE inside the collapse regime k <= 1
    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
           st.floats(0.001, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_two_level_closed_form(self, e1, e2, p):
        s = hilbert.EnergySuperposition([e1, e2], np.sqrt([p, 1 - p]))
        closed = np.sqrt(p * (1 - p)) * abs(e1 - e2)
        assert spread(s) == pytest.approx(closed, abs=1e-12)

    def test_degenerate_branches_have_zero_spread(self):
        s = hilbert.EnergySuperposition([2.0, 2.0], np.sqrt([0.3, 0.7]))
        assert spread(s) == pytest.approx(0.0, abs=1e-15)


class TestRunningSum:
    @given(st.integers(1, 10), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @example(m=10, n=1, seed=0)  # one column: a trajectory's width
    @settings(max_examples=200, deadline=None)
    def test_bitwise_row_loop(self, m, n, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        # magnitudes over 16 decades, so that the order of the adds shows in the bits
        x = gen.standard_normal((m, n)) * 10.0 ** gen.integers(-8, 9, (m, n))
        ref = x.copy()
        for j in range(1, m):
            ref[j] = ref[j - 1] + x[j]
        assert collapse._running_sum(x).tobytes() == ref.tobytes()
        assert collapse._running_sum(x[:, 0]).tobytes() == ref[:, 0].tobytes()


def pointer():
    return protective.PointerState.gaussian(x_min=-20.0, dx=0.5, n=80, x0=0.0, w0=2.0)


def protective_setup(tau):
    return protective.ProtectiveSetup(hilbert.ComplexVectorState([0.6, 0.8]),
                                      hilbert.HermitianOperator([[1.0, 0.0], [0.0, 0.0]]),
                                      10, tau, pointer())


class TestTypeInvariants:
    def test_hermitian_rejects_nonhermitian(self):
        with pytest.raises(NormalizationError):
            hilbert.HermitianOperator([[0.0, 1.0], [0.5, 0.0]])

    def test_superposition_requires_normalization(self):
        with pytest.raises(NormalizationError):
            hilbert.EnergySuperposition([0.0, 1.0], [0.9, 0.9])
        with pytest.raises(NormalizationError):  # sqrt of a negative weight
            hilbert.EnergySuperposition([0.0, 1.0], [np.nan, 1.0])

    @pytest.mark.parametrize("build", [
        lambda: hilbert.HermitianOperator([[np.nan, 0.0], [0.0, 0.0]]),
        lambda: rdm.sample_stays([np.nan, 1.0], 10, seed=0),
        lambda: rdm.sample_entangled_stays(
            [(np.nan, (0.0, 1.0), (2.0, 3.0)), (1.0, (1.0, 2.0), (3.0, 4.0))], 10, seed=0),
    ], ids=["hermitian", "stays", "entangled-stays"])
    def test_nan_fails_validation(self, build):
        with pytest.raises(NormalizationError):
            build()

    @pytest.mark.parametrize("build, error", [
        (lambda: collapse.collapse_time(np.nan), ContractViolation),
        (lambda: collapse.relativistic_collapse_time(1.0, np.nan), ContractViolation),
        (lambda: protective_setup(np.nan), ContractViolation),
        (lambda: protective_setup(np.inf).coupling_weights(), ContractViolation),
        (lambda: protective.PointerState(pointer().grid, 0.0, np.nan), ContractViolation),
        (lambda: frames.SynchronyParams(v=np.nan), SuperluminalFrameError),
        (lambda: frames.SynchronyParams(v=0.5, k=np.nan), ContractViolation),
        (lambda: frames.SynchronyParams(v=0.5, k_prime=np.nan), ContractViolation),
        (lambda: frames._gamma(np.nan), SuperluminalFrameError),
    ], ids=["collapse-time", "relativistic-collapse-time", "protective-tau",
            "coupling-weights-inf-tau", "pointer-w0", "synchrony-v", "synchrony-k",
            "synchrony-k-prime", "gamma"])
    def test_nan_fails_scalar_guards(self, build, error):
        with pytest.raises(error):
            build()

    def test_states_immutable(self):
        s = hilbert.ComplexVectorState([1.0, 0.0])
        with pytest.raises((ValueError, RuntimeError)):
            s.amplitudes[0] = 0.0


class TestExclusionTable:
    """Criterion 12's four product states vs its four entangled measurement states."""

    def test_first_entry_zero(self):
        # (<01| + <10|) |00> = 0
        table, _ = acceptance._exclusion_table()
        assert table[0, 0] < 1e-12

    def test_measurement_states_orthonormal(self):
        _, gram_deviation = acceptance._exclusion_table()
        assert gram_deviation < 1e-12

    def test_table_against_brute_force(self):
        # independent oracle: rebuild every vector from explicit kets
        k0 = np.array([1.0, 0.0])
        k1 = np.array([0.0, 1.0])
        kp = (k0 + k1) / np.sqrt(2)
        km = (k0 - k1) / np.sqrt(2)
        prods = [np.kron(k0, k0), np.kron(k0, kp), np.kron(kp, k0), np.kron(kp, kp)]
        phis = [
            (np.kron(k0, k1) + np.kron(k1, k0)) / np.sqrt(2),
            (np.kron(k0, km) + np.kron(k1, kp)) / np.sqrt(2),
            (np.kron(kp, k1) + np.kron(km, k0)) / np.sqrt(2),
            (np.kron(kp, km) + np.kron(km, kp)) / np.sqrt(2),
        ]
        oracle = np.array([[abs(np.dot(phi, prod)) ** 2 for prod in prods]
                           for phi in phis])
        assert np.allclose(acceptance._exclusion_table()[0], oracle, atol=1e-14)

    def test_zero_pattern(self):
        table, _ = acceptance._exclusion_table()
        zeros = table < 1e-12
        assert np.array_equal(zeros, np.eye(4, dtype=bool))
        assert np.all(table[~zeros] > 1e-12)

    def test_rows_sum_to_one(self):
        table, _ = acceptance._exclusion_table()
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)


class TestInvariantUnitary:
    def test_report(self):
        out = acceptance.criterion_12_nogo_constructions()
        assert out["passed"]
        # invariant, flip and orthogonality residuals, as the detail prints them
        residuals = out["detail"].rsplit("residuals: ", 1)[1].split("/")
        assert len(residuals) == 3
        assert all(float(r) < 1e-12 for r in residuals)
