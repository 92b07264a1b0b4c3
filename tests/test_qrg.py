import numpy as np
import pytest

from helpers import basis_vector, brute_error_probability, random_density, state_vector
from hmqm.matchings import matching_table
from reference import (
    BitString,
    DensityMatrix,
    PureState,
    averaged_error_probability,
    averaged_povm,
    error_probability_given_matching,
    fidelity,
    hidden_matching_state,
    maximally_mixed,
    outcome_distribution,
)


def test_state_amplitudes_all_zero():
    state = hidden_matching_state(BitString((0, 0, 0, 0)))
    assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_state_amplitudes_alternating():
    state = hidden_matching_state(BitString((0, 1, 0, 1)))
    assert np.allclose(state.amplitudes, [0.5, -0.5, 0.5, -0.5], atol=1e-15)


def test_state_normalization_random():
    rng = np.random.default_rng(11)
    for n in (4, 6, 8, 10, 12, 14):
        for _ in range(100):
            state = hidden_matching_state(BitString.random(n, rng))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_bitstring_rejects_bad_input():
    with pytest.raises(ValueError):
        BitString(())
    with pytest.raises(ValueError):
        BitString((0, 2, 1))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_density_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)))  # not square


@pytest.mark.parametrize("n", [4, 8])
def test_ideal_state_answers_with_certainty(n):
    rng = np.random.default_rng(7)
    table = matching_table(n)
    x = BitString.random(n, rng)
    rho = hidden_matching_state(x).to_density()
    for alpha in range(1, n):
        assert error_probability_given_matching(rho, x, alpha, table) < 1e-14


def test_maximally_mixed_uniform_outcomes():
    n = 6
    table = matching_table(n)
    rho = maximally_mixed(n)
    for alpha in range(1, n):
        probs = outcome_distribution(rho, table[alpha])
        assert np.allclose(probs, 1.0 / n, atol=1e-14)
        assert abs(error_probability_given_matching(rho, BitString((0,) * n), alpha, table) - 0.5) < 1e-14


@pytest.mark.parametrize("n", [4, 6, 8])
def test_error_probability_matches_brute_force(n):
    rng = np.random.default_rng(23)
    table = matching_table(n)
    for _ in range(10):
        rho = random_density(n, rng)
        x = BitString.random(n, rng)
        for alpha in range(1, n):
            fast = error_probability_given_matching(rho, x, alpha, table)
            brute = brute_error_probability(rho, x, table[alpha])
            assert abs(fast - brute) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_averaged_error_equals_mean_over_matchings(n):
    rng = np.random.default_rng(29)
    table = matching_table(n)
    for _ in range(10):
        rho = random_density(n, rng)
        x = BitString.random(n, rng)
        mean = np.mean([
            error_probability_given_matching(rho, x, alpha, table) for alpha in range(1, n)
        ])
        assert abs(averaged_error_probability(rho, x, table) - mean) < 1e-12


def test_averaged_error_anchors():
    n = 8
    table = matching_table(n)
    x = BitString((0, 1, 1, 0, 1, 0, 0, 1))
    ideal = hidden_matching_state(x).to_density()
    assert averaged_error_probability(ideal, x, table) < 1e-14
    assert abs(averaged_error_probability(maximally_mixed(n), x, table) - 0.5) < 1e-14


def test_fidelity_values():
    rng = np.random.default_rng(31)
    x = BitString((1, 0, 0, 1, 1, 0))
    ideal = hidden_matching_state(x).to_density()
    assert abs(fidelity(x, ideal) - 1.0) < 1e-14
    complement = BitString(tuple(1 - b for b in x.bits))
    assert abs(fidelity(complement, ideal) - 1.0) < 1e-14
    assert abs(fidelity(x, maximally_mixed(6)) - 1.0 / 6) < 1e-14
    # Direct sign-sum formula on a random state.
    rho = random_density(6, rng)
    signs = np.outer(state_vector(x), state_vector(x)) * 6
    direct = float(np.real(np.sum(signs * rho.mat))) / 6
    assert abs(fidelity(x, rho) - direct) < 1e-12


def test_global_phase_invariance():
    # A secret and its bitwise complement encode the same physical state.
    for bits in ((0, 0, 1, 1), (1, 0, 1, 0)):
        x = BitString(bits)
        y = BitString(tuple(1 - b for b in bits))
        rho_x = hidden_matching_state(x).to_density()
        rho_y = hidden_matching_state(y).to_density()
        assert np.allclose(rho_x.mat, rho_y.mat, atol=1e-15)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_povm_completeness_and_positivity(n):
    rng = np.random.default_rng(37)
    table = matching_table(n)
    x = BitString.random(n, rng)
    povm = averaged_povm(x, table)
    assert np.max(np.abs(povm.correct + povm.incorrect - np.eye(n))) < 1e-12
    assert np.min(np.linalg.eigvalsh(povm.correct)) > -1e-12
    assert np.min(np.linalg.eigvalsh(povm.incorrect)) > -1e-12


def test_povm_trace_identity():
    rng = np.random.default_rng(41)
    n = 6
    table = matching_table(n)
    x = BitString.random(n, rng)
    povm = averaged_povm(x, table)
    ideal = hidden_matching_state(x).to_density()
    assert abs(np.trace(povm.incorrect @ ideal.mat).real) < 1e-14
    assert abs(np.trace(povm.incorrect @ maximally_mixed(n).mat).real - 0.5) < 1e-14
    for _ in range(10):
        rho = random_density(n, rng)
        traced = float(np.trace(povm.incorrect @ rho.mat).real)
        assert abs(traced - averaged_error_probability(rho, x, table)) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_outcome_distribution_matches_projectors_on_random_states(n):
    rng = np.random.default_rng(43)
    table = matching_table(n)
    for _ in range(10):
        rho = random_density(n, rng)
        for alpha in range(1, n):
            row = table[alpha]
            brute = [
                [float(np.real(v.conj() @ rho.mat @ v)) for v in (basis_vector(n, i, j, 0), basis_vector(n, i, j, 1))]
                for i, j in row.tolist()
            ]
            assert np.max(np.abs(outcome_distribution(rho, row) - brute)) < 1e-12


def test_dimension_mismatches_raise():
    table4 = matching_table(4)
    rho6 = maximally_mixed(6)
    with pytest.raises(ValueError):
        outcome_distribution(rho6, table4[1])
    with pytest.raises(ValueError):
        error_probability_given_matching(rho6, BitString((0,) * 6), 1, table4)
    with pytest.raises(ValueError):
        averaged_error_probability(rho6, BitString((0,) * 4), table4)
    with pytest.raises(ValueError):
        fidelity(BitString((0, 1)), rho6)
