import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import block_spectrum, brute_pair_average, brute_q_matrix, random_density
from hmqm import bounds
from hmqm.bounds import (
    MAX_BOUND_N,
    REGISTER_DISCOUNT,
    Block,
    BlockDiagonal,
    CloneBound,
    build_q_matrix,
    e_max,
    e_min,
    fidelity_bound,
    lossy_e_min,
    operator_norm,
    pair_error_lower_bound,
)
from hmqm.cli import main
from hmqm.matchings import matching_table
from reference import (
    BitString,
    averaged_error_probability,
    clone_shrink_factor,
    depolarization_for_error,
    error_probability_given_matching,
    fidelity,
    hidden_matching_state,
    pair_average,
    symmetric_clone,
)


@pytest.mark.parametrize("n,tol", [(4, 1e-14), (6, 1e-14), (8, 1e-12)])
def test_pair_average_matches_exhaustive_sum(n, tol):
    assert np.max(np.abs(pair_average(n) - brute_pair_average(n))) < tol


def test_q_matrix_matches_exhaustive_sum():
    for n in (4, 6, 8):
        form = build_q_matrix(n)
        assert len(form) == n**3
        expected = np.linalg.eigvalsh(brute_q_matrix(n))
        assert np.max(np.abs(block_spectrum(form) - expected)) < 1e-12
        # The certified norm is an upper bound on the oracle's top eigenvalue.
        assert operator_norm(form) >= expected[-1]
        assert CloneBound.compute(n).q_norm >= expected[-1]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_q_matrix_trace_and_positivity(n):
    form = build_q_matrix(n)
    assert abs(sum(m * np.trace(b.rows) for b, m in form.blocks) / form.divisor - n) < 1e-9
    assert np.min(block_spectrum(form)) > -1e-10


@pytest.mark.parametrize("n", [16, 80, 1000, MAX_BOUND_N])
def test_clone_bound_law_at_large_n(n):
    cb = CloneBound.compute(n)
    assert abs(n * cb.q_norm - (0.5 + 1.0 / n)) <= 1e-12
    # Three fixed-size blocks, whatever n is.
    assert build_q_matrix(n).nbytes == 8 * (16 + 9 + 36)


def test_clone_bound_is_an_upper_bound_in_exact_arithmetic():
    # Q's top eigenvalue is (n + 2) / (2 n^2), so the fidelity bound is 1/2 + 1/n.
    for n in [*range(4, 1001, 2), MAX_BOUND_N]:
        cb = CloneBound.compute(n)
        assert Fraction(cb.q_norm) >= Fraction(n + 2, 2 * n * n), n
        assert Fraction(cb.fidelity_bound) >= Fraction(1, 2) + Fraction(1, n), n


def test_clone_bound_refuses_n_past_its_exact_divisor():
    CloneBound.compute(MAX_BOUND_N)
    for n in (MAX_BOUND_N + 2, 2**60):
        with pytest.raises(ValueError, match="MAX_BOUND_N"):
            CloneBound.compute(n)


def test_clone_bound_needs_no_lapack(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("the certificate must not call LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    monkeypatch.setattr(np.linalg, "cholesky", no_lapack)
    for n in [*range(4, 15, 2), 1000]:
        assert CloneBound.compute(n).fidelity_bound >= 0.5 + 1.0 / n
    # Blocks shared by every n are certified once per process; fresh copies
    # are certified without LAPACK too.
    for block, _ in build_q_matrix(8).blocks:
        assert Block(block.rows, block.top).bound >= block.top


@pytest.mark.parametrize("n", [4, 14, 1000])
def test_a_candidate_below_a_block_top_is_refused(n):
    for block, _ in build_q_matrix(n).blocks:
        with pytest.raises(ArithmeticError):
            _ = Block(block.rows, block.top - 1e-9 * block.top).bound
        # Within the shift's margin a low candidate still certifies a value
        # at or above the exact top.
        low = Block(block.rows, math.nextafter(block.top, 0.0))
        assert Fraction(low.bound) >= Fraction(block.top)


def one_block(matrix, top: float) -> BlockDiagonal:
    return BlockDiagonal(((Block(matrix, top), 1),))


def test_operator_norm_known_matrices():
    assert operator_norm(one_block(np.eye(5), 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(one_block(np.diag([3.0, -7.0, 2.0]), 3.0)) == pytest.approx(3.0, abs=1e-12)
    assert operator_norm(one_block(np.diag([-5.0, 1.0]), 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(one_block(np.zeros((3, 3)), 0.0)) == 0.0


def test_operator_norm_agrees_with_eigvalsh():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((50, 50))
    h = a + a.T
    expected = float(np.linalg.eigvalsh(h)[-1])
    got = operator_norm(one_block(h, expected))
    assert expected <= got < expected + 1e-9


def test_operator_norm_is_an_upper_bound_on_every_block():
    form = BlockDiagonal(((Block(np.diag([1.0, 2.0]), 2.0), 4), (Block(np.diag([3.0, -7.0, 2.5]), 3.0), 1)))
    assert len(form) == 11
    assert 3.0 <= operator_norm(form) < 3.0 + 1e-12
    # Exact values are dominated strictly: the certificate adds a margin.
    assert operator_norm(one_block(np.eye(5), 1.0)) > 1.0


def test_operator_norm_needs_its_cholesky_certificate(monkeypatch):
    # A negative shift makes (top - |s|) I - B indefinite: the factorisation
    # meets a pivot <= 0 and must refuse.
    monkeypatch.setattr(bounds, "UNIT_ROUNDOFF", -bounds.UNIT_ROUNDOFF)
    with pytest.raises(ArithmeticError):
        operator_norm(build_q_matrix(8))


def test_operator_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        operator_norm(one_block(np.ones((2, 3)), 1.0))
    with pytest.raises(ValueError):
        operator_norm(one_block(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0))
    with pytest.raises(ValueError):
        operator_norm(one_block(np.array([[0.0, 1e-12], [0.0, 0.0]]), 1.0))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_fidelity_bound_law(n):
    assert abs(fidelity_bound(n) - (0.5 + 1.0 / n)) < 1e-8


def test_fidelity_bound_anchors():
    assert fidelity_bound(4) == pytest.approx(0.75, abs=1e-9)
    assert fidelity_bound(8) == pytest.approx(0.625, abs=1e-9)


def test_pair_error_lower_bound_values():
    assert pair_error_lower_bound(4) == 0.33333333333333337
    assert pair_error_lower_bound(14) == 0.46153846153846156
    with pytest.raises(ValueError):
        pair_error_lower_bound(3)
    with pytest.raises(ValueError):
        pair_error_lower_bound(2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_pair_error_consistent_with_fidelity_bound(n):
    # Total error of two verifiers, each playing the averaged game against
    # the best cloner's reduction.
    from_fidelity = 2.0 * (n / (2.0 * (n - 1))) * (1.0 - fidelity_bound(n))
    assert abs(pair_error_lower_bound(n) - from_fidelity) < 1e-8


def test_e_min_values():
    assert abs(e_min(4) - 997.0 / 5994.0) < 1e-15
    assert abs(e_min(14) - 2991.0 / 12987.0) < 1e-15
    assert e_min(4) == pytest.approx(0.1663, abs=1e-4)
    assert e_min(8) == 0.21385671385671387
    assert e_min(14) == pytest.approx(0.2303, abs=1e-4)
    with pytest.raises(ValueError):
        e_min(5)


def test_e_min_monotone_below_quarter():
    values = [e_min(n) for n in range(4, 40, 2)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v / REGISTER_DISCOUNT < 0.25 for v in values)


def test_e_max_values():
    assert e_max(4) == pytest.approx(0.2, abs=1e-15)
    assert e_max(14) == 0.23333333333333334
    assert e_max(2) == pytest.approx(1.0 / 6.0, abs=1e-15)
    with pytest.raises(ValueError):
        e_max(7)
    with pytest.raises(ValueError):
        e_max(0)


def test_e_max_monotone_below_quarter():
    values = [e_max(n) for n in range(2, 40, 2)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 0.25 for v in values)


def test_noise_gap_orderings():
    for n in range(4, 16, 2):
        assert e_min(n) < e_max(n) < 0.25
        # One verifier of a cloned pair can always be held at e_max.
        assert pair_error_lower_bound(n) / 2.0 <= e_max(n) + 1e-9
        assert 2.0 * e_max(n) >= pair_error_lower_bound(n) - 1e-9


def test_lossy_e_min_values():
    assert lossy_e_min(e_min(8), 0.05, 0.6) == 0.11847561847561845
    assert lossy_e_min(0.2139, 0.01, 0.6) == 0.1988421052631579
    assert lossy_e_min(0.2, 0.0, 0.7) == pytest.approx(0.2, abs=1e-15)


def test_lossy_e_min_monotone_in_epsilon():
    values = [lossy_e_min(e_min(8), eps, 0.6) for eps in (0.0, 0.01, 0.02, 0.05)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_lossy_e_min_can_signal_infeasibility():
    assert lossy_e_min(0.05, 0.05, 0.6) <= 0.0


def test_lossy_e_min_guards():
    with pytest.raises(ValueError):
        lossy_e_min(0.2, 0.05, 0.0)
    with pytest.raises(ValueError):
        lossy_e_min(0.2, 0.05, 1.5)
    with pytest.raises(ValueError):
        lossy_e_min(0.2, -0.01, 0.6)
    with pytest.raises(ValueError):
        lossy_e_min(0.2, 0.5, 0.6)  # 3*eps/eta = 2.5
    # NaN fails every guard instead of passing through to the result.
    for epsilon, eta in ((math.nan, 0.6), (0.05, math.nan), (math.inf, 0.6)):
        with pytest.raises(ValueError):
            lossy_e_min(0.2, epsilon, eta)


def test_clone_shrink_factor():
    assert clone_shrink_factor(4) == pytest.approx(0.6, abs=1e-15)
    assert clone_shrink_factor(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        clone_shrink_factor(5)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_symmetric_clone_reductions(n):
    rng = np.random.default_rng(53)
    v = clone_shrink_factor(n)
    table = matching_table(n)
    for _ in range(3):
        x = BitString.random(n, rng)
        proj = hidden_matching_state(x).to_density()
        pair = symmetric_clone(proj)
        expected = v * proj.mat + (1.0 - v) * np.eye(n) / n
        assert np.max(np.abs(pair.first.mat - expected)) < 1e-10
        assert np.max(np.abs(pair.second.mat - pair.first.mat)) < 1e-12
        err = averaged_error_probability(pair.first, x, table)
        assert abs(err - e_max(n)) < 1e-10


def test_symmetric_clone_fidelity_anchor():
    x = BitString((1, 0, 1, 1))
    pair = symmetric_clone(hidden_matching_state(x).to_density())
    assert abs(fidelity(x, pair.first) - 0.7) < 1e-12


def test_symmetric_clone_arbitrary_input():
    rng = np.random.default_rng(59)
    rho = random_density(4, rng)
    pair = symmetric_clone(rho)
    assert abs(np.trace(pair.first.mat).real - 1.0) < 1e-12
    assert abs(np.trace(pair.second.mat).real - 1.0) < 1e-12


def test_depolarization_for_error():
    x = BitString((0, 1, 1, 0, 1, 0, 0, 1))
    table = matching_table(8)
    proj = hidden_matching_state(x).to_density().mat
    assert np.max(np.abs(depolarization_for_error(x, 0.0).mat - proj)) < 1e-15
    assert np.max(np.abs(depolarization_for_error(x, 0.5).mat - np.eye(8) / 8)) < 1e-15
    noisy = depolarization_for_error(x, 0.1)
    assert abs(averaged_error_probability(noisy, x, table) - 0.1) < 1e-12
    for alpha in range(1, 8):
        assert abs(error_probability_given_matching(noisy, x, alpha, table) - 0.1) < 1e-12
    with pytest.raises(ValueError):
        depolarization_for_error(x, -0.01)
    with pytest.raises(ValueError):
        depolarization_for_error(x, 0.6)


def test_clone_bound_table_row(capsys):
    cb = CloneBound.compute(4)
    assert cb.n == 4
    assert cb.q_norm == pytest.approx(0.1875, abs=1e-9)
    assert cb.fidelity_bound == pytest.approx(0.75, abs=1e-9)
    assert cb.pair_error_lower == 0.33333333333333337
    assert abs(cb.e_min - 997.0 / 5994.0) < 1e-15
    assert cb.e_max == pytest.approx(0.2, abs=1e-15)
    assert main(["bounds", "--n", "4"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "n,q_norm,fidelity_bound,pair_error_lower,e_min,e_max"
    fields = row.split(",")
    assert fields[0] == "4"
    assert float(fields[1]) == cb.q_norm
    assert float(fields[5]) == cb.e_max
    # Rows round-trip exactly: repr of a float parses back to the same float.
    assert [float(f) for f in fields[1:]] == [
        cb.q_norm, cb.fidelity_bound, cb.pair_error_lower, cb.e_min, cb.e_max
    ]
