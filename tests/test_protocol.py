import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AesBlockCounter, kinds_of, measure_positions_reference
from hmqm import adversary, bounds, protocol
from hmqm.adversary import BUILTIN_STRATEGIES, builtin_strategy, forge_coins
from hmqm.matchings import matching_table
from hmqm.protocol import (
    CheckResult,
    Coin,
    HonestChannel,
    InfeasiblePlanError,
    InsufficientPositionsError,
    PositionKind,
    SAMPLER_KEY_BYTES,
    UnknownCoinError,
    Verdict,
    VerdictParameters,
    VerificationTranscript,
    adversary_error_floor,
    bank_check,
    bank_mint,
    holder_verify,
    honest_fail_bound,
    lossy_fail_bounds,
    _aes128_ecb,
    _permute,
    _plan_round,
    claimed_bits,
    measure_positions,
    pair_parities,
    plan_parameters,
    run_honest_experiment,
)
from reference import secret_bits


def make_params(**kw):
    defaults = dict(c=0.9, delta=0.1)
    defaults.update(kw)
    return VerdictParameters(**defaults)


def test_mint_basics():
    rng = np.random.default_rng(0)
    coin, db = bank_mint(8, 1_000_000, 100, rng)
    assert coin.T == db.T == 10
    assert coin.coin_id == db.coin_id
    assert len(db.key) == 16
    bits = secret_bits(db.key, np.array([0, 1_000_000 - 1]), 8)
    assert bits.shape == (2, 8)
    assert bits.dtype == np.uint8
    assert db.s == 0
    assert coin.all_genuine()
    assert (coin.sampler_key, coin.cursor, coin.sampled) == (None, 0, 0)
    coin2, _ = bank_mint(8, 1_000_000, 100, rng)
    assert coin2.coin_id != coin.coin_id


def test_mint_check_budget_boundaries():
    rng = np.random.default_rng(1)
    assert bank_mint(4, 10_000, 10, rng)[0].T == 1
    assert bank_mint(4, 19_999, 10, rng)[0].T == 1
    assert bank_mint(4, 20_000, 10, rng)[0].T == 2


def test_mint_rejects_bad_parameters():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="check budget T would be 0"):
        bank_mint(4, 1000, 10, rng)
    with pytest.raises(ValueError):
        bank_mint(4, 5, 10, rng)  # q < l
    with pytest.raises(ValueError):
        bank_mint(5, 10_000, 10, rng)  # odd n
    with pytest.raises(ValueError):
        bank_mint(4, 10_000, 0, rng)


def test_noiseless_verification_is_certain():
    rng = np.random.default_rng(3)
    params = VerdictParameters.from_noise(8, 0.0)
    for _ in range(5):
        coin, db = bank_mint(8, 100_000, 100, rng)
        outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
        assert outcome.verdict is Verdict.VALID
        assert outcome.check.correct_count == 100
        assert outcome.check.l_prime == 100
        assert outcome.check.s == 1


def test_r_bits_flip_even_when_round_aborts():
    rng = np.random.default_rng(4)
    coin, db = bank_mint(8, 10_000, 10, rng)
    coin.segments = ((coin.q, PositionKind.ABSENT),)
    params = make_params()
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    assert outcome.verdict is Verdict.ABORTED
    assert outcome.check is None
    assert db.s == 0
    assert coin.sampled == 10 and coin.unused() == coin.q - 10
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    assert outcome.verdict is Verdict.ABORTED
    assert coin.sampled == 20 and coin.unused() == coin.q - 20


def test_insufficient_positions():
    rng = np.random.default_rng(5)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.sampled = 10_000 - 5
    with pytest.raises(InsufficientPositionsError):
        holder_verify(coin, db, make_params(), HonestChannel(0.0), rng)


def make_transcript(db, correct_count, l=1000, lost=0):
    """Transcript over positions 0..l-1, first matching, chosen correctness."""
    i, j = matching_table(db.n)[1, 0].tolist()
    positions = np.arange(l, dtype=np.int64)
    bits = secret_bits(db.key, positions, db.n)
    parity = (bits[:, i - 1] ^ bits[:, j - 1]).astype(np.int8)
    answer = parity.copy()
    answer[: l - lost - correct_count] ^= 1
    if lost:
        answer[l - lost:] = -1
    return VerificationTranscript(
        coin_id=db.coin_id, l=db.l,
        positions=positions, alpha=np.ones(l, dtype=np.int64),
        pair_i=np.where(answer >= 0, i, 0), pair_j=np.where(answer >= 0, j, 0),
        answer=answer,
    )


def test_acceptance_threshold_is_strict():
    rng = np.random.default_rng(6)
    params = VerdictParameters(c=0.81, delta=0.01)  # c - delta = 0.80
    coin, db = bank_mint(4, 1_000_000, 1000, rng)
    res = bank_check(db, make_transcript(db, 800), params)
    assert not res.valid
    assert res.correct_count == 800
    assert res.l_prime == 1000
    coin, db = bank_mint(4, 1_000_000, 1000, rng)
    res = bank_check(db, make_transcript(db, 801), params)
    assert res.valid
    assert res.correct_count == 801


def test_lost_outcomes_excluded_from_both_sides():
    rng = np.random.default_rng(7)
    _, db = bank_mint(4, 1_000_000, 1000, rng)
    res = bank_check(db, make_transcript(db, 500, lost=500), params := make_params())
    assert res.l_prime == 500
    assert res.correct_count == 500
    assert res.threshold == 500 * (params.c - params.delta)
    assert res.valid
    _, db = bank_mint(4, 1_000_000, 1000, rng)
    res = bank_check(db, make_transcript(db, 0, lost=1000), params)
    assert res.l_prime == 0
    assert not res.valid


def test_check_budget_exhaustion():
    rng = np.random.default_rng(8)
    coin, db = bank_mint(8, 40_000, 20, rng)
    assert coin.T == 2
    params = VerdictParameters.from_noise(8, 0.0)
    channel = HonestChannel(0.0)
    first = holder_verify(coin, db, params, channel, rng)
    assert (first.verdict, first.check.s, first.check.code) == (Verdict.VALID, 1, None)
    second = holder_verify(coin, db, params, channel, rng)
    assert (second.verdict, second.check.s, second.check.code) == (Verdict.VALID, 2, None)
    third = holder_verify(coin, db, params, channel, rng)
    assert third.verdict is Verdict.INVALID
    assert third.check.code == "coin_exhausted"
    assert third.check.s == 2
    assert db.s == 2


def test_unknown_coin():
    rng = np.random.default_rng(9)
    _, db = bank_mint(4, 10_000, 10, rng)
    t = make_transcript(db, 10, l=10)
    t.coin_id = "deadbeef"
    with pytest.raises(UnknownCoinError):
        bank_check(db, t, make_params())
    assert db.s == 0


def test_structural_violations():
    rng = np.random.default_rng(10)
    _, db = bank_mint(4, 80_000, 10, rng)
    assert db.T == 8
    params = make_params()

    def check(mutate, expected_code):
        t = make_transcript(db, 10, l=10)
        mutate(t)
        res = bank_check(db, t, params)
        assert not res.valid
        assert res.code == expected_code

    check(lambda t: setattr(t, "positions", t.positions[:-1]), "wrong_sample_size")

    def dup(t):
        t.positions[1] = t.positions[0]

    check(dup, "duplicate_position")

    def out_of_range(t):
        t.positions[0] = db.q

    check(out_of_range, "position_out_of_range")

    def bad_alpha(t):
        t.alpha[0] = db.n

    check(bad_alpha, "alpha_out_of_range")

    def bad_answer(t):
        t.answer[0] = 2

    check(bad_answer, "answer_not_a_bit")

    def answer_below_lost(t):
        t.answer[0] = -2  # only -1 marks a lost outcome

    check(answer_below_lost, "answer_not_a_bit")

    def bad_node(t):
        t.pair_j[0] = t.pair_i[0]

    check(bad_node, "node_out_of_range")

    def wrong_matching(t):
        i, j = matching_table(db.n)[2, 0].tolist()
        t.pair_i[0], t.pair_j[0] = i, j

    check(wrong_matching, "pair_not_in_matching")
    assert db.s == 8


def test_duplicate_positions_are_found_anywhere_in_the_sample():
    rng = np.random.default_rng(30)
    _, db = bank_mint(4, 20_000, 10, rng)  # T = 2
    t = make_transcript(db, 10, l=10)
    order = rng.permutation(10)
    for name in ("positions", "alpha", "pair_i", "pair_j", "answer"):
        setattr(t, name, getattr(t, name)[order])
    assert bank_check(db, t, make_params()).valid
    t.positions[9] = t.positions[0]
    assert bank_check(db, t, make_params()).code == "duplicate_position"


def test_bank_judges_the_sample_size_from_its_record():
    # One position with the right parity, claiming l = 1 on an l = 100 coin.
    _, db = bank_mint(4, 1_000_000, 100, np.random.default_rng(13))
    i, j = matching_table(4)[1, 0].tolist()
    bits = secret_bits(db.key, np.array([0]), 4)
    transcript = VerificationTranscript(
        coin_id=db.coin_id, l=1, positions=np.array([0]), alpha=np.array([1]),
        pair_i=np.array([i]), pair_j=np.array([j]),
        answer=(bits[:, i - 1] ^ bits[:, j - 1]).astype(np.int8),
    )
    res = bank_check(db, transcript, make_params())
    assert (res.valid, res.code, res.s) == (False, "wrong_sample_size", 1)
    # The right claim with a short sample fails the same way.
    transcript.l = 100
    res = bank_check(db, transcript, make_params())
    assert (res.valid, res.code, res.s) == (False, "wrong_sample_size", 2)


def test_transcript_json_round_trip():
    rng = np.random.default_rng(11)
    params = VerdictParameters.from_noise(8, 0.1, eta=0.9, epsilon=0.05)
    coin, db = bank_mint(8, 100_000, 100, rng)
    db_replay = copy.deepcopy(db)
    outcome = holder_verify(coin, db, params, HonestChannel(0.1), rng)
    t = outcome.transcript
    assert (t.answer == -1).any()  # detector loss at eta = 0.9 shows up
    text = t.to_json()
    parsed = VerificationTranscript.from_dict(json.loads(text))
    assert parsed.to_json() == text
    assert np.array_equal(parsed.positions, t.positions)
    assert np.array_equal(parsed.alpha, t.alpha)
    assert np.array_equal(parsed.answer, t.answer)
    assert outcome.check is not None
    replayed = bank_check(db_replay, parsed, params)
    assert replayed == outcome.check


def test_honest_fail_bound_values():
    expected = math.exp(-5.0)
    got = honest_fail_bound(1000, 0.05)
    assert abs(got - expected) / expected < 1e-12
    squared = honest_fail_bound(2000, 0.05)
    assert abs(squared - got * got) / squared < 1e-9
    assert honest_fail_bound(10, 1e-9) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        honest_fail_bound(0, 0.05)
    with pytest.raises(ValueError):
        honest_fail_bound(10, 0.0)


def test_lossy_fail_bounds_values():
    lb = lossy_fail_bounds(20_000, 0.02, 0.01, 0.6)
    assert lb.correctness == 0.018395119297284736
    assert lb.no_abort == 0.01833058422725896
    assert lb.forgery == 0.018410064635809516
    sample_term = math.exp(-2.0 * 20_000 * 0.01**2)
    assert lb.forgery == pytest.approx(lb.correctness + lb.no_abort - sample_term, rel=1e-12)


def test_lossy_fail_bounds_monotone_and_guarded():
    values = [lossy_fail_bounds(l, 0.02, 0.01, 0.6).forgery for l in (10_000, 20_000, 40_000)]
    assert values[0] > values[1] > values[2]
    with pytest.raises(ValueError):
        lossy_fail_bounds(0, 0.02, 0.01, 0.6)
    with pytest.raises(ValueError):
        lossy_fail_bounds(10, 0.0, 0.01, 0.6)
    with pytest.raises(ValueError):
        lossy_fail_bounds(10, 0.02, -0.01, 0.6)
    with pytest.raises(ValueError):
        lossy_fail_bounds(10, 0.02, 0.01, 1.5)
    with pytest.raises(ValueError):
        lossy_fail_bounds(10, 0.02, 0.6, 0.6)  # eta - epsilon = 0


def test_verdict_parameters_validation():
    VerdictParameters(c=1.0, delta=0.25)
    with pytest.raises(ValueError):
        VerdictParameters(c=0.5, delta=0.1)
    with pytest.raises(ValueError):
        VerdictParameters(c=1.2, delta=0.1)
    with pytest.raises(ValueError):
        VerdictParameters(c=0.9, delta=0.0)
    with pytest.raises(ValueError):
        VerdictParameters(c=0.6, delta=0.2)  # c - delta = 0.4 <= 1/2
    with pytest.raises(ValueError):
        VerdictParameters(c=0.9, delta=0.1, eta=0.0)
    with pytest.raises(ValueError):
        VerdictParameters(c=0.9, delta=0.1, epsilon=-0.1)
    # NaN fails every range check: a NaN delta would charge checks that can never pass.
    for bad in (dict(delta=math.nan), dict(epsilon=math.nan), dict(c=math.nan), dict(eta=math.nan)):
        with pytest.raises(ValueError):
            make_params(**bad)


def test_verdict_parameters_from_noise():
    params = VerdictParameters.from_noise(8, 0.1)
    assert params.c == 0.9
    assert params.delta == 0.05692835692835693
    assert params.min_outcomes == 1.0
    with pytest.raises(InfeasiblePlanError, match="gap"):
        VerdictParameters.from_noise(8, 0.3)


def test_from_noise_names_a_beta_out_of_range():
    for beta in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            VerdictParameters.from_noise(8, beta)
    # A finite beta at or above the floor is infeasible, not out of range.
    with pytest.raises(InfeasiblePlanError, match="beta=0.6"):
        VerdictParameters.from_noise(8, 0.6)


def test_adversary_error_floor():
    assert adversary_error_floor(8) == bounds.e_min(8)
    assert adversary_error_floor(8, 0.6, 0.05) == 0.11847561847561845
    assert adversary_error_floor(8, 1.0, 0.0) == bounds.e_min(8)


def test_plan_parameters_ideal():
    plan = plan_parameters(8, 0.1, 1e-6)
    assert plan.l == 2132
    assert plan.delta == 0.05692835692835693
    assert plan.c == 0.9
    assert plan.achieved == 9.965839306452113e-07
    assert plan.q_min == 2_132_000
    assert plan.T == 1
    assert plan.error_floor == bounds.e_min(8)
    assert plan.l == math.ceil(math.log(1e6) / (2.0 * plan.delta**2))
    assert plan.achieved <= 1e-6 < honest_fail_bound(plan.l - 1, plan.delta)
    d = dataclasses.asdict(plan)
    assert d["l"] == 2132 and d["target"] == 1e-6


def test_plan_parameters_anchors():
    anchored = plan_parameters(8, bounds.e_min(8) - 0.0392, 1e-6)
    assert anchored.l == 17982
    assert abs(anchored.l - 18_000) <= 100
    assert plan_parameters(8, 0.17, 1e-6).l == 14366


def test_plan_parameters_lossy():
    plan = plan_parameters(8, 0.1, 1e-6, eta=0.6, epsilon=0.05)
    assert plan.l == 147_176
    assert plan.error_floor == 0.11847561847561845
    assert plan.delta == 0.009237809237809223
    assert plan.achieved <= 1e-6
    assert lossy_fail_bounds(plan.l - 1, plan.delta, 0.05, 0.6).forgery > 1e-6


def test_plan_parameters_monotone_in_dimension():
    ls = [plan_parameters(n, 0.1, 1e-6).l for n in (4, 6, 8, 10, 12, 14)]
    assert all(b < a for a, b in zip(ls, ls[1:]))


def test_plan_parameters_infeasible():
    with pytest.raises(InfeasiblePlanError, match="gap"):
        plan_parameters(8, 0.3, 1e-6)
    with pytest.raises(InfeasiblePlanError, match="epsilon must be positive"):
        plan_parameters(8, 0.1, 1e-6, eta=0.9)
    with pytest.raises(ValueError):
        plan_parameters(8, 0.1, 0.0)
    with pytest.raises(ValueError):
        plan_parameters(8, 0.1, 1.0)


def test_run_honest_experiment_noiseless():
    rng = np.random.default_rng(12)
    exp = run_honest_experiment(4, 10_000, 10, 0.0, 20, rng)
    assert (exp.valid, exp.invalid, exp.aborted) == (20, 0, 0)
    assert exp.abort_bound is None
    d = dataclasses.asdict(exp)
    assert d["valid_rate"] == 1.0
    assert d["reject_bound"] == exp.reject_bound


def test_run_honest_experiment_lossy():
    rng = np.random.default_rng(13)
    exp = run_honest_experiment(8, 10_000, 10, 0.0, 5, rng, eta=0.9, epsilon=0.05)
    assert exp.valid + exp.invalid + exp.aborted == 5
    params = VerdictParameters.from_noise(8, 0.0, 0.9, 0.05)
    lb = lossy_fail_bounds(10, params.delta, 0.05, 0.9)
    assert exp.reject_bound == lb.correctness
    assert exp.abort_bound == pytest.approx(math.exp(-2.0 * 10 * 0.05**2), rel=1e-12)


def measure_with_bits(key, coin, positions, alphas, beta, eta, rng):
    """One round's `measure_positions`, with the bits it claims under key
    in place of its presence: (pair_i, pair_j, answer, errors, kinds)."""
    pair_i, pair_j, present, errors, kinds = measure_positions(coin, positions, alphas, beta, eta, rng)
    answer = claimed_bits(key, coin.n, positions, pair_i, pair_j, present, errors)
    assert np.array_equal(answer >= 0, present)
    return pair_i, pair_j, answer, errors, kinds


def measured_error_rate(db, coin, k, beta, eta, seed):
    rng = np.random.default_rng(seed)
    positions = np.arange(k, dtype=np.int64)
    alphas = rng.integers(1, coin.n, size=k)
    pi, pj, ans, flags, _ = measure_with_bits(db.key, coin, positions, alphas, beta, eta, rng)
    present = ans >= 0
    bits = secret_bits(db.key, positions[present], db.n)
    rows = np.arange(len(bits))
    parity = bits[rows, pi[present] - 1] ^ bits[rows, pj[present] - 1]
    # The error flags measure_positions draws are exactly the bank's view.
    assert np.array_equal(flags[present], parity != ans[present])
    assert not np.any(flags[~present])
    errors = int(np.sum(parity != ans[present]))
    return errors, int(present.sum()), k


def test_measure_positions_replica_is_error_free():
    rng = np.random.default_rng(14)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((coin.q, PositionKind.REPLICA),)
    errors, present, k = measured_error_rate(db, coin, 10_000, beta=0.3, eta=1.0, seed=15)
    assert present == k
    assert errors == 0


def test_measure_positions_forged_error_rate():
    rng = np.random.default_rng(16)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((coin.q, PositionKind.FORGED),)
    coin.forged_error = 0.5
    errors, present, _ = measured_error_rate(db, coin, 10_000, beta=0.0, eta=1.0, seed=17)
    sigma = math.sqrt(0.25 / present)
    assert abs(errors / present - 0.5) <= 4 * sigma


def test_measure_positions_genuine_beta_and_loss():
    rng = np.random.default_rng(18)
    coin, db = bank_mint(4, 20_000, 10, rng)
    errors, present, k = measured_error_rate(db, coin, 20_000, beta=0.2, eta=0.7, seed=19)
    loss_sigma = math.sqrt(0.7 * 0.3 / k)
    assert abs(present / k - 0.7) <= 4 * loss_sigma
    err_sigma = math.sqrt(0.2 * 0.8 / present)
    assert abs(errors / present - 0.2) <= 4 * err_sigma


def test_measure_positions_forged_without_channel_raises():
    rng = np.random.default_rng(20)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((coin.q, PositionKind.FORGED),)
    with pytest.raises(ValueError, match="no forged_error"):
        measured_error_rate(db, coin, 100, beta=0.0, eta=1.0, seed=21)


def test_error_flags_agree_with_the_bank():
    # Genuine, replica, forged and absent segments under loss, at three
    # forged error rates: a flag is set exactly where the bank finds a wrong
    # parity, never on a lost outcome, and never on a forged position whose
    # error rate is 0.
    rng = np.random.default_rng(28)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((2500, PositionKind.GENUINE), (5000, PositionKind.REPLICA),
                     (7500, PositionKind.FORGED), (10_000, PositionKind.ABSENT))
    cases = [  # (forged error, step between sampled positions, forged positions can err)
        (0.3, 1, True),
        (0.5, 10, True),
        (0.0, 10, False),
    ]
    for seed, (forged_error, step, forged_errs) in enumerate(cases):
        coin.forged_error = forged_error
        positions = np.arange(0, 10_000, step, dtype=np.int64)
        alphas = rng.integers(1, coin.n, size=len(positions))
        pi, pj, ans, flags, _ = measure_with_bits(
            db.key, coin, positions, alphas, 0.2, 0.7, np.random.default_rng(seed))
        present = ans >= 0
        assert 0 < present.sum() < len(positions)
        assert not np.any(flags[~present])
        parity = pair_parities(db.key, db.n, positions[present], pi[present], pj[present])
        assert np.array_equal(flags[present], parity != ans[present])
        kinds = kinds_of(coin.segments, positions)
        assert np.any(flags[kinds == PositionKind.GENUINE])
        assert not np.any(flags[kinds == PositionKind.REPLICA])
        assert np.any(flags[kinds == PositionKind.FORGED]) == forged_errs


@pytest.mark.parametrize("n", [4, 14, 130])
def test_measure_positions_matches_the_reference_loop(n):
    # Every kind of segment under loss, position by position: the pairs,
    # the outcomes and the error flags are equal bit for bit, zeros and -1
    # included where an outcome is lost or a position absent.  n = 130
    # takes a secret from two AES blocks.
    rng = np.random.default_rng(n)
    coin, db = bank_mint(n, 200_000, 100, rng)
    coin.segments = ((50_000, PositionKind.GENUINE), (100_000, PositionKind.REPLICA),
                     (150_000, PositionKind.FORGED), (200_000, PositionKind.ABSENT))
    coin.forged_error = 0.3
    positions = rng.integers(0, coin.q, size=600)
    alphas = rng.integers(1, n, size=len(positions))
    got = measure_with_bits(db.key, coin, positions, alphas, 0.2, 0.7, np.random.default_rng(1))
    ref = measure_positions_reference(db.key, coin, positions, alphas, 0.2, 0.7, np.random.default_rng(1))
    for name, a, b in zip(("pair_i", "pair_j", "answer", "errors"), got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    kinds = kinds_of(coin.segments, positions)
    lost = (got[2] < 0) & (kinds != PositionKind.ABSENT)
    assert lost.any() and np.all(got[2][kinds == PositionKind.ABSENT] == -1)
    assert got[3][kinds == PositionKind.GENUINE].any() and got[3][kinds == PositionKind.FORGED].any()
    # Without loss or absent positions every outcome is present (the branch
    # every forge and honest round takes); an empty sample measures nothing.
    coin.segments = coin.segments[:3]
    coin.q = 150_000
    for size in (600, 0):
        positions = rng.integers(0, coin.q, size=size)
        alphas = rng.integers(1, n, size=size)
        got = measure_with_bits(db.key, coin, positions, alphas, 0.2, 1.0, np.random.default_rng(2))
        ref = measure_positions_reference(db.key, coin, positions, alphas, 0.2, 1.0, np.random.default_rng(2))
        for name, a, b in zip(("pair_i", "pair_j", "answer", "errors"), got, ref):
            assert a.dtype == b.dtype and a.shape == (size,) and np.array_equal(a, b), name
        assert np.all(got[2] >= 0) and (size == 0 or got[3].any())


def test_sample_without_replacement():
    # _plan_round reads the coin's permutation of [0, q) minus the masked
    # range at its cursor; it can take the very last unused positions.
    rng = np.random.default_rng(25)
    coin = Coin.fresh("c", 4, 100, 10, 1)
    coin.masked = range(30, 40)
    seen = []
    for _ in range(9):
        sample, _, _ = _plan_round(coin, rng)
        assert len(sample) == 10
        assert len(np.unique(sample)) == 10
        assert sample.min() >= 0 and sample.max() < 100
        seen.extend(sample.tolist())
    assert sorted(seen) == [p for p in range(100) if p not in coin.masked]
    assert coin.unused() == 0
    with pytest.raises(InsufficientPositionsError):
        _plan_round(coin, rng)


@pytest.mark.parametrize("domain", [1, 2, 3, 1000, 1001, 4096, 4097, 5000])
def test_permute_is_a_bijection_on_small_domains(domain):
    # The width is the least that holds the domain: even (1000, 4096), odd
    # (2, 3, 4097 = 2^12 + 1, 5000) or zero (a domain of one position).
    # Every key maps [0, 2^bits) onto itself, and round after round the
    # sampler reads the values below the domain in index order.
    bits = (domain - 1).bit_length()
    for seed in range(3):
        key = np.random.default_rng(seed).bytes(SAMPLER_KEY_BYTES)
        image = _permute(key, np.arange(1 << bits, dtype=np.uint64), bits)
        assert image.dtype == np.uint64 and sorted(image.tolist()) == list(range(1 << bits))
        coin = Coin.fresh("c", 4, domain, max(1, domain // 4), 1)
        coin.sampler_key = key
        order = []
        while coin.unused() >= coin.l:
            order += _plan_round(coin, np.random.default_rng(0))[0].tolist()
        assert order == [v for v in image.tolist() if v < domain][:len(order)]


def test_round_kernels_leave_their_inputs_unchanged():
    # The kernels of a round work on scratch buffers and in place, but never
    # on the arrays they are given: each input equals its copy afterwards,
    # with and without lost outcomes.
    rng = np.random.default_rng(33)
    key = rng.bytes(SAMPLER_KEY_BYTES)
    idx = np.arange(100, 2386, dtype=np.uint64)
    before = idx.copy()
    _permute(key, idx, 22)
    assert np.array_equal(idx, before)
    coin, db = bank_mint(8, 100_000, 100, rng)
    coin.segments = ((50_000, PositionKind.GENUINE), (100_000, PositionKind.ABSENT))
    for eta in (1.0, 0.6):
        positions = rng.integers(0, coin.q, size=500)
        alphas = rng.integers(1, coin.n, size=500)
        inputs = (positions, alphas)
        copies = [a.copy() for a in inputs]
        measured = measure_positions(coin, positions, alphas, 0.1, eta, rng)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))
        inputs = (positions, *measured[:4])
        copies = [a.copy() for a in inputs]
        claimed_bits(db.key, coin.n, *inputs)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))
        pair_i, pair_j, present = measured[:3]
        inputs = (positions[present], pair_i[present], pair_j[present])
        copies = [a.copy() for a in inputs]
        pair_parities(db.key, coin.n, *inputs)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))


def test_permute_known_answers():
    # Pinned outputs at a fixed key: a change of numpy's integer promotion
    # (value-based casting in 1.x, NEP 50 in 2.x) or of the byte order of
    # the key would change every sample, and fails here instead.
    key = bytes(range(32))
    assert _permute(key, np.arange(8, dtype=np.uint64), 20).tolist() == [
        524889, 564916, 339992, 519757, 890556, 131418, 524600, 752667]
    assert _permute(key, np.arange(4, dtype=np.uint64), 13).tolist() == [7586, 5054, 376, 430]
    assert _permute(key, np.array([0, 1, 2**62, 2**63 - 1], dtype=np.uint64), 63).tolist() == [
        9065912411488913762, 3423336924089839939, 6641613126765705563, 3759156221745281643]


def test_the_key_is_drawn_once_before_the_bases_and_the_seed():
    # A coin's first round draws its sampler key, then the bases and the
    # seed; every later round draws only the bases and the seed.
    coin = Coin.fresh("c", 8, 20_000, 20, 1)
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    for r in range(3):
        _, alphas, seed = _plan_round(coin, rng)
        if r == 0:
            assert coin.sampler_key == twin.bytes(SAMPLER_KEY_BYTES)
        assert alphas.tolist() == twin.integers(1, 8, size=20).tolist()
        assert seed == int(twin.integers(0, 2**63))
        assert coin.sampled == 20 * (r + 1)


def test_a_short_read_reads_on(monkeypatch):
    # The sampler reads a few standard deviations past the expected number
    # of indices and reads on when that holds too few values below the
    # domain.  Key 19983 falls short on its first read at q = 4097, l = 8.
    reads = []

    def permute(key, idx, bits):
        reads.append(len(idx))
        return _permute(key, idx, bits)

    coin = Coin.fresh("c", 4, 4097, 8, 1)
    coin.sampler_key = (19983).to_bytes(SAMPLER_KEY_BYTES, "little")
    image = _permute(coin.sampler_key, np.arange(8192, dtype=np.uint64), 13)
    monkeypatch.setattr(protocol, "_permute", permute)
    sample, _, _ = _plan_round(coin, np.random.default_rng(0))
    assert len(reads) > 1
    below = np.flatnonzero(image < 4097)
    assert sample.tolist() == image[below[:8]].tolist() and coin.cursor == below[7] + 1


def test_samples_are_uniform():
    # Position counts over 2000 coins of 100 positions, 10 a round, for the
    # first round and the second (read on from the cursor).  The chi-square
    # of each, at 99 degrees of freedom, stays below 148.2, its 0.1 % tail.
    rng = np.random.default_rng(33)
    counts = np.zeros((2, 100), dtype=np.int64)
    for _ in range(2000):
        coin = Coin.fresh("c", 4, 100, 10, 1)
        for r in range(2):
            counts[r] += np.bincount(_plan_round(coin, rng)[0], minlength=100)
    chi2 = ((counts - 200) ** 2 / 200).sum(axis=1)
    assert np.all(chi2 < 148.2), chi2


@st.composite
def planner_shapes(draw):
    """A coin shape and a masked range, for the planner.  q runs from l to
    8 l, so a coin runs out within eight rounds."""
    l = draw(st.integers(1, 200))
    q = draw(st.integers(l, 8 * l))
    width = draw(st.integers(0, q - l))
    start = draw(st.integers(0, q - width))
    return q, l, range(start, start + width)


@settings(max_examples=200, deadline=None)
@given(planner_shapes(), st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1))
def test_rounds_never_repeat_a_position_until_the_coin_runs_out(shape, n, seed):
    # Round after round, each sample is l distinct positions in [0, q),
    # none masked and none taken before, until fewer than l unused
    # positions are left: then, and only then, the planner refuses, and
    # draws nothing.
    q, l, masked = shape
    coin = Coin.fresh("c", n, q, l, 1)
    coin.masked = masked
    rng = np.random.default_rng(seed)
    seen = np.zeros(0, dtype=np.int64)
    while coin.unused() >= l:
        sample, alphas, _ = _plan_round(coin, rng)
        assert sample.dtype == np.int64 and len(sample) == l and alphas.shape == (l,)
        assert sample.min() >= 0 and sample.max() < q
        assert not np.isin(sample, masked).any()
        seen = np.concatenate((seen, sample))
        assert len(np.unique(seen)) == len(seen) == coin.sampled
        assert coin.unused() == q - len(masked) - len(seen)
    state = rng.bit_generator.state
    with pytest.raises(InsufficientPositionsError):
        _plan_round(coin, rng)
    assert rng.bit_generator.state == state and coin.sampled == len(seen)


def test_a_round_derives_its_claimed_bits_once_when_they_are_read(monkeypatch):
    # The bank grades its own measurement from its presence and error
    # flags: holder_verify derives nothing until its transcript's answer is
    # read, then exactly l' blocks, once.  A wire verify of that transcript
    # derives its blocks again.
    counter = AesBlockCounter(monkeypatch)
    rng = np.random.default_rng(29)
    coin, db = bank_mint(8, 2_000_000, 1000, rng)  # T = 2
    for params in (VerdictParameters.from_noise(8, 0.0), VerdictParameters.from_noise(8, 0.0, 0.9, 0.05)):
        before = copy.deepcopy(db)
        outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
        assert outcome.verdict is Verdict.VALID and counter.count == 0
        l_prime = outcome.check.l_prime
        assert l_prime == outcome.transcript.l_prime and (l_prime == 1000) == (params.eta == 1.0)
        text = outcome.transcript.to_json()
        assert counter.count == l_prime
        assert outcome.transcript.to_json() == text and outcome.transcript.answer is outcome.transcript.answer
        assert counter.count == l_prime
        counter.count = 0
        wire = VerificationTranscript.from_dict(json.loads(text))
        assert bank_check(before, wire, params) == outcome.check
        assert counter.count == l_prime
        counter.count = 0


def _assert_check_matches_rederivation(coin, db, params, channel, rng):
    """holder_verify's check, graded from its measurement's error flags,
    equals bank_check re-deriving the same transcript on a copy of the
    record as it stood before the round."""
    before = copy.deepcopy(db)
    outcome = holder_verify(coin, db, params, channel, rng)
    assert outcome.check is not None
    assert bank_check(before, outcome.transcript, params) == outcome.check
    return outcome


@pytest.mark.parametrize("n", [4, 8, 14])
@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_flag_grading_equals_rederivation_for_every_strategy(name, n):
    # epsilon = eta: no round aborts, so even a verifier sent nothing is graded.
    params = VerdictParameters(c=0.9, delta=0.1, eta=1.0, epsilon=1.0)
    strategy = builtin_strategy(name, beta=0.1, fraction=0.05)
    rng = np.random.default_rng([n, sorted(BUILTIN_STRATEGIES).index(name)])
    coin, db = bank_mint(n, 1_000_000, 100, rng)
    for forged in forge_coins(coin, strategy):
        outcome = _assert_check_matches_rederivation(forged, db, params, HonestChannel(0.0), rng)
        assert outcome.check.correct_count == outcome.check.l_prime - np.count_nonzero(outcome.errors)


@pytest.mark.parametrize("n", [8, 14])
def test_flag_grading_equals_rederivation_on_a_lossy_honest_round(n):
    params = VerdictParameters.from_noise(n, 0.1, 0.9, 0.05)
    rng = np.random.default_rng(n)
    coin, db = bank_mint(n, 2_000_000, 1000, rng)
    outcome = _assert_check_matches_rederivation(coin, db, params, HonestChannel(0.1), rng)
    assert 0 < outcome.check.l_prime < 1000 and outcome.errors.any()


def test_check_result_serialization():
    res = CheckResult(valid=True, s=1, T=2, correct_count=9, l_prime=10, threshold=8.0)
    d = res.to_dict()
    assert "code" not in d
    assert d == {
        "valid": True, "s": 1, "T": 2, "correct_count": 9,
        "l_prime": 10, "threshold": 8.0,
    }
    assert '"valid": true' in json.dumps(res.to_dict())
    # A coded verdict carries its code; each is the verdict a client reads back.
    coded = CheckResult(valid=False, s=2, T=2, correct_count=0, l_prime=10, threshold=8.0, code="coin_exhausted")
    assert coded.to_dict() == {**d, "valid": False, "s": 2, "correct_count": 0, "code": "coin_exhausted"}
    for result in (res, coded):
        assert CheckResult.from_dict(result.to_dict()) == result


def test_secret_bits_are_keyed_and_position_local():
    key = bytes(range(16))
    positions = np.array([0, 7, 2**62, 7])
    bits = secret_bits(key, positions, 10)
    assert bits.shape == (4, 10) and set(np.unique(bits)) <= {0, 1}
    assert np.array_equal(bits[1], bits[3])
    assert np.array_equal(secret_bits(key, positions[1:2], 10)[0], bits[1])  # no dependence on the batch
    assert not np.array_equal(secret_bits(bytes(16), positions, 10), bits)
    assert secret_bits(key, np.array([], dtype=np.int64), 10).shape == (0, 10)
    # The bits are fair: 8000 of them come out within 4 sigma of half ones.
    many = secret_bits(key, np.arange(1000), 8)
    assert abs(many.mean() - 0.5) <= 4 * math.sqrt(0.25 / many.size)
    parities = pair_parities(key, 10, positions, np.array([1, 2, 3, 9]), np.array([2, 3, 4, 10]))
    assert parities.tolist() == [int(bits[0, 0] ^ bits[0, 1]), int(bits[1, 1] ^ bits[1, 2]),
                                 int(bits[2, 2] ^ bits[2, 3]), int(bits[3, 8] ^ bits[3, 9])]
    # pair_parities reads the packed AES output; it equals the parities of
    # secret_bits at every n, across byte and block boundaries, nodes 1 and n
    # included, and for no positions at all.
    rng = np.random.default_rng(30)
    empty = np.array([], dtype=np.int64)
    for n in (2, 4, 8, 126, 128, 130, 256):
        positions = rng.integers(0, 2**62, size=200)
        pair_i, pair_j = rng.integers(1, n + 1, size=(2, 200))
        pair_i[:3], pair_j[:3] = (1, n, 1), (n, 1, 1)
        bits = secret_bits(key, positions, n)
        rows = np.arange(len(positions))
        parities = pair_parities(key, n, positions, pair_i, pair_j)
        assert parities.dtype == np.uint8
        assert parities.tolist() == (bits[rows, pair_i - 1] ^ bits[rows, pair_j - 1]).tolist()
        assert pair_parities(key, n, empty, empty, empty).shape == (0,)


def test_secret_bits_known_answer():
    # The block function is AES-128: FIPS-197 appendix C.1.
    block = _aes128_ecb(bytes(range(16)), bytearray.fromhex("00112233445566778899aabbccddeeff"))
    assert block.tobytes().hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    # Position i's secret is the first n bits of AES-128 of i || 0, i || 1,
    # ... (8 little-endian bytes each).  The streams below were computed
    # once with an independent AES implementation; n = 130 and 256 reach the
    # second block.  Any change to this map breaks every journal.
    key = bytes(range(100, 116))
    streams = {
        0: "96fdcddce74113713e1460d56096bbd6a3231de542a4fb5ec3d97e2bf439afd7",
        1: "a790c8fcf950630a6389e3abf560c118461b42948c161be56183422f00e2f12d",
        2**62: "f5f7508ac03f98bff827e68e187583a8682225838172080517cd1358d358890a",
    }
    positions = np.array(list(streams), dtype=np.int64)
    for n in (4, 8, 10, 130, 256):
        expected = [np.unpackbits(np.frombuffer(bytes.fromhex(h), dtype=np.uint8), count=n).tolist()
                    for h in streams.values()]
        assert secret_bits(key, positions, n).tolist() == expected


def test_aes_chunks_long_inputs_and_checks_its_arguments(monkeypatch):
    key = bytes(range(16))
    plaintext = np.arange(80, dtype=np.uint8)
    whole = _aes128_ecb(key, plaintext)
    monkeypatch.setattr(protocol, "_EVP_MAX_CHUNK", 32)  # three updates: 32, 32 and 16 bytes
    assert _aes128_ecb(key, plaintext).tolist() == whole.tolist()
    assert _aes128_ecb(key, bytearray(0)).size == 0
    with pytest.raises(ValueError, match="16-byte key"):
        _aes128_ecb(bytes(8), plaintext)
    with pytest.raises(ValueError, match="whole 16-byte blocks"):
        _aes128_ecb(key, plaintext[:24])


def test_missing_evp_symbols_fail_the_import(monkeypatch):
    # No fallback PRF: a libcrypto without the EVP calls is an ImportError
    # that names them.
    monkeypatch.setitem(protocol._EVP_SIGNATURES, "EVP_no_such_cipher", (None, []))
    with pytest.raises(ImportError, match="EVP_no_such_cipher") as exc_info:
        protocol._bind_libcrypto()
    assert "EVP_EncryptUpdate" in str(exc_info.value)


def test_mint_rejects_positions_beyond_int64():
    with pytest.raises(ValueError, match="2\\^63"):
        bank_mint(4, 2**63, 10, np.random.default_rng(26))
    assert bank_mint(4, 2**63 - 1, 10, np.random.default_rng(26))[1].T == (2**63 - 1) // 10_000


def test_production_coin_costs_what_a_round_samples():
    # The README's production point: n=8, q=10^9, l=18000 gives T=55.  A
    # coin that size mints and verifies without any q-length state.
    rng = np.random.default_rng(27)
    coin, db = bank_mint(8, 10**9, 18_000, rng)
    assert coin.T == db.T == 55
    params = VerdictParameters.from_noise(8, 0.0)
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    assert outcome.verdict is Verdict.VALID
    assert outcome.check.correct_count == outcome.check.l_prime == 18_000
    assert coin.sampled == 18_000


def test_the_production_coin_plans_every_round_at_the_cost_of_the_first():
    # The README's production coin, planned for all T = 55 rounds without
    # measuring: 990 000 distinct positions, and after round 55 the sampler
    # is one key and two integers, as after round 1.  The register outlasts
    # T (the bank refuses round 56 as coin_exhausted), so a twin whose
    # offered domain is exactly T * l positions, the rest masked, is the one
    # whose planner runs out at round 56.
    def sampler(coin):
        return type(coin.sampler_key), len(coin.sampler_key), type(coin.cursor), type(coin.sampled)

    rng = np.random.default_rng(34)
    for masked in (range(0), range(0, 10**9 - 55 * 18_000)):
        coin = Coin.fresh("p", 8, 10**9, 18_000, 55)
        coin.masked = masked
        samples = [_plan_round(coin, rng)[0]]
        after_first = sampler(coin)
        samples += [_plan_round(coin, rng)[0] for _ in range(54)]
        assert sampler(coin) == after_first == (bytes, SAMPLER_KEY_BYTES, int, int)
        everything = np.sort(np.concatenate(samples))
        assert len(everything) == 55 * 18_000 == coin.sampled
        assert (everything[1:] != everything[:-1]).all() and everything[0] >= len(masked)
    with pytest.raises(InsufficientPositionsError):
        _plan_round(coin, rng)


def test_a_mint_is_one_draw_split_in_two():
    # bank_mint draws 32 bytes once; Generator.bytes reads consecutive
    # 32-bit words, so the key and the coin id are what a draw of 16 bytes
    # each would give, after any earlier draw, even one that leaves half a
    # 64-bit word buffered, and the generator ends where it would.
    for seed in range(300):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, twin):
            g.integers(0, 7, size=seed % 5)
            g.bytes(seed % 3)
        coin, db = bank_mint(4, 10_000, 10, rng)
        assert db.key == twin.bytes(16) and coin.coin_id == db.coin_id == twin.bytes(16).hex()
        assert rng.bit_generator.state == twin.bit_generator.state


def test_advancing_a_fresh_generator_equals_drawing_from_it():
    # measure_positions skips the loss draw at eta = 1 by advancing its
    # fresh generator k steps: the state, and so every later draw, is that
    # of drawing k uniforms.
    for seed in range(200):
        k = seed * 37 % 2500
        drawn, advanced = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn.random(k)
        advanced.bit_generator.advance(k)
        assert drawn.bit_generator.state == advanced.bit_generator.state
        assert drawn.integers(0, 4, size=9).tolist() == advanced.integers(0, 4, size=9).tolist()
        assert drawn.random(3).tolist() == advanced.random(3).tolist()


@pytest.mark.parametrize("eta", [1.0, 0.7])
def test_each_row_of_a_batched_measurement_is_its_reference(eta):
    # Both coins of two trials of every built-in strategy, and honest coins,
    # measured as one batch: runs of rows share a bank key, and rows differ
    # in layout and forged error.  Each row equals the reference loop on
    # that row alone, and its kinds are the coin's.
    rng = np.random.default_rng(int(10 * eta))
    rows = []
    for name in sorted(BUILTIN_STRATEGIES):
        strategy = builtin_strategy(name, beta=0.1, fraction=0.05)
        for _ in range(2):
            coin, db = bank_mint(8, 200_000, 60, rng)
            rows += [(db.key, forged, *_plan_round(forged, rng)) for forged in forge_coins(coin, strategy)]
    for _ in range(3):
        coin, db = bank_mint(8, 200_000, 60, rng)
        rows.append((db.key, coin, *_plan_round(coin, rng)))
    keys, coins, samples, alphas, seeds = zip(*rows)
    got = measure_positions(coins, np.array(samples), np.array(alphas), 0.2, eta,
                            [np.random.default_rng(seed) for seed in seeds])
    assert all(a.shape == (len(rows), 60) for a in got)
    for r, (key, coin, sample, bases, seed) in enumerate(rows):
        ref = measure_positions_reference(key, coin, sample, bases, 0.2, eta, np.random.default_rng(seed))
        pair_i, pair_j, present, errors, kinds = (a[r] for a in got)
        answer = claimed_bits(key, coin.n, sample, pair_i, pair_j, present, errors)
        for name, a, b in zip(("pair_i", "pair_j", "answer", "errors"), (pair_i, pair_j, answer, errors), ref):
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, r)
        assert np.array_equal(kinds, kinds_of(coin.segments, sample))
    # Some white and hidden segments are absent; without loss only they are.
    lost = ~got[2]
    assert lost.any() and (eta < 1.0 or np.array_equal(lost, got[4] == PositionKind.ABSENT))


def test_a_batched_read_takes_each_coins_own_sample(monkeypatch):
    # Coins of one shape read as one batch, each at its own cursor under its
    # own key: fresh, read on from an earlier round, one whose first read
    # falls short (key 41524 finds 7 values below 4097 in the batch's first
    # 40 indices), and one whose permutation ends inside the batch's read.
    # Each takes the next l values below the domain of its own permutation,
    # shifted past its masked range, and advances its own cursor and count.
    q, l, bits = 4102, 8, 13  # a domain of 4097 past the 5 masked positions
    coins = [Coin.fresh("c", 4, q, l, 1) for _ in range(4)]
    for k, coin in enumerate(coins):
        coin.masked = range(100 * k, 100 * k + 5)
        coin.sampler_key = np.random.default_rng(k).bytes(SAMPLER_KEY_BYTES)
    coins[2].sampler_key = (41524).to_bytes(SAMPLER_KEY_BYTES, "little")
    _plan_round(coins[1], np.random.default_rng(1))
    images = [_permute(coin.sampler_key, np.arange(1 << bits, dtype=np.uint64), bits) for coin in coins]
    below = [np.flatnonzero(image < q - 5) for image in images]
    assert below[2][7] == 41
    coins[3].cursor = int(below[3][-12])
    coins[3].sampled = len(below[3]) - 12
    assert (1 << bits) - coins[3].cursor < 40  # less than the batch reads at once
    expected = []
    for coin, image, ok in zip(coins, images, below):
        taken = ok[ok >= coin.cursor][:l]
        values = image[taken].astype(np.int64)
        shifted = np.where(values >= coin.masked.start, values + 5, values)
        expected.append((shifted, taken[-1] + 1, coin.sampled + l))
    keys = b"".join(coin.sampler_key for coin in coins)
    rows = np.arange(4, dtype=np.uint64)[:, None] * 100 + np.arange(50, dtype=np.uint64)
    assert np.array_equal(_permute(keys, rows, bits), [image[row] for image, row in zip(images, rows)])
    reads = []

    def permute(keys, idx, bits):
        reads.append(idx.shape)
        return _permute(keys, idx, bits)

    monkeypatch.setattr(protocol, "_permute", permute)
    samples = protocol._read_samples(coins)
    assert reads[0] == (4, 40) and len(reads) > 1 and reads[1][0] == 1
    for coin, sample, (values, cursor, sampled) in zip(coins, samples, expected):
        assert sample.tolist() == values.tolist()
        assert (coin.cursor, coin.sampled) == (cursor, sampled)


@pytest.mark.parametrize("rounds", [1, 3, 7])
def test_experiments_do_not_depend_on_the_batch_size(monkeypatch, rounds):
    # Batches of 1, 3 and 7 rounds (3 and 7 split a forge trial's two
    # rounds, and the last batch is short) give the results of one batch.
    def run():
        strategy = builtin_strategy("loss_hiding", fraction=0.05)
        params = VerdictParameters.from_noise(4, 0.0, 0.9, 0.05)
        forge = adversary.run_forging_experiment(4, 20_000, 10, strategy, 5, params, np.random.default_rng(3))
        honest = run_honest_experiment(8, 10_000, 10, 0.1, 9, np.random.default_rng(4), eta=0.9, epsilon=0.05)
        return forge, honest

    whole = run()
    assert protocol.ROUND_BATCH_POSITIONS >= 10 * 10
    monkeypatch.setattr(protocol, "ROUND_BATCH_POSITIONS", 10 * rounds)
    forge, honest = run()
    assert forge.to_dict() == whole[0].to_dict() and honest == whole[1]
    for field in ("accept1", "accept2", "observed_error1", "observed_error2", "overall_error1", "overall_error2"):
        assert np.array_equal(getattr(forge, field), getattr(whole[0], field), equal_nan=True), field


def test_rounds_of_one_coin_are_the_rounds_holder_verify_gives():
    # measure_rounds on one coin T + 2 times, each ended by holder_verify:
    # each round starts a new batch, as its cursor chains the next, and
    # every outcome, check and coin state is that of holder_verify alone,
    # round after round, the last two refused as coin_exhausted.
    rng, twin = np.random.default_rng(43), np.random.default_rng(43)
    (coin, db), (twin_coin, twin_db) = bank_mint(8, 500_000, 100, rng), bank_mint(8, 500_000, 100, twin)
    params, channel = VerdictParameters.from_noise(8, 0.1, 0.9, 0.05), HonestChannel(0.1)
    got = [holder_verify(c, d, params, channel, rng, measured)
           for c, d, measured in protocol.measure_rounds([(coin, db)] * (coin.T + 2), channel, params.eta, rng)]
    for out in got:
        ref = holder_verify(twin_coin, twin_db, params, HonestChannel(0.1), twin)
        assert out.verdict is ref.verdict and out.check == ref.check
        assert out.transcript.to_json() == ref.transcript.to_json()
        assert np.array_equal(out.errors, ref.errors) and np.array_equal(out.kinds, ref.kinds)
    assert [out.check.code for out in got[-2:]] == ["coin_exhausted"] * 2
    assert (coin.cursor, coin.sampled, db.s) == (twin_coin.cursor, twin_coin.sampled, twin_db.s)
    assert (coin.sampled, db.s) == (700, 5) and rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("eta, epsilon", [(1.0, 0.0), (0.6, 0.05)])
def test_the_experiments_derive_no_secret(monkeypatch, eta, epsilon):
    # Both experiments grade every round from its presence and error flags,
    # lossless and at criterion 8's eta and epsilon: no AES block at all.
    # Ended as they come, a batch's transcripts derive their l' blocks when
    # they are read, one AES call each.
    counter = AesBlockCounter(monkeypatch)
    params = VerdictParameters.from_noise(8, 0.0, eta, epsilon)
    for name in sorted(BUILTIN_STRATEGIES):
        adversary.run_forging_experiment(8, 400_000, 200, builtin_strategy(name, fraction=0.05), 3, params,
                                         np.random.default_rng(41))
    run_honest_experiment(8, 400_000, 200, 0.1, 5, np.random.default_rng(42), eta=eta, epsilon=epsilon)
    assert counter.count == 0
    calls = []
    counted = protocol._aes128_ecb
    monkeypatch.setattr(protocol, "_aes128_ecb", lambda key, blocks: calls.append(key) or counted(key, blocks))
    rng = np.random.default_rng(43)
    minted = [bank_mint(8, 400_000, 200, rng) for _ in range(4)]
    clone = builtin_strategy("symmetric_clone")
    rounds = [(forged, db) for coin, db in minted for forged in forge_coins(coin, clone)]
    outcomes = [holder_verify(coin, db, params, HonestChannel(0.0), rng, measured)
                for coin, db, measured in protocol.measure_rounds(rounds, HonestChannel(0.0), params.eta, rng)]
    assert counter.count == 0
    for out in outcomes:
        out.transcript.answer
    assert calls == [db.key for _, db in minted for _ in range(2)]
    assert counter.count == sum(out.transcript.l_prime for out in outcomes)
    assert all(0 < out.transcript.l_prime <= 200 for out in outcomes)


@pytest.mark.parametrize("eta, epsilon", [(1.0, 0.0), (0.6, 0.05)])
def test_a_transcript_derives_the_reference_bits_on_read(eta, epsilon):
    # Every built-in strategy's two rounds, and an honest coin's, lossless
    # and lossy: the answer a transcript derives when it is read is the
    # reference secrets' parity on each pair XOR the round's error flag,
    # and -1 exactly where the pair is (0, 0).
    rng = np.random.default_rng(int(10 * eta))
    params = VerdictParameters.from_noise(8, 0.0, eta, epsilon)
    rounds = []
    for name in sorted(BUILTIN_STRATEGIES):
        coin, db = bank_mint(8, 400_000, 100, rng)
        rounds += [(forged, db) for forged in forge_coins(coin, builtin_strategy(name, beta=0.1, fraction=0.05))]
    rounds.append(bank_mint(8, 400_000, 100, rng))
    lost_any = False
    for coin, db in rounds:
        out = holder_verify(coin, db, params, HonestChannel(0.1), rng)
        t = out.transcript
        lost = (t.pair_i == 0) & (t.pair_j == 0)
        assert np.array_equal(t.answer == -1, lost) and np.array_equal(t.answer >= 0, ~lost)
        bits = secret_bits(db.key, t.positions[~lost], 8)
        rows = np.arange(len(bits))
        parity = bits[rows, t.pair_i[~lost] - 1] ^ bits[rows, t.pair_j[~lost] - 1]
        assert np.array_equal(t.answer[~lost], parity ^ out.errors[~lost])
        lost_any |= lost.any()
    assert lost_any
