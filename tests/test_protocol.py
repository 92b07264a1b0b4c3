import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AesBlockCounter, measure_positions_reference, plan_round_reference
from hmqm import bounds, protocol
from hmqm.adversary import BUILTIN_STRATEGIES, builtin_strategy, forge_coins
from hmqm.protocol import (
    CheckResult,
    Coin,
    HonestChannel,
    InfeasiblePlanError,
    InsufficientPositionsError,
    PositionKind,
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
    _plan_round,
    matching_set,
    measure_positions,
    pair_parities,
    plan_parameters,
    run_honest_experiment,
    secret_bits,
)


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
    assert coin.consumed.size == 0 and coin.consumed.dtype == np.int64
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
    assert len(coin.consumed) == 10
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    assert outcome.verdict is Verdict.ABORTED
    assert len(coin.consumed) == 20


def test_insufficient_positions():
    rng = np.random.default_rng(5)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.consumed = np.arange(10_000 - 5)
    with pytest.raises(InsufficientPositionsError):
        holder_verify(coin, db, make_params(), HonestChannel(0.0), rng)


def make_transcript(db, correct_count, l=1000, lost=0):
    """Transcript over positions 0..l-1, first matching, chosen correctness."""
    m = matching_set(db.n).matching(1)
    i, j = m.pairs[0]
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
        i, j = matching_set(db.n).matching(2).pairs[0]
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
    i, j = matching_set(4).matching(1).pairs[0]
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
    parsed = VerificationTranscript.from_json(text)
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
    d = exp.to_dict()
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


def measured_error_rate(db, coin, k, beta, eta, seed):
    rng = np.random.default_rng(seed)
    positions = np.arange(k, dtype=np.int64)
    alphas = rng.integers(1, coin.n, size=k)
    pi, pj, ans, flags = measure_positions(db.key, coin, positions, alphas, beta, eta, rng)
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
        pi, pj, ans, flags = measure_positions(
            db.key, coin, positions, alphas, 0.2, 0.7, np.random.default_rng(seed))
        present = ans >= 0
        assert 0 < present.sum() < len(positions)
        assert not np.any(flags[~present])
        parity = pair_parities(db.key, db.n, positions[present], pi[present], pj[present])
        assert np.array_equal(flags[present], parity != ans[present])
        kinds = coin.kind_of(positions)
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
    got = measure_positions(db.key, coin, positions, alphas, 0.2, 0.7, np.random.default_rng(1))
    ref = measure_positions_reference(db.key, coin, positions, alphas, 0.2, 0.7, np.random.default_rng(1))
    for name, a, b in zip(("pair_i", "pair_j", "answer", "errors"), got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    kinds = coin.kind_of(positions)
    lost = (got[2] < 0) & (kinds != PositionKind.ABSENT)
    assert lost.any() and np.all(got[2][kinds == PositionKind.ABSENT] == -1)
    assert got[3][kinds == PositionKind.GENUINE].any() and got[3][kinds == PositionKind.FORGED].any()


def test_sample_without_replacement():
    # _plan_round samples by rejection from [0, q) minus the masked range and
    # the consumed positions; it can take the very last unused ones.
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
    assert coin.consumed.tolist() == sorted(seen)
    assert coin.unused() == 0
    with pytest.raises(InsufficientPositionsError):
        _plan_round(coin, rng)


def test_consumed_stays_a_sorted_unique_array():
    # After every round, `consumed` is the sorted int64 array of every
    # position sampled so far, each once.
    rng = np.random.default_rng(30)
    coin = Coin.fresh("c", 4, 500, 40, 1)
    coin.masked = range(100, 200)
    seen = []
    while coin.unused() >= coin.l:
        sample, _, _ = _plan_round(coin, rng)
        seen.extend(sample.tolist())
        assert coin.consumed.dtype == np.int64
        assert np.all(coin.consumed[1:] > coin.consumed[:-1])
        assert coin.consumed.tolist() == sorted(seen)
    assert len(seen) == 400


def test_plan_round_matches_the_reference_loop():
    # Batched draws take the same rng calls and the same sample as taking
    # the draws one by one: with a masked range, positions consumed before,
    # a q small enough that one draw repeats positions, criterion 7's forge
    # layout, one batch holding both a repeat and a consumed position, and
    # half a register consumed on both sides of the masked range.  Every
    # case but criterion 7's runs out of positions within three rounds.
    for seed, (q, l, masked, consumed) in enumerate([
        (60, 20, range(10, 25), range(0, 60, 7)),
        (1000, 300, range(0), [5, 6, 7, 999]),
        (10_000, 2000, range(2000, 6000), range(6000, 7000)),
        (4_000_000, 2000, range(0, 4000), []),
        (40, 10, range(0), range(0, 40, 5)),
        (200, 50, range(100, 150), [*range(0, 100, 2), *range(150, 200, 2)]),
    ]):
        coin = Coin.fresh("c", 4, q, l, 1)
        coin.masked, coin.consumed = masked, np.array(consumed, dtype=np.int64)
        twin = copy.deepcopy(coin)
        rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            if coin.unused() < l:
                break
            sample, alphas, measure_seed = _plan_round(coin, rng)
            ref_sample, ref_alphas, ref_seed = plan_round_reference(twin, twin_rng)
            assert sample.dtype == np.int64
            assert sample.tolist() == ref_sample.tolist()
            assert alphas.tolist() == ref_alphas.tolist() and measure_seed == ref_seed
            assert np.array_equal(coin.consumed, twin.consumed)
        assert rng.integers(0, 2**63) == twin_rng.integers(0, 2**63)
    # The fourth and fifth cases reach both ends of a batch: the first batch
    # of criterion 7's layout has no repeat and no consumed position, and the
    # small q's first batch has both.
    clean = np.random.default_rng(3).integers(0, 4_000_000 - 4000, size=2000)
    assert len(np.unique(clean)) == len(clean)
    mixed = np.random.default_rng(4).integers(0, 40, size=10).tolist()
    assert len(set(mixed)) < len(mixed) and not set(mixed).isdisjoint(range(0, 40, 5))


@st.composite
def planner_shapes(draw):
    """A coin shape, a masked range and consumed positions outside it, for
    the planner.  q runs from l to 8 l, so a batch often repeats positions."""
    l = draw(st.integers(1, 200))
    q = draw(st.integers(l, 8 * l))
    width = draw(st.integers(0, q - l))
    start = draw(st.integers(0, q - width))
    masked = range(start, start + width)
    consumed = draw(st.lists(st.integers(0, q - 1), max_size=2 * l))
    consumed = np.array(sorted(set(consumed) - set(masked)), dtype=np.int64)
    return q, l, masked, consumed


@settings(max_examples=200, deadline=None)
@given(planner_shapes(), st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1))
def test_plan_round_matches_the_reference_loop_on_drawn_shapes(shape, n, seed):
    # Round after round until the positions run out or four rounds pass, the
    # planner takes the same sample, bases, seed and consumed positions as
    # the loop over single draws, and leaves its generator in the same state.
    q, l, masked, consumed = shape
    coin = Coin.fresh("c", n, q, l, 1)
    coin.masked, coin.consumed = masked, consumed
    twin = copy.deepcopy(coin)
    rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        if coin.unused() < l:
            with pytest.raises(InsufficientPositionsError):
                _plan_round(coin, rng)
            break
        sample, alphas, measure_seed = _plan_round(coin, rng)
        ref_sample, ref_alphas, ref_seed = plan_round_reference(twin, twin_rng)
        assert sample.dtype == np.int64 and sample.tolist() == ref_sample.tolist()
        assert alphas.tolist() == ref_alphas.tolist() and measure_seed == ref_seed
        assert coin.consumed.dtype == np.int64 and np.array_equal(coin.consumed, twin.consumed)
        assert rng.bit_generator.state == twin_rng.bit_generator.state


def test_a_round_hashes_each_present_position_once(monkeypatch):
    # Once, in the holder's simulated measurement: the bank grades its own
    # measurement from the error flags and derives nothing again.
    counter = AesBlockCounter(monkeypatch)
    rng = np.random.default_rng(29)
    coin, db = bank_mint(8, 2_000_000, 1000, rng)  # T = 2
    outcome = holder_verify(coin, db, VerdictParameters.from_noise(8, 0.0), HonestChannel(0.0), rng)
    assert outcome.verdict is Verdict.VALID
    assert counter.count == 1000
    counter.count = 0
    params = VerdictParameters.from_noise(8, 0.0, 0.9, 0.05)
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    assert outcome.verdict is Verdict.VALID and outcome.check.l_prime < 1000
    assert counter.count == outcome.check.l_prime
    # Two rounds interleaved, as two clients of one server: measure both,
    # then check both without the error flags, so the check derives again.
    counter.count = 0
    transcripts = []
    for coin, db in (bank_mint(8, 1_000_000, 1000, rng) for _ in range(2)):
        sample, alphas, seed = _plan_round(coin, rng)
        *outcomes, _ = measure_positions(db.key, coin, sample, alphas, 0.0, 1.0, np.random.default_rng(seed))
        transcripts.append((db, VerificationTranscript(coin.coin_id, coin.l, sample, alphas, *outcomes)))
    for db, transcript in transcripts:
        assert bank_check(db, transcript, VerdictParameters.from_noise(8, 0.0)).valid
    assert counter.count == 2 * 2000


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
    assert '"valid": true' in res.to_json()


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
    assert len(coin.consumed) == 18_000
