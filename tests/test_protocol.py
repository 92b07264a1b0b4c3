import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AesBlockCounter, measure_positions_reference
from hmqm import bounds, protocol
from hmqm.adversary import BUILTIN_STRATEGIES, builtin_strategy, forge_coins
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
    # Without loss or absent positions every outcome is present (the branch
    # every forge and honest round takes); an empty sample measures nothing.
    coin.segments = coin.segments[:3]
    coin.q = 150_000
    for size in (600, 0):
        positions = rng.integers(0, coin.q, size=size)
        alphas = rng.integers(1, n, size=size)
        got = measure_positions(db.key, coin, positions, alphas, 0.2, 1.0, np.random.default_rng(2))
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
        pair_i, pair_j, _, _ = measure_positions(db.key, coin, positions, alphas, 0.1, eta, rng)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))
        present = pair_i > 0
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
