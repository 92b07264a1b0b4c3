import copy
import hashlib
import math

import numpy as np
import pytest

from hmqm import bounds
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
    _plan_round,
    matching_set,
    measure_positions,
    pair_parities,
    plan_parameters,
    run_honest_experiment,
    secret_bits,
)
from hmqm.qrg import maximally_mixed


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
    assert not coin.consumed
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
    coin.consumed.update(range(10_000 - 5))
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
    _, db = bank_mint(4, 70_000, 10, rng)
    assert db.T == 7
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

    def bad_node(t):
        t.pair_j[0] = t.pair_i[0]

    check(bad_node, "node_out_of_range")

    def wrong_matching(t):
        i, j = matching_set(db.n).matching(2).pairs[0]
        t.pair_i[0], t.pair_j[0] = i, j

    check(wrong_matching, "pair_not_in_matching")
    assert db.s == 7


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
    d = plan.to_dict()
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
    with pytest.raises(ValueError, match="no forge channel"):
        measured_error_rate(db, coin, 100, beta=0.0, eta=1.0, seed=21)


def test_measure_positions_custom_channel():
    rng = np.random.default_rng(22)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((coin.q, PositionKind.FORGED),)
    coin.custom_channel = lambda state, _rng: state.to_density()
    errors, present, _ = measured_error_rate(db, coin, 2000, beta=0.0, eta=1.0, seed=23)
    assert errors == 0

    coin.custom_channel = lambda state, _rng: maximally_mixed(state.dim)
    errors, present, _ = measured_error_rate(db, coin, 2000, beta=0.0, eta=1.0, seed=24)
    sigma = math.sqrt(0.25 / present)
    assert abs(errors / present - 0.5) <= 4 * sigma


def test_error_flags_agree_with_the_bank():
    # Genuine, replica, forged and absent segments under loss, with the
    # built-in forged error and with two custom channels: a flag is set
    # exactly where the bank finds a wrong parity, never on a lost outcome.
    rng = np.random.default_rng(28)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((2500, PositionKind.GENUINE), (5000, PositionKind.REPLICA),
                     (7500, PositionKind.FORGED), (10_000, PositionKind.ABSENT))
    coin.forged_error = 0.3
    cases = [  # (custom channel, step between sampled positions, forged positions can err)
        (None, 1, True),
        (lambda state, _rng: maximally_mixed(state.dim), 10, True),
        (lambda state, _rng: state.to_density(), 10, False),
    ]
    for seed, (channel, step, forged_errs) in enumerate(cases):
        coin.custom_channel = channel
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
    assert coin.consumed == set(seen)
    assert coin.unused() == 0
    with pytest.raises(InsufficientPositionsError):
        _plan_round(coin, rng)


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


def test_secret_bits_known_answer():
    # Position i's secret is the first n bits of keyed BLAKE2b over i as 8
    # little-endian bytes.  Any change to this map breaks every journal.
    key = bytes(range(100, 116))
    positions = np.array([0, 1, 2**62], dtype=np.int64)
    for n in (4, 8, 10, 256):
        width = (n + 7) // 8
        expected = [
            [(byte >> (7 - b)) & 1
             for byte in hashlib.blake2b(p.to_bytes(8, "little"), key=key, digest_size=width).digest()
             for b in range(8)][:n]
            for p in (0, 1, 2**62)
        ]
        assert secret_bits(key, positions, n).tolist() == expected


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
