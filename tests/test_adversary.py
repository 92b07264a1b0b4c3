import math

import numpy as np
import pytest

import reference
from helpers import binomial_tail_below, kinds_of
from hmqm import bounds, protocol
from hmqm.adversary import (
    BUILTIN_STRATEGIES,
    CHANNELS,
    AttackStrategy,
    ForgeOutcome,
    builtin_strategy,
    check_accounting,
    forge_coins,
    run_forging_experiment,
)
from hmqm.cli import main
from hmqm.matchings import matching_table
from hmqm.protocol import (
    Coin,
    HonestChannel,
    PositionKind,
    VerdictParameters,
    bank_mint,
    holder_verify,
    _plan_round,
)
from reference import (
    BitString,
    hidden_matching_state,
    loss_hiding_weight_check,
    maximally_mixed,
    outcome_distribution,
)


def test_builtin_strategy_fields():
    # beta is read by the honest channel alone, the hidden fraction by loss_hiding alone.
    assert builtin_strategy("honest_noise", beta=0.1, fraction=0.2) == AttackStrategy(
        "honest_noise", channel="honest_noise", beta=0.1)
    assert builtin_strategy("register_split", beta=0.1, fraction=0.2) == AttackStrategy(
        "register_split", split=True)
    assert builtin_strategy("symmetric_clone", beta=0.1, fraction=0.2) == AttackStrategy(
        "symmetric_clone", split=True, channel="symmetric_clone")
    assert builtin_strategy("mixed_substitution", beta=0.1, fraction=0.2) == AttackStrategy(
        "mixed_substitution", split=True, channel="mixed_substitution")
    assert builtin_strategy("loss_hiding", beta=0.1, fraction=0.2) == AttackStrategy(
        "loss_hiding", split=True, hidden=0.2, channel="symmetric_clone")
    with pytest.raises(ValueError, match="unknown strategy"):
        builtin_strategy("teleport")


def test_strategy_record_validation():
    for channel in ("teleport", "", "SymmetricClone"):
        with pytest.raises(ValueError, match="unknown channel"):
            AttackStrategy("x", channel=channel)
    for hidden in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="hidden fraction must be in"):
            AttackStrategy("x", hidden=hidden)
    for beta in (-0.1, 0.7, math.nan):
        with pytest.raises(ValueError, match="beta must be in"):
            AttackStrategy("x", beta=beta)
    with pytest.raises(ValueError, match="hidden fraction must be in"):
        builtin_strategy("loss_hiding", fraction=1.5)
    with pytest.raises(ValueError, match="beta must be in"):
        builtin_strategy("honest_noise", beta=0.7)
    # Both ranges are closed.
    assert AttackStrategy("x", hidden=1.0, beta=0.5).white_pair_error(4) == (0.0, 1.0)


def test_white_pair_error_per_strategy():
    for n in (4, 8):
        e = bounds.e_max(n)
        assert builtin_strategy("symmetric_clone").white_pair_error(n) == (e, e)
        assert builtin_strategy("mixed_substitution").white_pair_error(n) == (0.5, 0.5)
        assert builtin_strategy("honest_noise", beta=0.1).white_pair_error(n) == (0.1, 1.0)
        assert builtin_strategy("register_split").white_pair_error(n) == (0.0, 1.0)


@pytest.mark.parametrize("name", list(BUILTIN_STRATEGIES))
def test_white_pair_error_respects_cloning_bound(name):
    # No strategy's white channel may beat the certified total error.
    floor_margin = 1e-9
    for n in (4, 8):
        lower = bounds.pair_error_lower_bound(n)
        e1, e2 = builtin_strategy(name, beta=0.1).white_pair_error(n)
        assert e1 + e2 >= lower - floor_margin


def _clone_outputs(x, beta):
    pair = reference.symmetric_clone(hidden_matching_state(x).to_density())
    return pair.first, pair.second


# The state each verifier receives on a forged coin's white positions, by
# the reference physics, keyed by channel: (verifier 1, verifier 2), None
# where that verifier receives nothing.  None, no channel, is the intact coin
# through the honest channel to verifier 1.  A row added to CHANNELS needs an
# entry here.
WHITE_STATES = {
    None: lambda x, beta: (reference.depolarization_for_error(x, beta), None),
    "honest_noise": lambda x, beta: (reference.depolarization_for_error(x, beta), None),
    "symmetric_clone": _clone_outputs,
    "mixed_substitution": lambda x, beta: (maximally_mixed(x.n), maximally_mixed(x.n)),
}
CHANNEL_BETAS = (0.0, 0.05, 0.1, 0.2)


def assert_grades_at(rho, x, coin, kind, beta):
    """Measured in every matching basis, rho gives each pair with
    probability 2/n and, on each pair, the wrong parity at the rate the fast
    path grades a `kind` position of `coin` at, both to 1e-12."""
    n = x.n
    every_kind = tuple((stop, kind) for stop, kind in enumerate(PositionKind, start=1))
    rate = protocol._profile_table(((every_kind, coin.forged_error or 0.0),), beta)[2][0, kind]
    for row in matching_table(n)[1:]:
        probs = outcome_distribution(rho, row)
        wrong = [probs[k, x.bits[i - 1] ^ x.bits[j - 1] ^ 1] for k, (i, j) in enumerate(row.tolist())]
        assert np.max(np.abs(probs.sum(axis=1) - 2 / n)) < 1e-12
        assert np.max(np.abs(np.array(wrong) * n / 2 - rate)) < 1e-12


@pytest.mark.parametrize("name", list(BUILTIN_STRATEGIES))
def test_channel_states_grade_at_the_fast_path_rate(name):
    missing = {None, *CHANNELS} - set(WHITE_STATES)
    assert not missing, f"channels {missing} have no entry in WHITE_STATES: state their physics"
    rng = np.random.default_rng(61)
    for n in range(4, 15, 2):
        for _ in range(3):
            x = BitString.random(n, rng)
            for beta in CHANNEL_BETAS:
                strategy = builtin_strategy(name, beta=beta, fraction=0.1)
                coins = forge_coins(Coin.fresh("c", n, 100_000, 10, 1), strategy)
                for coin, white in zip(coins, WHITE_STATES[strategy.channel](x, beta)):
                    *others, (_, white_kind) = coin.segments
                    assert (white_kind == PositionKind.ABSENT) == (white is None)
                    if white is not None:
                        assert_grades_at(white, x, coin, white_kind, beta)
                    # A masked side or a known position holds the intact
                    # state, checked as a replica below.
                    assert {kind for _, kind in others} <= {PositionKind.ABSENT, PositionKind.REPLICA}


def test_genuine_and_replica_states_grade_at_their_rates():
    rng = np.random.default_rng(67)
    for n in range(4, 15, 2):
        coin = Coin.fresh("c", n, 1000, 1, 1)
        for _ in range(3):
            x = BitString.random(n, rng)
            # A replica is the intact state and errs at 0 whatever the channel's beta.
            assert_grades_at(hidden_matching_state(x).to_density(), x, coin, PositionKind.REPLICA, 0.3)
            for beta in CHANNEL_BETAS:
                noisy = reference.depolarization_for_error(x, beta)
                assert_grades_at(noisy, x, coin, PositionKind.GENUINE, beta)


def test_check_accounting_cap():
    clone = builtin_strategy("symmetric_clone")
    assert check_accounting(clone, 1_000_000, 100, 10) == (1000, 1000, 0)  # exactly at cap
    with pytest.raises(ValueError, match="cap is"):
        check_accounting(clone, 1_000_000, 2000, 1)  # 1000 + 2000 over the cap
    assert check_accounting(builtin_strategy("honest_noise"), 1000, 500, 1) == (0, 0, 0)  # no cap


def test_check_accounting_register_size():
    big_hide = builtin_strategy("loss_hiding", fraction=0.999)
    with pytest.raises(ValueError, match="register size"):
        check_accounting(big_hide, 1_000_000, 100, 10)


def test_forge_register_split_layout():
    rng = np.random.default_rng(30)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin1, coin2 = forge_coins(coin, builtin_strategy("register_split"))
    assert coin1.coin_id == coin2.coin_id == coin.coin_id
    everywhere = np.arange(coin.q)
    kinds1, kinds2 = kinds_of(coin1.segments, everywhere), kinds_of(coin2.segments, everywhere)

    side1 = np.array(coin1.masked)
    side2 = np.array(coin2.masked)
    assert side1.size == side2.size == 10  # q/1000 per side
    assert np.intersect1d(side1, side2).size == 0
    assert np.all(kinds1[side1] == PositionKind.ABSENT)
    assert np.all(kinds2[side1] == PositionKind.REPLICA)
    assert np.all(kinds2[side2] == PositionKind.ABSENT)
    assert np.all(kinds1[side2] == PositionKind.REPLICA)

    # T*l auxiliary positions are replicas on both coins.
    both_replica = (kinds1 == PositionKind.REPLICA) & (kinds2 == PositionKind.REPLICA)
    assert int(both_replica.sum()) == coin.T * coin.l == 10
    # Without a channel step verifier 1 keeps the white states...
    assert int(np.sum(kinds1 == PositionKind.GENUINE)) == 10_000 - 30
    # ...and verifier 2 gets nothing there.
    assert int(np.sum(kinds2 == PositionKind.ABSENT)) == 10_000 - 30 + 10


def test_forge_verifier_never_samples_masked_positions():
    rng = np.random.default_rng(31)
    coin, db = bank_mint(4, 10_000, 10, rng)
    coin1, _ = forge_coins(coin, builtin_strategy("symmetric_clone"))
    masked = np.array(coin1.masked)
    assert masked.size == 10
    params = VerdictParameters.from_noise(4, 0.0)
    out = holder_verify(coin1, db, params, HonestChannel(0.0), rng)
    assert np.intersect1d(out.transcript.positions, masked).size == 0


def test_forge_requires_fresh_coin():
    rng = np.random.default_rng(32)
    coin, _ = bank_mint(4, 10_000, 10, rng)
    _plan_round(coin, rng)
    with pytest.raises(ValueError, match="fresh"):
        forge_coins(coin, builtin_strategy("symmetric_clone"))
    coin, _ = bank_mint(4, 10_000, 10, rng)
    coin.segments = ((1, PositionKind.REPLICA), (coin.q, PositionKind.GENUINE))
    with pytest.raises(ValueError, match="fresh"):
        forge_coins(coin, builtin_strategy("symmetric_clone"))


def test_honest_noise_is_not_a_double_spend():
    rng = np.random.default_rng(33)
    params = VerdictParameters.from_noise(4, 0.0)
    outcome = run_forging_experiment(
        4, 20_000, 10, builtin_strategy("honest_noise"), 5, params, rng
    )
    assert outcome.accept1_rate == 1.0  # the single coin is genuine
    assert outcome.accept2_rate == 0.0  # the other verifier gets nothing
    assert outcome.both_accept_rate == 0.0


def test_a_double_spend_needs_two_checks(capsys):
    # At q = 50 000 and l = 50 a coin allows T = 1 check: the second
    # verifier's round would be refused as coin_exhausted and never judged,
    # so the run is refused (the CLI exits 2) instead of reporting 0.
    params = VerdictParameters.from_noise(4, 0.1)
    strategy = builtin_strategy("symmetric_clone")
    with pytest.raises(ValueError, match="T=1"):
        run_forging_experiment(4, 50_000, 50, strategy, 2, params, np.random.default_rng(1))
    assert main(["forge", "--n", "4", "--q", "50000", "--l", "50", "--trials", "2", "--seed", "1"]) == 2
    assert "T=1" in capsys.readouterr().err
    outcome = run_forging_experiment(4, 100_000, 50, strategy, 40, params, np.random.default_rng(1))
    assert outcome.accept2_rate > 0.0


def test_the_experiments_end_each_round_with_holder_verify(monkeypatch):
    # The rounds are measured a batch at a time, but each one is ended by
    # holder_verify, looked up in the module that runs the experiment
    # (perfbench's traced runs patch both names): two per forge trial, one
    # per honest trial, and in the order a loop of calls would make them.
    from hmqm import adversary

    calls = []

    def counted(name, original):
        def wrapper(coin, db, params, channel, rng, measured=None):
            calls.append((name, coin.coin_id, measured is not None))
            return original(coin, db, params, channel, rng, measured)
        return wrapper

    monkeypatch.setattr(adversary, "holder_verify", counted("forge", adversary.holder_verify))
    monkeypatch.setattr(protocol, "holder_verify", counted("honest", protocol.holder_verify))
    forge = run_forging_experiment(4, 100_000, 50, builtin_strategy("symmetric_clone"), 3,
                                   VerdictParameters.from_noise(4, 0.1), np.random.default_rng(5))
    honest = protocol.run_honest_experiment(8, 100_000, 50, 0.1, 4, np.random.default_rng(6))
    assert [name for name, _, _ in calls] == ["forge"] * 6 + ["honest"] * 4
    assert all(batched for _, _, batched in calls)
    forge_ids = [coin_id for _, coin_id, _ in calls[:6]]
    assert forge_ids[0::2] == forge_ids[1::2] and len(set(forge_ids)) == 3
    assert forge.trials == 3 and honest.valid + honest.invalid + honest.aborted == 4


def test_clone_experiment_error_rate_and_bound():
    rng = np.random.default_rng(34)
    params = VerdictParameters.from_noise(4, 0.1)
    outcome = run_forging_experiment(
        4, 400_000, 200, builtin_strategy("symmetric_clone"), 30, params, rng
    )
    pooled = np.concatenate([outcome.observed_error1, outcome.observed_error2])
    mean_err = float(np.nanmean(pooled))
    sigma = math.sqrt(0.2 * 0.8 / (60 * 190))
    assert abs(mean_err - bounds.e_max(4)) <= 4 * sigma
    bound = outcome.analytic_bound
    stat = 3 * math.sqrt(max(bound * (1 - bound), 1e-12) / 30)
    assert outcome.both_accept_rate <= bound + stat


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("name", list(BUILTIN_STRATEGIES))
def test_every_builtin_stays_below_the_bound(n, name):
    rng = np.random.default_rng(35)
    strategy = builtin_strategy(name, beta=0.05, fraction=0.2)
    params = VerdictParameters.from_noise(n, 0.05)
    outcome = run_forging_experiment(n, 100_000, 50, strategy, 10, params, rng)
    bound = outcome.analytic_bound
    stat = 3 * math.sqrt(max(bound * (1 - bound), 1e-12) / 10)
    assert outcome.both_accept_rate <= bound + stat


def abort_policy(eta, epsilon):
    """A policy whose abort rule is l' < (eta - epsilon) * l; c and delta
    play no part in the weight check."""
    return VerdictParameters(c=0.9, delta=0.1, eta=eta, epsilon=epsilon)


def test_loss_hiding_weight_check_full_register():
    rng = np.random.default_rng(36)
    q, l, eta, epsilon = 100_000, 1000, 0.6, 0.02
    freq = loss_hiding_weight_check(q, q, l, abort_policy(eta, epsilon), 20_000, rng)
    exact = binomial_tail_below(580, l, eta)  # (eta - epsilon) * l = 580
    sigma = math.sqrt(exact * (1 - exact) / 20_000)
    assert abs(freq - exact) <= 3 * sigma


def test_loss_hiding_weight_check_at_gamma():
    rng = np.random.default_rng(37)
    q, l, eta, epsilon = 2_000_000, 2000, 0.6, 0.05
    gamma = 1.0 - 3.0 * epsilon / eta  # heaviest register losses can explain
    abort_freq = loss_hiding_weight_check(q, int(gamma * q), l, abort_policy(eta, epsilon), 20_000, rng)
    no_abort_bound = math.exp(-2.0 * (epsilon**2 / eta**2) * l) + math.exp(-2.0 * l * epsilon**2)
    sigma = math.sqrt(max(no_abort_bound * (1 - no_abort_bound), 1e-12) / 20_000)
    assert 1.0 - abort_freq <= no_abort_bound + 3 * sigma


def test_loss_hiding_abort_grows_with_hidden_weight():
    rng = np.random.default_rng(38)
    q, l, eta, epsilon = 10_000, 200, 0.6, 0.05
    freqs = []
    for w in (0.96, 0.92, 0.88):
        freqs.append(loss_hiding_weight_check(q, int(w * q), l, abort_policy(eta, epsilon), 20_000, rng))
    assert freqs[0] < freqs[1] < freqs[2]


def test_loss_hiding_weight_check_guards():
    rng = np.random.default_rng(39)
    policy = abort_policy(0.6, 0.05)
    with pytest.raises(ValueError, match="1 <= l <= 10"):
        loss_hiding_weight_check(10, 10, 0, policy, 10, rng)
    with pytest.raises(ValueError, match="1 <= l <= 10"):
        loss_hiding_weight_check(10, 10, 11, policy, 10, rng)
    for sent in (-1, 11):
        with pytest.raises(ValueError, match="0 <= sent <= 10"):
            loss_hiding_weight_check(10, sent, 5, policy, 10, rng)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            loss_hiding_weight_check(10, 10, 5, policy, trials, rng)
    assert loss_hiding_weight_check(10, 0, 5, policy, 10, rng) == 1.0  # nothing sent: always abort


def test_forge_outcome_serialization(capsys):
    rng = np.random.default_rng(40)
    params = VerdictParameters.from_noise(4, 0.0)
    outcome = run_forging_experiment(
        4, 20_000, 10, builtin_strategy("mixed_substitution"), 3, params, rng
    )
    assert ForgeOutcome.CSV_HEADER == (
        "strategy,n,q,l,trials,accept1_rate,accept2_rate,both_accept_rate,analytic_bound"
    )
    # The CLI's CSV row of the same seeded run.
    assert main(["forge", "--strategy", "mixed_substitution", "--n", "4", "--q", "20000", "--l", "10",
                 "--trials", "3", "--beta", "0.0", "--seed", "40", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == ForgeOutcome.CSV_HEADER
    fields = row.split(",")
    assert fields[0] == "mixed_substitution"
    assert fields[1:5] == ["4", "20000", "10", "3"]
    assert float(fields[7]) == outcome.both_accept_rate
    assert [float(f) for f in fields[5:]] == [
        outcome.accept1_rate, outcome.accept2_rate, outcome.both_accept_rate, outcome.analytic_bound
    ]
    d = outcome.to_dict()
    assert d["trials"] == 3
    assert 0.0 <= d["mean_white_error1"] <= 1.0


def test_forge_layout_holds_no_q_length_state():
    # The layout is a handful of segments whatever q is, and a round moves
    # only its own coin's sampler, by exactly l positions.
    rng = np.random.default_rng(42)
    coin, db = bank_mint(4, 10**9, 2000, rng)
    strategy = builtin_strategy("loss_hiding", fraction=0.25)
    coin1, coin2 = forge_coins(coin, strategy)
    assert len(coin1.segments) == len(coin2.segments) == 5
    assert coin1.masked == range(0, 10**6) and coin2.masked == range(10**6, 2 * 10**6)
    hidden = np.array([2 * 10**6 + coin.T * coin.l, 2 * 10**6 + coin.T * coin.l + 25 * 10**7 - 1])
    assert np.all(kinds_of(coin1.segments, hidden) == PositionKind.ABSENT)
    assert np.all(kinds_of(coin2.segments, hidden) == PositionKind.ABSENT)
    assert kinds_of(coin1.segments, np.array([10**9 - 1]))[0] == PositionKind.FORGED
    params = VerdictParameters.from_noise(4, 0.0)
    holder_verify(coin1, db, params, HonestChannel(0.0), rng)
    assert coin1.sampled == 2000 and (coin2.sampler_key, coin2.cursor, coin2.sampled) == (None, 0, 0)
