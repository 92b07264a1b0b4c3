"""Forging strategies and double-spend experiments.

An attack takes one genuine coin and produces two coins to spend with two
verifiers against the same bank record.  A strategy is one AttackStrategy
record of the choices an attack makes:

- split: mask a 1/1000 fraction of positions from each verifier and forward
  those states untouched to the other one, and treat T*l positions as known
  from auxiliary verification interactions; the receiving coin carries
  perfect replicas there.  Together this saturates the q/500 replication
  cap.
- hidden: do not send this fraction of positions at all, hoping the abort
  rule blames the detectors.
- channel: what the remaining "white" positions carry, a CHANNELS row.  The
  symmetrized cloner errs at e_max(n) on both coins, substitution by the
  maximally mixed state at 1/2, honest noise keeps a single (noisy) coin for
  verifier 1 and sends verifier 2 nothing.  Without a channel verifier 1
  keeps the intact white states and verifier 2 gets nothing there.
- beta: the honest channel's noise, which only honest_noise reads.

Every channel produces depolarizing-class states: a forged position's
measurement errs at one rate per coin, independently of the pair, so the
double-spend Monte Carlo uses the same exact sampling as honest runs.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import bounds
from .bounds import COIN_BUDGET_DIVISOR
from .protocol import (
    Coin,
    HonestChannel,
    PositionKind,
    Verdict,
    VerdictParameters,
    bank_mint,
    holder_verify,
)

SPLIT_FRACTION = 1.0 / COIN_BUDGET_DIVISOR
REPLICATION_CAP = 2.0 / COIN_BUDGET_DIVISOR

# The white-position channels: name -> (n, beta) -> (e1, e2), the pair that
# AttackStrategy.white_pair_error returns.
CHANNELS = {
    "symmetric_clone": lambda n, beta: (bounds.e_max(n), bounds.e_max(n)),
    "mixed_substitution": lambda n, beta: (0.5, 0.5),
    "honest_noise": lambda n, beta: (beta, 1.0),
}


@dataclass(frozen=True)
class AttackStrategy:
    """A forging strategy: whether the register is split, the fraction of
    positions hidden from both verifiers, the white positions' channel (a
    CHANNELS key, or None for the intact coin to verifier 1 alone) and the
    honest channel's beta."""

    name: str
    split: bool = False
    hidden: float = 0.0
    channel: str | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.channel is not None and self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if not 0.0 <= self.hidden <= 1.0:
            raise ValueError(f"hidden fraction must be in [0, 1], got {self.hidden}")
        HonestChannel(self.beta)  # refuses a beta outside [0, 1/2]

    def white_pair_error(self, n: int) -> tuple[float, float]:
        """Exact per-verifier error rates on white positions.

        A position a verifier never receives counts as error rate 1.
        """
        if self.channel is None:
            return (0.0, 1.0)
        return CHANNELS[self.channel](n, self.beta)


# The named strategies of the CLI and the tests: name -> fields(beta, fraction).
BUILTIN_STRATEGIES = {
    "honest_noise": lambda beta, fraction: dict(channel="honest_noise", beta=beta),
    "register_split": lambda beta, fraction: dict(split=True),
    "symmetric_clone": lambda beta, fraction: dict(split=True, channel="symmetric_clone"),
    "mixed_substitution": lambda beta, fraction: dict(split=True, channel="mixed_substitution"),
    "loss_hiding": lambda beta, fraction: dict(split=True, hidden=fraction, channel="symmetric_clone"),
}


def builtin_strategy(name: str, beta: float = 0.0, fraction: float = 0.0) -> AttackStrategy:
    """Build one of the BUILTIN_STRATEGIES."""
    if name not in BUILTIN_STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    return AttackStrategy(name, **BUILTIN_STRATEGIES[name](beta, fraction))


def check_accounting(strategy: AttackStrategy, q: int, l: int, T: int) -> tuple[int, int, int]:
    """Enforce the replication cap: each coin may hold perfect copies of at
    most q/500 positions (opposite split side plus auxiliary knowledge).

    Returns the register's layout counts (m, known, hidden): the positions
    masked from each verifier, the T*l known ones and the hidden ones.
    """
    split_count = int(SPLIT_FRACTION * q) if strategy.split else 0
    aux_count = T * l if strategy.split else 0
    if split_count + aux_count > math.ceil(REPLICATION_CAP * q):
        raise ValueError(
            f"strategy replicates {split_count + aux_count} positions per coin, "
            f"cap is {math.ceil(REPLICATION_CAP * q)} = q/500"
        )
    hidden = int(strategy.hidden * q)
    if 2 * split_count + aux_count + hidden > q:
        raise ValueError("strategy fractions exceed the register size")
    return split_count, aux_count, hidden


def forge_coins(coin: Coin, strategy: AttackStrategy) -> tuple[Coin, Coin]:
    """Split one genuine coin into two coins for a double-spend attempt.

    The input coin must be fresh (all positions genuine, and its sampler
    never read).  The returned coins share the bank record and the coin id,
    and each draws its own sampler key at its first round.

    The register is laid out in contiguous segments: the side masked from
    verifier 1, the side masked from verifier 2, the T*l known positions,
    the hidden positions, then the white ones.  A verifier samples uniformly
    from the positions it is offered and the secrets are i.i.d., so this
    layout is equal in distribution to a random placement of the segments.
    """
    if not coin.all_genuine() or (coin.sampler_key, coin.cursor, coin.sampled) != (None, 0, 0):
        raise ValueError("forging expects a fresh, fully genuine coin")
    m, known, hidden = check_accounting(strategy, coin.q, coin.l, coin.T)

    err1, err2 = strategy.white_pair_error(coin.n)
    white1 = PositionKind.GENUINE if strategy.channel is None else PositionKind.FORGED
    # Error rate 1 marks white positions verifier 2 never receives.
    white2 = PositionKind.ABSENT if err2 == 1.0 else PositionKind.FORGED

    # (length, kind for verifier 1, kind for verifier 2).  A masked side's
    # physical state goes to the other verifier intact.
    layout = [
        (m, PositionKind.ABSENT, PositionKind.REPLICA),
        (m, PositionKind.REPLICA, PositionKind.ABSENT),
        (known, PositionKind.REPLICA, PositionKind.REPLICA),
        (hidden, PositionKind.ABSENT, PositionKind.ABSENT),
        (coin.q - 2 * m - known - hidden, white1, white2),
    ]
    stops = list(accumulate(length for length, _, _ in layout))
    segments1 = tuple((stop, k1) for stop, (length, k1, _) in zip(stops, layout) if length)
    segments2 = tuple((stop, k2) for stop, (length, _, k2) in zip(stops, layout) if length)
    same = dict(coin_id=coin.coin_id, n=coin.n, q=coin.q, l=coin.l, T=coin.T)
    coin1 = Coin(**same, segments=segments1, masked=range(0, m), forged_error=err1)
    coin2 = Coin(**same, segments=segments2, masked=range(m, 2 * m), forged_error=err2)
    return coin1, coin2


@dataclass
class ForgeOutcome:
    """Per-trial records and aggregates of a double-spend experiment."""

    strategy: str
    n: int
    q: int
    l: int
    trials: int
    accept1: np.ndarray
    accept2: np.ndarray
    observed_error1: np.ndarray  # white-position error frequency, nan if none sampled
    observed_error2: np.ndarray
    overall_error1: np.ndarray   # over all scored positions, replicas included
    overall_error2: np.ndarray
    analytic_bound: float

    @property
    def accept1_rate(self) -> float:
        return float(np.mean(self.accept1))

    @property
    def accept2_rate(self) -> float:
        return float(np.mean(self.accept2))

    @property
    def both_accept_rate(self) -> float:
        return float(np.mean(self.accept1 & self.accept2))

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy, "n": self.n, "q": self.q, "l": self.l,
            "trials": self.trials,
            "accept1_rate": self.accept1_rate,
            "accept2_rate": self.accept2_rate,
            "both_accept_rate": self.both_accept_rate,
            "analytic_bound": self.analytic_bound,
            "mean_white_error1": _scored_mean(self.observed_error1),
            "mean_white_error2": _scored_mean(self.observed_error2),
            "mean_overall_error1": _scored_mean(self.overall_error1),
            "mean_overall_error2": _scored_mean(self.overall_error2),
        }

    CSV_HEADER = "strategy,n,q,l,trials,accept1_rate,accept2_rate,both_accept_rate,analytic_bound"


def _scored_mean(errors: np.ndarray) -> float | None:
    """Mean of a per-trial error frequency over the trials that scored it
    (not NaN); None, JSON null, when no trial did."""
    scored = np.count_nonzero(~np.isnan(errors))
    return float(np.nansum(errors) / scored) if scored else None


def _transcript_errors(coin, outcome) -> tuple[float, float]:
    """White-position and overall error frequencies of one round, from the
    error flags its simulated measurement drew (False where lost)."""
    present = outcome.transcript.answer >= 0
    l_prime = np.count_nonzero(present)
    if not l_prime:
        return (math.nan, math.nan)
    # An absent position is never present, so the present white ones are
    # the present ones that are not replicas.
    white = (coin.kind_of(outcome.transcript.positions) != PositionKind.REPLICA.value) & present
    white_count = np.count_nonzero(white)
    white_err = np.count_nonzero(outcome.errors & white) / white_count if white_count else math.nan
    return (white_err, np.count_nonzero(outcome.errors) / l_prime)


def run_forging_experiment(
    n: int,
    q: int,
    l: int,
    strategy: AttackStrategy,
    trials: int,
    params: VerdictParameters,
    rng: np.random.Generator,
) -> ForgeOutcome:
    """Mint, forge, and verify both halves `trials` times against fresh banks.

    Both verifications charge the same bank record, so q must allow T >= 2
    for the second one to be judged on its merits.  Raises ValueError unless
    trials >= 1: the report's rates average over the trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    clean = HonestChannel(0.0)
    accept1 = np.zeros(trials, dtype=bool)
    accept2 = np.zeros(trials, dtype=bool)
    werr1 = np.empty(trials)
    werr2 = np.empty(trials)
    oerr1 = np.empty(trials)
    oerr2 = np.empty(trials)
    for t in range(trials):
        coin, db = bank_mint(n, q, l, rng)
        coin1, coin2 = forge_coins(coin, strategy)
        out1 = holder_verify(coin1, db, params, clean, rng)
        out2 = holder_verify(coin2, db, params, clean, rng)
        accept1[t] = out1.verdict is Verdict.VALID
        accept2[t] = out2.verdict is Verdict.VALID
        werr1[t], oerr1[t] = _transcript_errors(coin1, out1)
        werr2[t], oerr2[t] = _transcript_errors(coin2, out2)
    return ForgeOutcome(
        strategy=strategy.name, n=n, q=q, l=l, trials=trials,
        accept1=accept1, accept2=accept2,
        observed_error1=werr1, observed_error2=werr2,
        overall_error1=oerr1, overall_error2=oerr2,
        analytic_bound=params.forgery_bound(l),
    )


def loss_hiding_weight_check(
    q: int, sent: int, l: int, params: VerdictParameters, trials: int, rng: np.random.Generator
) -> float:
    """Abort frequency when only `sent` of a register's q positions were
    actually sent.

    Exact two-stage sampling: the number of sent positions in a uniform
    l-sample is hypergeometric, and each sent position independently yields
    an outcome with probability params.eta.  Returns the empirical frequency
    of the policy's abort, l' < min_outcomes * l, over `trials` rounds.
    Raises ValueError unless 0 <= sent <= q, 1 <= l <= q and trials >= 1.
    """
    if not 0 <= sent <= q:
        raise ValueError(f"need 0 <= sent <= {q}, got {sent}")
    if not 1 <= l <= q:
        raise ValueError(f"need 1 <= l <= {q}, got {l}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sent_in_sample = rng.hypergeometric(sent, q - sent, l, size=trials)
    outcomes = rng.binomial(sent_in_sample, params.eta)
    return float(np.mean(outcomes < params.min_outcomes * l))
