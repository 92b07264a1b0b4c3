"""Forging strategies and double-spend experiments.

An attack takes one genuine coin and produces two coins to spend with two
verifiers against the same bank record.  Built-in steps:

- RegisterSplit: mask a 1/1000 fraction of positions from each verifier and
  forward those states untouched to the other one, and treat T*l positions
  as known from auxiliary verification interactions; the receiving coin
  carries perfect replicas there.  Together this saturates the q/500
  replication cap.
- SymmetricClone / MixedSubstitution / HonestNoise: the per-position channel
  applied to the remaining "white" positions.  The cloner errs at e_max(n)
  on both coins, substitution by the maximally mixed state at 1/2, honest
  noise keeps a single (noisy) coin for verifier 1 and sends verifier 2
  nothing.
- LossHiding: do not send a fraction of white positions at all, hoping the
  abort rule blames the detectors.

Every built-in channel produces depolarizing-class states, so the
double-spend Monte Carlo uses the same exact sampling as honest runs.  A
custom channel (state, rng) -> (rho1, rho2) hooks arbitrary per-position
attacks into the general measurement path.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds
from .protocol import (
    Coin,
    HonestChannel,
    PositionKind,
    Verdict,
    VerdictParameters,
    bank_mint,
    holder_verify,
    lossy_fail_bounds,
    honest_fail_bound,
)

SPLIT_FRACTION = 1.0 / 1000.0
REPLICATION_CAP = 1.0 / 500.0


@dataclass(frozen=True)
class RegisterSplit:
    """Mask a fraction from each verifier, forward the state to the other."""

    fraction: float = SPLIT_FRACTION


@dataclass(frozen=True)
class SymmetricClone:
    """Send each verifier one output of the symmetrized cloner."""


@dataclass(frozen=True)
class MixedSubstitution:
    """Send both verifiers maximally mixed states."""


@dataclass(frozen=True)
class HonestNoise:
    """No forging: the original coin, through depolarizing noise, to one verifier."""

    beta: float = 0.0


@dataclass(frozen=True)
class LossHiding:
    """Withhold a fraction of white positions from both verifiers."""

    fraction: float = 0.0


@dataclass(frozen=True)
class CustomChannel:
    """Plugin point: channel(state, rng) -> (rho1, rho2) per white position."""

    channel: Callable
    pair_error: tuple[float, float] = (0.5, 0.5)


CHANNEL_STEPS = (SymmetricClone, MixedSubstitution, HonestNoise, CustomChannel)


@dataclass(frozen=True)
class AttackStrategy:
    """An ordered composition of attack steps."""

    steps: tuple = ()
    name: str = ""

    def __post_init__(self):
        channels = [s for s in self.steps if isinstance(s, CHANNEL_STEPS)]
        if len(channels) > 1:
            raise ValueError("at most one channel step per strategy")
        for s in self.steps:
            if isinstance(s, (RegisterSplit, LossHiding)) and not 0.0 <= s.fraction <= 1.0:
                raise ValueError(f"fraction must be in [0, 1], got {s.fraction}")
            if isinstance(s, HonestNoise) and not 0.0 <= s.beta <= 0.5:
                raise ValueError(f"beta must be in [0, 1/2], got {s.beta}")

    def channel_step(self):
        for s in self.steps:
            if isinstance(s, CHANNEL_STEPS):
                return s
        return None

    def split_step(self) -> RegisterSplit | None:
        for s in self.steps:
            if isinstance(s, RegisterSplit):
                return s
        return None

    def hiding_step(self) -> LossHiding | None:
        for s in self.steps:
            if isinstance(s, LossHiding):
                return s
        return None

    def white_pair_error(self, n: int) -> tuple[float, float]:
        """Analytic per-verifier error rates on white positions.

        A position a verifier never receives counts as error rate 1.
        """
        step = self.channel_step()
        if step is None:
            return (0.0, 1.0)
        if isinstance(step, SymmetricClone):
            e = bounds.e_max(n)
            return (e, e)
        if isinstance(step, MixedSubstitution):
            return (0.5, 0.5)
        if isinstance(step, HonestNoise):
            return (step.beta, 1.0)
        return step.pair_error


def builtin_strategy(name: str, beta: float = 0.0, fraction: float = 0.0) -> AttackStrategy:
    """Build one of the named strategies used by the CLI and the tests."""
    if name == "honest_noise":
        return AttackStrategy((HonestNoise(beta),), name=name)
    if name == "register_split":
        return AttackStrategy((RegisterSplit(),), name=name)
    if name == "symmetric_clone":
        return AttackStrategy((RegisterSplit(), SymmetricClone()), name=name)
    if name == "mixed_substitution":
        return AttackStrategy((RegisterSplit(), MixedSubstitution()), name=name)
    if name == "loss_hiding":
        return AttackStrategy((RegisterSplit(), LossHiding(fraction), SymmetricClone()), name=name)
    raise ValueError(f"unknown strategy {name!r}")


def check_accounting(strategy: AttackStrategy, q: int, l: int, T: int) -> None:
    """Enforce the replication cap: each coin may hold perfect copies of at
    most q/500 positions (opposite split side plus auxiliary knowledge)."""
    split = strategy.split_step()
    split_count = int(split.fraction * q) if split else 0
    aux_count = T * l if split else 0
    if split_count + aux_count > math.ceil(REPLICATION_CAP * q):
        raise ValueError(
            f"strategy replicates {split_count + aux_count} positions per coin, "
            f"cap is {math.ceil(REPLICATION_CAP * q)} = q/500"
        )
    hiding = strategy.hiding_step()
    hidden = int(hiding.fraction * q) if hiding else 0
    if 2 * split_count + aux_count + hidden > q:
        raise ValueError("strategy fractions exceed the register size")


def forge_coins(coin: Coin, strategy: AttackStrategy) -> tuple[Coin, Coin]:
    """Split one genuine coin into two coins for a double-spend attempt.

    The input coin must be fresh (all positions genuine and unused).  The
    returned coins share the bank record and the coin id.

    The register is laid out in contiguous segments: the side masked from
    verifier 1, the side masked from verifier 2, the T*l known positions,
    the hidden positions, then the white ones.  A verifier samples uniformly
    from the positions it is offered and the secrets are i.i.d., so this
    layout is equal in distribution to a random placement of the segments.
    """
    if not coin.all_genuine() or coin.consumed:
        raise ValueError("forging expects a fresh, fully genuine coin")
    check_accounting(strategy, coin.q, coin.l, coin.T)
    split = strategy.split_step()
    m = int(split.fraction * coin.q) if split else 0
    known = coin.T * coin.l if split else 0
    hiding = strategy.hiding_step()
    hidden = int(hiding.fraction * coin.q) if hiding else 0

    step = strategy.channel_step()
    white1 = PositionKind.GENUINE if step is None else PositionKind.FORGED
    one_state = step is None or isinstance(step, HonestNoise)  # verifier 1 keeps it
    white2 = PositionKind.ABSENT if one_state else PositionKind.FORGED
    err1, err2 = strategy.white_pair_error(coin.n)
    chan1 = chan2 = None
    if isinstance(step, CustomChannel):
        chan1 = lambda state, r: step.channel(state, r)[0]
        chan2 = lambda state, r: step.channel(state, r)[1]

    # (length, kind for verifier 1, kind for verifier 2).  A masked side's
    # physical state goes to the other verifier intact.
    layout = [
        (m, PositionKind.ABSENT, PositionKind.REPLICA),
        (m, PositionKind.REPLICA, PositionKind.ABSENT),
        (known, PositionKind.REPLICA, PositionKind.REPLICA),
        (hidden, PositionKind.ABSENT, PositionKind.ABSENT),
        (coin.q - 2 * m - known - hidden, white1, white2),
    ]
    stops = np.cumsum([length for length, _, _ in layout]).tolist()
    segments1 = tuple((stop, k1) for stop, (length, k1, _) in zip(stops, layout) if length)
    segments2 = tuple((stop, k2) for stop, (length, _, k2) in zip(stops, layout) if length)
    same = dict(coin_id=coin.coin_id, n=coin.n, q=coin.q, l=coin.l, T=coin.T)
    coin1 = Coin(**same, segments=segments1, masked=range(0, m), forged_error=err1, custom_channel=chan1)
    coin2 = Coin(**same, segments=segments2, masked=range(m, 2 * m), forged_error=err2, custom_channel=chan2)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # nanmean of a never-scored side
            return {
                "strategy": self.strategy, "n": self.n, "q": self.q, "l": self.l,
                "trials": self.trials,
                "accept1_rate": self.accept1_rate,
                "accept2_rate": self.accept2_rate,
                "both_accept_rate": self.both_accept_rate,
                "analytic_bound": self.analytic_bound,
                "mean_white_error1": float(np.nanmean(self.observed_error1)),
                "mean_white_error2": float(np.nanmean(self.observed_error2)),
                "mean_overall_error1": float(np.nanmean(self.overall_error1)),
                "mean_overall_error2": float(np.nanmean(self.overall_error2)),
            }

    CSV_HEADER = "strategy,n,q,l,trials,accept1_rate,accept2_rate,both_accept_rate,analytic_bound"

    def csv_row(self) -> str:
        return (
            f"{self.strategy},{self.n},{self.q},{self.l},{self.trials},"
            f"{self.accept1_rate!r},{self.accept2_rate!r},{self.both_accept_rate!r},"
            f"{self.analytic_bound!r}"
        )


def _transcript_errors(coin, outcome) -> tuple[float, float]:
    """White-position and overall error frequencies of one round, from the
    error flags its simulated measurement drew."""
    present = outcome.transcript.answer >= 0
    if not np.any(present):
        return (math.nan, math.nan)
    wrong = outcome.errors[present]
    overall = float(np.mean(wrong))
    kinds = coin.kind_of(outcome.transcript.positions[present])
    white = (kinds == PositionKind.FORGED) | (kinds == PositionKind.GENUINE)
    white_err = float(np.mean(wrong[white])) if np.any(white) else math.nan
    return (white_err, overall)


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
    for the second one to be judged on its merits.
    """
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
    if params.eta == 1.0 and params.epsilon == 0.0:
        bound = honest_fail_bound(l, params.delta)
    else:
        bound = lossy_fail_bounds(l, params.delta, params.epsilon, params.eta).forgery
    return ForgeOutcome(
        strategy=strategy.name or "custom", n=n, q=q, l=l, trials=trials,
        accept1=accept1, accept2=accept2,
        observed_error1=werr1, observed_error2=werr2,
        overall_error1=oerr1, overall_error2=oerr2,
        analytic_bound=bound,
    )


def loss_hiding_weight_check(
    sent_flags: np.ndarray, l: int, eta: float, epsilon: float, trials: int, rng: np.random.Generator
) -> float:
    """Abort frequency when only the flagged positions were actually sent.

    Exact two-stage sampling: the number of sent positions in a uniform
    l-sample is hypergeometric, and each sent position independently yields
    an outcome with probability eta.  Returns the empirical frequency of
    l' < (eta - epsilon) * l over `trials` rounds.
    """
    sent_flags = np.asarray(sent_flags)
    q = sent_flags.size
    weight = int(np.count_nonzero(sent_flags))
    if not 1 <= l <= q:
        raise ValueError(f"need 1 <= l <= {q}, got {l}")
    sent_in_sample = rng.hypergeometric(weight, q - weight, l, size=trials)
    outcomes = rng.binomial(sent_in_sample, eta)
    return float(np.mean(outcomes < (eta - epsilon) * l))
