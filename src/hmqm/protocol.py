"""Coin lifecycle: minting, holder-side verification, bank-side checking.

A coin is q positions, each hiding an n-bit secret known only to the bank,
which stores a 16-byte key per coin and derives secrets from it on demand
with keyed BLAKE2b, a pseudorandom function of the position.
The holder verifies by sampling l unused positions, measuring each in a
random matching basis, and sending the claimed parities to the bank, which
accepts when the correct fraction clears c - delta.  The bank allows at most
T = q // (1000 l) checks per coin.  All sampling is exact: outcomes are drawn
from closed-form distributions, never from simulated state vectors.  No
state of a coin or a round grows with q.

Positions are indexed from 0.  Node indices inside measurement outcomes are
1-based, matching the matching convention.

Randomness discipline (load-bearing for wire equivalence): a verification
draws, in order, the position sample, the matching indices, and a single
63-bit measurement seed; outcomes come from a fresh generator seeded with it
inside `measure_positions`.  A remote client makes the same draws and ships
the seed, so the service reproduces outcomes bit for bit.
"""

import hashlib
import math
from dataclasses import dataclass, field
from enum import IntEnum, Enum
from functools import lru_cache
from typing import Callable
import json

import numpy as np

from . import bounds
from .matchings import DisjointMatchingSet, build_disjoint_set
from .qrg import BitString, hidden_matching_state, measure_matching

COIN_BUDGET_DIVISOR = 1000  # T = q // (1000 l)
KEY_BYTES = 16
# Largest n a coin may have: a round on a coin builds O(n^2) matching tables.
MAX_N = 256


class ProtocolError(Exception):
    pass


class InsufficientPositionsError(ProtocolError):
    """Fewer unused positions than a verification needs; not a verdict."""


class UnknownCoinError(ProtocolError):
    pass


class InfeasiblePlanError(ProtocolError):
    pass


class PositionKind(IntEnum):
    GENUINE = 0  # reference to the bank's state, subject to channel noise
    REPLICA = 1  # perfect adversary-known copy, error-free
    FORGED = 2   # output of the coin's forge channel
    ABSENT = 3   # nothing there; measuring it never yields an outcome


class Verdict(Enum):
    VALID = "valid"
    INVALID = "invalid"
    ABORTED = "aborted"


@dataclass(frozen=True)
class HonestChannel:
    """Depolarizing transmission noise: each genuine measurement errs with
    probability beta."""

    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError(f"beta must be in [0, 1/2], got {self.beta}")


@dataclass
class Coin:
    """Holder-side view of a coin: the kind of each position and the
    positions already consumed.

    segments is a tuple of (stop, kind) pairs with increasing stops, the
    last one q: positions [previous stop, stop) have that kind.  Positions
    in `masked` are never offered to the sampler (a forger withheld them
    from this verifier).  `consumed` holds the positions earlier rounds
    sampled, so it grows by l per round, whatever q is.

    forged_error is the exact per-measurement error rate of forged
    positions (all built-in attack channels produce states whose
    measurement statistics are uniform over pairs with an independent
    error bit).  custom_channel, when set, overrides it: a callable
    (PureState, rng) -> DensityMatrix giving this coin's marginal state,
    measured through the general exact path.
    """

    coin_id: str
    n: int
    q: int
    l: int
    T: int
    segments: tuple[tuple[int, PositionKind], ...]
    masked: range = range(0)
    consumed: set[int] = field(default_factory=set)
    forged_error: float | None = None
    custom_channel: Callable | None = None

    @classmethod
    def fresh(cls, coin_id: str, n: int, q: int, l: int, T: int) -> "Coin":
        return cls(coin_id=coin_id, n=n, q=q, l=l, T=T, segments=((q, PositionKind.GENUINE),))

    def kind_of(self, positions: np.ndarray) -> np.ndarray:
        """PositionKind of each position, as a uint8 array."""
        stops = [stop for stop, _ in self.segments]
        kinds = np.array([kind for _, kind in self.segments], dtype=np.uint8)
        return kinds[np.searchsorted(stops, positions, side="right")]

    def unused(self) -> int:
        """Positions a round may still sample."""
        return self.q - len(self.masked) - len(self.consumed)

    def all_genuine(self) -> bool:
        return all(kind == PositionKind.GENUINE for _, kind in self.segments)


@dataclass
class BankDatabase:
    """Bank-side record: the key the secrets derive from, and the check counter."""

    coin_id: str
    n: int
    q: int
    l: int
    T: int
    key: bytes
    s: int = 0


@dataclass(frozen=True)
class VerdictParameters:
    """Acceptance threshold data: accept when correct > l' * (c - delta)."""

    c: float
    delta: float
    eta: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.5 < self.c <= 1.0:
            raise ValueError(f"c must be in (1/2, 1], got {self.c}")
        if self.delta <= 0.0 or self.c - self.delta <= 0.5:
            raise ValueError(f"need delta > 0 and c - delta > 1/2, got c={self.c}, delta={self.delta}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @classmethod
    def from_noise(cls, n: int, beta: float, eta: float = 1.0, epsilon: float = 0.0) -> "VerdictParameters":
        """Standard policy: c = 1 - beta, delta = (error floor - beta) / 2."""
        floor = adversary_error_floor(n, eta, epsilon)
        if floor <= beta:
            raise InfeasiblePlanError(
                f"channel noise beta={beta} is not below the adversary error floor "
                f"{floor:.6f} (gap {floor - beta:.6f}); no threshold separates honest from forged"
            )
        return cls(c=1.0 - beta, delta=(floor - beta) / 2.0, eta=eta, epsilon=epsilon)

    @property
    def min_outcomes(self) -> float:
        """Abort threshold on the outcome count: (eta - epsilon) * l, scaled by l later."""
        return self.eta - self.epsilon


def adversary_error_floor(n: int, eta: float = 1.0, epsilon: float = 0.0) -> float:
    """Forger's minimum per-verifier error rate at the given loss budget."""
    base = bounds.e_min(n)
    if eta == 1.0 and epsilon == 0.0:
        return base
    return bounds.lossy_e_min(base, epsilon, eta)


@dataclass
class VerificationTranscript:
    """What the holder sends the bank: positions, bases, claimed parities.

    Stored as flat arrays for speed.  answer == -1 marks a lost measurement
    (no outcome); pair_i/pair_j are 1-based node indices, 0 when lost.
    """

    coin_id: str
    l: int
    positions: np.ndarray
    alpha: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    answer: np.ndarray

    @property
    def l_prime(self) -> int:
        return int(np.sum(self.answer >= 0))

    def to_json(self) -> str:
        triplets = []
        for idx in range(len(self.positions)):
            if self.answer[idx] < 0:
                outcome = None
            else:
                outcome = {
                    "i": int(self.pair_i[idx]),
                    "j": int(self.pair_j[idx]),
                    "b": int(self.answer[idx]),
                }
            triplets.append({"i": int(self.positions[idx]), "alpha": int(self.alpha[idx]), "outcome": outcome})
        return json.dumps({"coin_id": self.coin_id, "l": self.l, "triplets": triplets}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationTranscript":
        obj = json.loads(text)
        return cls.from_dict(obj)

    @classmethod
    def from_dict(cls, obj: dict) -> "VerificationTranscript":
        triplets = obj["triplets"]
        k = len(triplets)
        positions = np.zeros(k, dtype=np.int64)
        alpha = np.zeros(k, dtype=np.int64)
        pair_i = np.zeros(k, dtype=np.int64)
        pair_j = np.zeros(k, dtype=np.int64)
        answer = np.full(k, -1, dtype=np.int8)
        for idx, t in enumerate(triplets):
            positions[idx] = t["i"]
            alpha[idx] = t["alpha"]
            out = t["outcome"]
            if out is not None:
                pair_i[idx] = out["i"]
                pair_j[idx] = out["j"]
                answer[idx] = out["b"]
        return cls(
            coin_id=obj["coin_id"], l=int(obj["l"]), positions=positions,
            alpha=alpha, pair_i=pair_i, pair_j=pair_j, answer=answer,
        )


@dataclass(frozen=True)
class CheckResult:
    """Bank verdict and the numbers behind it."""

    valid: bool
    s: int
    T: int
    correct_count: int
    l_prime: int
    threshold: float
    code: str | None = None

    def to_dict(self) -> dict:
        return {
            "valid": self.valid, "s": self.s, "T": self.T,
            "correct_count": self.correct_count, "l_prime": self.l_prime,
            "threshold": self.threshold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class VerifyOutcome:
    """Holder-side result of one verification round."""

    verdict: Verdict
    transcript: VerificationTranscript
    check: CheckResult | None  # None when the holder aborted
    # Per position: did the measurement err?  False where the outcome was
    # lost.  Known to the in-process simulation only (None over the wire).
    errors: np.ndarray | None


@lru_cache(maxsize=None)
def matching_set(n: int) -> DisjointMatchingSet:
    return build_disjoint_set(n)


@lru_cache(maxsize=None)
def _pair_to_alpha(n: int) -> np.ndarray:
    """Lookup (i, j) -> matching index, 0 where no matching contains the pair."""
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    for alpha_idx, m in enumerate(matching_set(n).matchings, start=1):
        for i, j in m.pairs:
            table[i, j] = alpha_idx
            table[j, i] = alpha_idx
    return table


def secret_bits(key: bytes, positions: np.ndarray, n: int) -> np.ndarray:
    """The n secret bits of each position, shape (len(positions), n), uint8.

    Position i's secret is the first n bits of BLAKE2b keyed with `key`,
    with a digest of ceil(n/8) bytes, over i as 8 little-endian bytes: a
    keyed pseudorandom function of the position, so a round costs what it
    samples and the bank stores only the key.  The key is absorbed once per
    call; each position then costs one copy of that state and one
    compression.
    """
    width = (n + 7) // 8
    keyed = hashlib.blake2b(key=key, digest_size=width).copy
    digests = []
    for p in np.asarray(positions).tolist():
        h = keyed()
        h.update(p.to_bytes(8, "little"))
        digests.append(h.digest())
    raw = b"".join(digests)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width), axis=1, count=n)


def pair_parities(key: bytes, n: int, positions: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray) -> np.ndarray:
    """x_i XOR x_j of each position's secret, for 1-based node pairs."""
    bits = secret_bits(key, positions, n)
    rows = np.arange(len(bits))
    return bits[rows, pair_i - 1] ^ bits[rows, pair_j - 1]


def coin_budget(n: int, q: int, l: int) -> int:
    """The check budget T = q // (1000 l) of a coin of this shape.

    The one place a coin's shape is judged, at mint and at journal replay:
    raises ValueError unless n is even and in [2, MAX_N], 1 <= l <= q <
    2^63 (positions are int64), and T >= 1 (a coin that can be checked).
    """
    if n < 2 or n % 2 != 0 or n > MAX_N:
        raise ValueError(f"n must be even and in [2, {MAX_N}], got {n}")
    if l < 1 or q < l or q >= 2**63:
        raise ValueError(f"need 2^63 > q >= l >= 1, got q={q}, l={l}")
    T = q // (COIN_BUDGET_DIVISOR * l)
    if T == 0:
        raise ValueError(
            f"q={q} is below {COIN_BUDGET_DIVISOR * l} = 1000*l; the check budget T would be 0"
        )
    return T


def bank_mint(n: int, q: int, l: int, rng: np.random.Generator) -> tuple[Coin, BankDatabase]:
    """Mint a coin: a fresh secret key, an unused register, check budget T.

    Raises ValueError for a shape `coin_budget` refuses.
    """
    T = coin_budget(n, q, l)
    key = rng.bytes(KEY_BYTES)
    coin_id = rng.bytes(16).hex()
    coin = Coin.fresh(coin_id, n, q, l, T)
    db = BankDatabase(coin_id=coin_id, n=n, q=q, l=l, T=T, key=key)
    return coin, db


def measure_positions(
    key: bytes,
    coin: Coin,
    positions: np.ndarray,
    alphas: np.ndarray,
    beta: float,
    eta: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measure the given coin positions in the given matching bases.

    Returns (pair_i, pair_j, answer, errors) with answer == -1 for lost
    outcomes; errors flags the outcomes whose bit differs from the secret's
    parity on the returned pair, and is False where the outcome was lost.
    Exact sampling: every built-in position kind yields a state of the form
    w * phi_x + (1 - w) * I/n, whose outcome distribution is a uniform pair
    of the matching plus an independent error bit (genuine: beta, replica: 0,
    forged: the coin's forged_error).  Detector loss hits every present
    position independently with probability 1 - eta.  Custom-channel
    positions go through the general density-matrix path.
    """
    n = coin.n
    k = len(positions)
    pairs_arr = matching_set(n).pairs_array
    u_loss = rng.random(k)
    pair_pick = rng.integers(0, n // 2, size=k)
    u_err = rng.random(k)

    kinds = coin.kind_of(positions)
    err_prob = np.empty(k)
    err_prob[kinds == PositionKind.GENUINE] = beta
    err_prob[kinds == PositionKind.REPLICA] = 0.0
    if np.any(kinds == PositionKind.FORGED):
        if coin.forged_error is None and coin.custom_channel is None:
            raise ValueError("coin has forged positions but no forge channel")
        err_prob[kinds == PositionKind.FORGED] = coin.forged_error if coin.forged_error is not None else 0.0

    nodes = pairs_arr[alphas - 1, pair_pick]
    bits = secret_bits(key, positions, n)
    rows = np.arange(k)
    parity = bits[rows, nodes[:, 0] - 1] ^ bits[rows, nodes[:, 1] - 1]
    errors = u_err < err_prob
    answer = (parity ^ errors).astype(np.int8)
    present = (u_loss < eta) & (kinds != PositionKind.ABSENT)

    if coin.custom_channel is not None:
        mset = matching_set(n)
        for idx in np.flatnonzero(present & (kinds == PositionKind.FORGED)):
            x = BitString(tuple(bits[idx].tolist()))
            rho = coin.custom_channel(hidden_matching_state(x), rng)
            out = measure_matching(rho, mset.matching(int(alphas[idx])), rng)
            nodes[idx, 0], nodes[idx, 1] = out.i, out.j
            answer[idx] = out.b
            errors[idx] = out.b != bits[idx, out.i - 1] ^ bits[idx, out.j - 1]

    pair_i = np.where(present, nodes[:, 0], 0)
    pair_j = np.where(present, nodes[:, 1], 0)
    answer = np.where(present, answer, np.int8(-1)).astype(np.int8)
    return pair_i, pair_j, answer, errors & present


def holder_verify(
    coin: Coin,
    db: BankDatabase,
    params: VerdictParameters,
    channel: HonestChannel,
    rng: np.random.Generator,
) -> VerifyOutcome:
    """One verification round: sample, measure, abort or submit to the bank.

    The sample is marked consumed before anything is measured, so positions
    are consumed even when the round aborts.  With fewer than l unused
    positions the round cannot start at all (InsufficientPositionsError, not
    a verdict).
    """
    sample, alphas, measure_seed = _plan_round(coin, rng)
    pair_i, pair_j, answer, errors = measure_positions(
        db.key, coin, sample, alphas, channel.beta, params.eta,
        np.random.default_rng(measure_seed),
    )
    transcript = VerificationTranscript(
        coin_id=coin.coin_id, l=coin.l, positions=sample, alpha=alphas,
        pair_i=pair_i, pair_j=pair_j, answer=answer,
    )
    if transcript.l_prime < params.min_outcomes * coin.l:
        return VerifyOutcome(Verdict.ABORTED, transcript, None, errors)
    check = bank_check(db, transcript, params)
    return VerifyOutcome(Verdict.VALID if check.valid else Verdict.INVALID, transcript, check, errors)


def _plan_round(coin: Coin, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw the sample, the bases and the measurement seed, consuming the
    sample: uniform draws from [0, q) minus the masked range, rejecting
    consumed positions."""
    if coin.unused() < coin.l:
        raise InsufficientPositionsError(
            f"coin has {coin.unused()} unused positions, verification needs {coin.l}"
        )
    sample: list[int] = []
    while len(sample) < coin.l:
        for v in rng.integers(0, coin.q - len(coin.masked), size=coin.l - len(sample)).tolist():
            if v >= coin.masked.start:
                v += len(coin.masked)
            if v not in coin.consumed:
                coin.consumed.add(v)
                sample.append(v)
    alphas = rng.integers(1, coin.n, size=coin.l)
    measure_seed = int(rng.integers(0, 2**63))
    return np.array(sample, dtype=np.int64), alphas, measure_seed


def bank_check(db: BankDatabase, transcript: VerificationTranscript, params: VerdictParameters) -> CheckResult:
    """Bank-side verdict on a transcript.

    Valid iff the count of correct parities strictly exceeds l' * (c - delta),
    with lost outcomes excluded from both sides.  The check counter s
    advances once per call and saturates at T; checks after exhaustion are
    Invalid with code "coin_exhausted".  Structural violations (duplicate
    positions, out-of-range indices, a pair not in the claimed matching)
    consume a check and yield Invalid.
    """
    if transcript.coin_id != db.coin_id:
        raise UnknownCoinError(f"no coin {transcript.coin_id!r}")
    if db.s >= db.T:
        return CheckResult(
            valid=False, s=db.s, T=db.T, correct_count=0,
            l_prime=transcript.l_prime, threshold=0.0, code="coin_exhausted",
        )
    db.s += 1
    code = _structural_violation(db, transcript)
    if code is not None:
        return CheckResult(
            valid=False, s=db.s, T=db.T, correct_count=0,
            l_prime=transcript.l_prime, threshold=0.0, code=code,
        )
    present = transcript.answer >= 0
    l_prime = int(np.sum(present))
    threshold = l_prime * (params.c - params.delta)
    if l_prime:
        parity = pair_parities(
            db.key, db.n, transcript.positions[present],
            transcript.pair_i[present], transcript.pair_j[present],
        )
        correct = int(np.sum(parity == transcript.answer[present]))
    else:
        correct = 0
    return CheckResult(
        valid=correct > threshold, s=db.s, T=db.T,
        correct_count=correct, l_prime=l_prime, threshold=threshold,
    )


def _structural_violation(db: BankDatabase, transcript: VerificationTranscript) -> str | None:
    pos = transcript.positions
    if len(pos) != transcript.l:
        return "wrong_sample_size"
    if len(np.unique(pos)) != len(pos):
        return "duplicate_position"
    if np.any(pos < 0) or np.any(pos >= db.q):
        return "position_out_of_range"
    if np.any(transcript.alpha < 1) or np.any(transcript.alpha > db.n - 1):
        return "alpha_out_of_range"
    present = transcript.answer >= 0
    if np.any(transcript.answer[present] > 1):
        return "answer_not_a_bit"
    pi, pj = transcript.pair_i[present], transcript.pair_j[present]
    if np.any(pi < 1) or np.any(pi > db.n) or np.any(pj < 1) or np.any(pj > db.n) or np.any(pi == pj):
        return "node_out_of_range"
    table = _pair_to_alpha(db.n)
    if np.any(table[pi, pj] != transcript.alpha[present]):
        return "pair_not_in_matching"
    return None


def honest_fail_bound(l: int, delta: float) -> float:
    """Chance an honest coin is rejected: exp(-2 l delta^2)."""
    if l < 1 or delta <= 0:
        raise ValueError(f"need l >= 1 and delta > 0, got l={l}, delta={delta}")
    return math.exp(-2.0 * l * delta**2)


@dataclass(frozen=True)
class LossyBounds:
    """Tail bounds for the lossy protocol at sample size l."""

    correctness: float  # honest run rejected or aborted
    no_abort: float     # under-filled coin slips past the abort rule
    forgery: float      # double-spend accepted by both verifiers


def lossy_fail_bounds(l: int, delta: float, epsilon: float, eta: float) -> LossyBounds:
    """Evaluate the three tail terms of the lossy protocol.

    l_min = (eta - epsilon) * l outcomes survive an honest run except with
    probability exp(-2 l epsilon^2); conditioned on that, the verdict errs
    with probability exp(-2 l_min delta^2).  The no-abort and forgery bounds
    add the loss-hiding terms.  With epsilon = 0 the loss terms are 1 and
    the bounds are vacuous; the planner rejects that combination.
    """
    if l < 1 or delta <= 0 or not 0 < eta <= 1 or epsilon < 0:
        raise ValueError("need l >= 1, delta > 0, 0 < eta <= 1, epsilon >= 0")
    l_min = (eta - epsilon) * l
    if l_min <= 0:
        raise ValueError(f"eta - epsilon must be positive, got eta={eta}, epsilon={epsilon}")
    verdict_term = math.exp(-2.0 * l_min * delta**2)
    sample_term = math.exp(-2.0 * l * epsilon**2)
    hide_term = math.exp(-2.0 * (epsilon**2 / eta**2) * l)
    return LossyBounds(
        correctness=verdict_term + sample_term,
        no_abort=hide_term + sample_term,
        forgery=hide_term + sample_term + verdict_term,
    )


@dataclass(frozen=True)
class Plan:
    """Planner output: a full parameter set meeting a security target."""

    n: int
    beta: float
    eta: float
    epsilon: float
    c: float
    delta: float
    l: int
    q_min: int
    T: int
    error_floor: float
    target: float
    achieved: float

    def to_dict(self) -> dict:
        return {
            "n": self.n, "beta": self.beta, "eta": self.eta, "epsilon": self.epsilon,
            "c": self.c, "delta": self.delta, "l": self.l, "q_min": self.q_min,
            "T": self.T, "error_floor": self.error_floor, "target": self.target,
            "achieved": self.achieved,
        }


def plan_parameters(
    n: int, beta: float, target_security: float, eta: float = 1.0, epsilon: float = 0.0
) -> Plan:
    """Smallest sample size l whose failure bounds meet target_security.

    Ideal variant (eta = 1, epsilon = 0): bound exp(-2 l delta^2).  Lossy
    variant: the three-term forgery bound, which dominates correctness.
    Raises InfeasiblePlanError when beta is not below the adversary error
    floor (reporting the gap) or when eta < 1 with epsilon = 0 (the loss
    terms equal 1 for every l).
    """
    if not 0.0 < target_security < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target_security}")
    if eta < 1.0 and epsilon == 0.0:
        raise InfeasiblePlanError(
            "epsilon must be positive when eta < 1: the loss-hiding terms equal 1 for every l"
        )
    floor = adversary_error_floor(n, eta, epsilon)
    if floor <= beta:
        raise InfeasiblePlanError(
            f"beta={beta} is not below the adversary error floor {floor:.6f} "
            f"(gap {floor - beta:.6f} at n={n}, eta={eta}, epsilon={epsilon})"
        )
    delta = (floor - beta) / 2.0
    c = 1.0 - beta

    if eta == 1.0 and epsilon == 0.0:
        achieved_at = lambda l: honest_fail_bound(l, delta)
    else:
        achieved_at = lambda l: lossy_fail_bounds(l, delta, epsilon, eta).forgery

    lo, hi = 1, 1
    while achieved_at(hi) > target_security:
        hi *= 2
        if hi > 2**40:
            raise InfeasiblePlanError("no sample size below 2^40 meets the target")
    while lo < hi:
        mid = (lo + hi) // 2
        if achieved_at(mid) <= target_security:
            hi = mid
        else:
            lo = mid + 1
    l = lo
    return Plan(
        n=n, beta=beta, eta=eta, epsilon=epsilon, c=c, delta=delta, l=l,
        q_min=COIN_BUDGET_DIVISOR * l, T=1, error_floor=floor,
        target=target_security, achieved=achieved_at(l),
    )


@dataclass
class HonestExperiment:
    """Monte Carlo tallies for honest coin lifecycles."""

    n: int
    q: int
    l: int
    beta: float
    eta: float
    epsilon: float
    trials: int
    valid: int
    invalid: int
    aborted: int
    reject_bound: float
    abort_bound: float | None

    def to_dict(self) -> dict:
        return {
            "n": self.n, "q": self.q, "l": self.l, "beta": self.beta,
            "eta": self.eta, "epsilon": self.epsilon, "trials": self.trials,
            "valid": self.valid, "invalid": self.invalid, "aborted": self.aborted,
            "valid_rate": self.valid / self.trials,
            "invalid_rate": self.invalid / self.trials,
            "abort_rate": self.aborted / self.trials,
            "reject_bound": self.reject_bound,
            "abort_bound": self.abort_bound,
        }


def run_honest_experiment(
    n: int, q: int, l: int, beta: float, trials: int, rng: np.random.Generator,
    eta: float = 1.0, epsilon: float = 0.0,
) -> HonestExperiment:
    """Mint and verify `trials` fresh coins through the honest channel."""
    params = VerdictParameters.from_noise(n, beta, eta, epsilon)
    channel = HonestChannel(beta)
    tallies = {Verdict.VALID: 0, Verdict.INVALID: 0, Verdict.ABORTED: 0}
    for _ in range(trials):
        coin, db = bank_mint(n, q, l, rng)
        outcome = holder_verify(coin, db, params, channel, rng)
        tallies[outcome.verdict] += 1
    if eta == 1.0 and epsilon == 0.0:
        reject_bound = honest_fail_bound(l, params.delta)
        abort_bound = None
    else:
        lb = lossy_fail_bounds(l, params.delta, epsilon, eta)
        reject_bound = lb.correctness
        abort_bound = math.exp(-2.0 * l * epsilon**2)
    return HonestExperiment(
        n=n, q=q, l=l, beta=beta, eta=eta, epsilon=epsilon, trials=trials,
        valid=tallies[Verdict.VALID], invalid=tallies[Verdict.INVALID],
        aborted=tallies[Verdict.ABORTED], reject_bound=reject_bound, abort_bound=abort_bound,
    )
