"""Coin lifecycle: minting, holder-side verification, bank-side checking.

A coin is q positions, each hiding an n-bit secret known only to the bank,
which stores a 16-byte key per coin and derives secrets from it on demand
with AES-128 in counter form, a pseudorandom function of the position.
Deriving any set of positions is one AES-128-ECB call through the libcrypto
that `hashlib` already loads, so the holder's simulated measurement and the
bank's check each derive the secrets they need.  `secret_bits` is the
reference definition of the secrets.  The measurement and the check read
each parity x_i XOR x_j straight from the packed AES output, in
`np.unpackbits` bit order (`pair_parities`), without unpacking any secret.
The holder verifies by sampling l unused positions, measuring each in a
random matching basis, and sending the claimed parities to the bank, which
accepts when the correct fraction clears c - delta.  The bank allows at
most T = q // (1000 l) checks per coin, and grades a transcript against
the l of its own record.  All sampling is exact: outcomes are drawn from
closed-form distributions, never from simulated state vectors.  No state
of a coin or a round grows with q.

Each rule is written once.  `VerdictParameters` is the acceptance policy:
`from_noise` sets c and delta from the channel noise and the adversary error
floor (and refuses a beta at or above the floor), `min_outcomes` is the
abort rule and `tail_bounds` picks the ideal or the lossy tail bounds.
A round is `_plan_round` (sample, bases, measurement seed), a measurement
(in process or over the wire) and `_finish_round` (transcript, abort,
verdict).  `encode_outcomes` / `decode_outcomes` are the only codec of an
outcome's wire form, {"i", "j", "b"} or null when lost.

Positions are indexed from 0.  Node indices inside measurement outcomes are
1-based, matching the matching convention.

Randomness discipline (load-bearing for wire equivalence): a verification
draws, in order, the position sample, the matching indices, and a single
63-bit measurement seed; outcomes come from a fresh generator seeded with it
inside `measure_positions`.  A remote client makes the same draws and ships
the seed, so the service reproduces outcomes bit for bit.
"""

import ctypes
import math
from dataclasses import dataclass, field
from enum import IntEnum, Enum
from functools import lru_cache
from typing import Callable
import json

import numpy as np

from . import bounds
from .bounds import COIN_BUDGET_DIVISOR
from .matchings import DisjointMatchingSet, build_disjoint_set

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
    FORGED = 2   # forger's output, errs at the coin's forged_error
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
    from this verifier).  `consumed` is the sorted int64 array of the
    positions earlier rounds sampled, each once, so it grows by l per round,
    whatever q is.

    forged_error is the exact per-measurement error rate of forged
    positions: every attack channel produces states whose measurement
    statistics are uniform over pairs with an independent error bit.  A
    coin with forged positions must set it.  That every built-in channel's
    state (and a genuine position's, at rate beta) has this form, at the
    rate the fast path grades it at, is checked exactly by
    `tests/test_adversary.py::test_channel_states_grade_at_the_fast_path_rate`.
    """

    coin_id: str
    n: int
    q: int
    l: int
    T: int
    segments: tuple[tuple[int, PositionKind], ...]
    masked: range = range(0)
    consumed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    forged_error: float | None = None

    @classmethod
    def fresh(cls, coin_id: str, n: int, q: int, l: int, T: int) -> "Coin":
        return cls(coin_id=coin_id, n=n, q=q, l=l, T=T, segments=((q, PositionKind.GENUINE),))

    def kind_of(self, positions: np.ndarray) -> np.ndarray:
        """PositionKind of each position, as a uint8 array."""
        stops = np.array([stop for stop, _ in self.segments], dtype=np.int64)
        kinds = np.array([kind for _, kind in self.segments], dtype=np.uint8)
        return kinds[stops.searchsorted(positions, side="right")]

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
    """The acceptance policy of a round.

    A round aborts when fewer than (eta - epsilon) * l outcomes arrive
    (`min_outcomes`), and otherwise passes when correct > l' * (c - delta).
    Every range check fails on NaN.
    """

    c: float
    delta: float
    eta: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.5 < self.c <= 1.0:
            raise ValueError(f"c must be in (1/2, 1], got {self.c}")
        if not (self.delta > 0.0 and self.c - self.delta > 0.5):
            raise ValueError(f"need delta > 0 and c - delta > 1/2, got c={self.c}, delta={self.delta}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @classmethod
    def from_noise(cls, n: int, beta: float, eta: float = 1.0, epsilon: float = 0.0) -> "VerdictParameters":
        """Standard policy: c = 1 - beta, delta = (error floor - beta) / 2."""
        return _noise_policy(n, beta, eta, epsilon)[0]

    @property
    def min_outcomes(self) -> float:
        """Abort threshold on the outcome count: (eta - epsilon) * l, scaled by l later."""
        return self.eta - self.epsilon

    def tail_bounds(self, l: int) -> tuple[float, float, float | None]:
        """Tail bounds at sample size l: (an honest round is rejected or
        aborts, a double-spend passes both verifiers, an honest round
        aborts).  When no outcome may be lost (eta = 1, epsilon = 0) both
        tails are the ideal exp(-2 l delta^2) and no round aborts (None);
        else they are `lossy_fail_bounds`' terms."""
        if self.eta == 1.0 and self.epsilon == 0.0:
            ideal = honest_fail_bound(l, self.delta)
            return ideal, ideal, None
        lossy = lossy_fail_bounds(l, self.delta, self.epsilon, self.eta)
        return lossy.correctness, lossy.forgery, lossy.abort

    def forgery_bound(self, l: int) -> float:
        """Chance a double-spend passes both verifiers at sample size l."""
        return self.tail_bounds(l)[1]


def _noise_policy(n: int, beta: float, eta: float, epsilon: float) -> tuple[VerdictParameters, float]:
    """The standard policy at channel noise beta, and the adversary error
    floor it separates beta from.  Raises InfeasiblePlanError, naming the
    gap, unless beta is below the floor."""
    floor = adversary_error_floor(n, eta, epsilon)
    if floor <= beta:
        raise InfeasiblePlanError(
            f"channel noise beta={beta} is not below the adversary error floor {floor:.6f} "
            f"(gap {floor - beta:.6f} at n={n}, eta={eta}, epsilon={epsilon}); "
            "no threshold separates honest from forged"
        )
    return VerdictParameters(c=1.0 - beta, delta=(floor - beta) / 2.0, eta=eta, epsilon=epsilon), floor


def adversary_error_floor(n: int, eta: float = 1.0, epsilon: float = 0.0) -> float:
    """Forger's minimum per-verifier error rate at the given loss budget;
    with no loss (eta = 1, epsilon = 0) this is e_min(n) exactly."""
    return bounds.lossy_e_min(bounds.e_min(n), epsilon, eta)


def encode_outcomes(pair_i: np.ndarray, pair_j: np.ndarray, answer: np.ndarray) -> list[dict | None]:
    """Outcomes in their wire form: {"i", "j", "b"} per position, None where
    the outcome was lost (answer < 0)."""
    rows = zip(pair_i.tolist(), pair_j.tolist(), answer.tolist())
    return [None if b < 0 else {"i": i, "j": j, "b": b} for i, j, b in rows]


def wire_int(value, name: str) -> int:
    """A field read from the wire or a transcript, which must be an integer:
    1.5, "3" and true raise TypeError instead of being converted."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def wire_float(value, name: str) -> float:
    """A real-valued field read from the wire, which must be a JSON number:
    "0.1" and true raise TypeError instead of being converted."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def wire_ints(values: list, name: str, dtype=np.int64) -> np.ndarray:
    """A list of integer fields as an array.  Raises TypeError unless values
    is a list of integers (1.5, "3" and true are refused, not converted) and
    OverflowError for an item past the dtype."""
    if type(values) is not list:
        raise TypeError(f"{name} must be a list of integers")
    if not set(map(type, values)) <= {int}:
        raise TypeError(f"{name} must be integers, got {next(v for v in values if type(v) is not int)!r}")
    return np.array(values, dtype=dtype)


_LOST = {"i": 0, "j": 0, "b": -1}


def decode_outcomes(outcomes: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair_i, pair_j, answer) from the wire form: answer -1 and pair 0
    where the outcome was lost.  A field that is not an integer raises
    TypeError, one out of range OverflowError.  Only null marks a lost
    outcome: an outcome whose b is not 0 or 1 raises ValueError."""
    rows = [_LOST if out is None else out for out in outcomes]
    decoded = tuple(wire_ints([out[f] for out in rows], f, dtype)
                    for f, dtype in (("i", np.int64), ("j", np.int64), ("b", np.int8)))
    if any(out is not None and out["b"] not in (0, 1) for out in outcomes):
        raise ValueError("an outcome's b must be 0 or 1; only a null outcome is lost")
    return decoded


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
        return int(np.count_nonzero(self.answer >= 0))

    def to_dict(self) -> dict:
        outcomes = encode_outcomes(self.pair_i, self.pair_j, self.answer)
        rows = zip(self.positions.tolist(), self.alpha.tolist(), outcomes)
        triplets = [{"i": i, "alpha": a, "outcome": out} for i, a, out in rows]
        return {"coin_id": self.coin_id, "l": self.l, "triplets": triplets}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationTranscript":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj: dict) -> "VerificationTranscript":
        triplets = obj["triplets"]
        positions = wire_ints([t["i"] for t in triplets], "i")
        alpha = wire_ints([t["alpha"] for t in triplets], "alpha")
        pair_i, pair_j, answer = decode_outcomes([t["outcome"] for t in triplets])
        return cls(
            coin_id=obj["coin_id"], l=wire_int(obj["l"], "l"), positions=positions,
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


# The EVP calls of AES-128-ECB: name -> (restype, argtypes).
_EVP_SIGNATURES = {
    "EVP_CIPHER_CTX_new": (ctypes.c_void_p, []),
    "EVP_aes_128_ecb": (ctypes.c_void_p, []),
    "EVP_EncryptInit_ex": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                                          ctypes.c_char_p, ctypes.c_char_p]),
    "EVP_CIPHER_CTX_set_padding": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_int]),
    "EVP_EncryptUpdate": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int),
                                         ctypes.c_void_p, ctypes.c_int]),
    "EVP_CIPHER_CTX_free": (None, [ctypes.c_void_p]),
}
# EVP_EncryptUpdate takes an int length: longer inputs go in chunks this
# size, the largest whole number of 16-byte blocks below 2^31.
_EVP_MAX_CHUNK = (2**31 - 1) // 16 * 16


def _bind_libcrypto():
    """The EVP calls, bound with ctypes from the libcrypto that CPython's
    `_hashlib` links (OpenSSL 1.1.1 or later, PEP 644).  There is no
    fallback: without them the secrets cannot be derived."""
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        evp = {name: getattr(lib, name) for name in _EVP_SIGNATURES}
    except (ImportError, OSError, AttributeError) as exc:
        raise ImportError(
            f"hmqm derives coin secrets with AES-128 and needs {', '.join(_EVP_SIGNATURES)} "
            f"from the libcrypto that _hashlib links: {exc}"
        ) from exc
    for name, (restype, argtypes) in _EVP_SIGNATURES.items():
        evp[name].restype, evp[name].argtypes = restype, argtypes
    return evp


_EVP = _bind_libcrypto()


def _aes128_ecb(key: bytes, plaintext) -> np.ndarray:
    """AES-128 under `key` of each 16-byte block of `plaintext`, a writable
    contiguous buffer (an array or a bytearray), as a uint8 array.  A fresh
    cipher context per call, so threads may call it at once."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"AES-128 needs a {KEY_BYTES}-byte key, got {len(key)} bytes")
    size = memoryview(plaintext).nbytes
    if size % 16:
        raise ValueError(f"plaintext of {size} bytes is not whole 16-byte blocks")
    out = np.empty(size, dtype=np.uint8)
    src, dst = ((ctypes.c_char * size).from_buffer(buf) for buf in (plaintext, out))
    ctx = _EVP["EVP_CIPHER_CTX_new"]()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    try:
        if _EVP["EVP_EncryptInit_ex"](ctx, _EVP["EVP_aes_128_ecb"](), None, key, None) != 1:
            raise RuntimeError("EVP_EncryptInit_ex failed")
        if _EVP["EVP_CIPHER_CTX_set_padding"](ctx, 0) != 1:
            raise RuntimeError("EVP_CIPHER_CTX_set_padding failed")
        written = ctypes.c_int()
        for start in range(0, size, _EVP_MAX_CHUNK):
            chunk = min(_EVP_MAX_CHUNK, size - start)
            ok = _EVP["EVP_EncryptUpdate"](ctx, ctypes.byref(dst, start), ctypes.byref(written),
                                           ctypes.byref(src, start), chunk)
            if ok != 1 or written.value != chunk:
                raise RuntimeError(f"EVP_EncryptUpdate wrote {written.value} of {chunk} bytes")
    finally:
        _EVP["EVP_CIPHER_CTX_free"](ctx)
    return out


def _secret_stream(key: bytes, positions: np.ndarray, n: int) -> np.ndarray:
    """The AES-128 output behind each position's secret, one row of
    16 * ceil(n/128) bytes per position, in a single AES-128-ECB call."""
    positions = np.asarray(positions, dtype="<i8")
    words = -(-n // 128)
    blocks = np.empty((len(positions), words, 2), dtype="<i8")
    blocks[:, :, 0] = positions[:, None]
    blocks[:, :, 1] = np.arange(words)
    return _aes128_ecb(key, blocks).reshape(-1, 16 * words)


def secret_bits(key: bytes, positions: np.ndarray, n: int) -> np.ndarray:
    """The n secret bits of each position, shape (len(positions), n), uint8.

    This is the reference definition of the secrets.  Position i's secret is
    the first n bits of AES-128 under `key` of the blocks i || w, for
    w = 0 .. ceil(n/128) - 1, each of i and w as 8 little-endian bytes, in
    `np.unpackbits` order (bit b is bit 7 - b % 8 of byte b // 8): AES in
    counter form, a keyed pseudorandom function of the position, so a round
    costs what it samples and the bank stores only the key.  Every block of
    a call is encrypted in one AES-128-ECB call, so the cost is nearly flat
    in the number of positions: about 20 us for 20 positions and 30 us for
    2000 on an x86-64 Xeon with AES-NI.
    """
    used = -(-n // 8)
    stream = _secret_stream(key, positions, n)
    # Unpack only the bytes that hold the n bits, as one contiguous run.
    return np.unpackbits(stream[:, :used].ravel()).reshape(-1, 8 * used)[:, :n]


def pair_parities(key: bytes, n: int, positions: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray) -> np.ndarray:
    """x_i XOR x_j of each position's secret, for 1-based node pairs, as
    uint8.  Read straight from the packed AES output without unpacking the
    secrets: node b's bit is bit 7 - (b-1) % 8 of byte (b-1) // 8, the
    `np.unpackbits` order of `secret_bits`, the reference definition they
    equal."""
    stream = _secret_stream(key, positions, n)
    flat = stream.ravel()
    # i and j are bit offsets into the stream: shifting a node's byte left
    # by its offset mod 8, in uint8, moves the node's bit to the top.
    base = np.arange(len(stream)) * (8 * stream.shape[1]) - 1
    i, j = base + pair_i, base + pair_j
    parity = (flat.take(i >> 3) << (i & 7).astype(np.uint8)) ^ (flat.take(j >> 3) << (j & 7).astype(np.uint8))
    return parity >> 7


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
    Exact sampling: every position kind yields a state of the form
    w * phi_x + (1 - w) * I/n, whose outcome distribution is a uniform pair
    of the matching plus an independent error bit (genuine: beta, replica: 0,
    forged: the coin's forged_error).  Detector loss hits every present
    position independently with probability 1 - eta.
    """
    n = coin.n
    k = len(positions)
    u_loss = rng.random(k)
    pair_pick = rng.integers(0, n // 2, size=k)
    u_err = rng.random(k)

    kinds = coin.kind_of(positions)
    err_prob = _error_rates(coin, kinds, beta)

    present = (u_loss < eta) & (kinds != PositionKind.ABSENT.value)
    errors = (u_err < err_prob) & present
    # Every position's pair is read from the flattened table of every
    # matching's pairs, and a lost one is zeroed; only present positions are
    # derived.
    table = matching_set(n).pairs_array.ravel()
    first = 2 * ((alphas - 1) * (n // 2) + pair_pick)
    pair_i = np.where(present, table[first], 0)
    pair_j = np.where(present, table[first + 1], 0)
    answer = np.full(k, -1, dtype=np.int8)
    answer[present] = pair_parities(key, n, positions[present], pair_i[present], pair_j[present]) ^ errors[present]
    return pair_i, pair_j, answer, errors


def _error_rates(coin: Coin, kinds: np.ndarray, beta: float) -> np.ndarray:
    """The rate each measured position errs at, by its PositionKind: genuine
    beta, replica 0, forged the coin's forged_error (an absent position is
    never measured)."""
    # Kinds compare as plain ints: an IntEnum operand costs numpy microseconds.
    if coin.forged_error is None and (kinds == PositionKind.FORGED.value).any():
        raise ValueError("coin has forged positions but no forged_error")
    return np.array([beta, 0.0, coin.forged_error or 0.0, 0.0]).take(kinds)


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
    *outcomes, errors = measure_positions(
        db.key, coin, sample, alphas, channel.beta, params.eta,
        np.random.default_rng(measure_seed),
    )
    return _finish_round(coin, sample, alphas, outcomes, params, lambda t: bank_check(db, t, params), errors)


def _plan_round(coin: Coin, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw the sample, the bases and the measurement seed, consuming the
    sample: uniform draws from [0, q) minus the masked range, rejecting
    consumed positions.  Each batch draws the positions still missing; one
    argsort groups equal draws, and each group's least draw index is its
    first occurrence.  One binary search of `consumed` drops values consumed
    before, and a mask keeps the rest in draw order.  `consumed` stays a
    sorted array of unique positions: the new ones are inserted at the
    indices that search found, without a sort.  The rng calls and the
    sample are those of taking the draws one by one."""
    if coin.unused() < coin.l:
        raise InsufficientPositionsError(
            f"coin has {coin.unused()} unused positions, verification needs {coin.l}"
        )
    batches: list[np.ndarray] = []
    missing = coin.l
    while missing:
        draw = rng.integers(0, coin.q - len(coin.masked), size=missing)
        if coin.masked:
            draw += (draw >= coin.masked.start) * len(coin.masked)
        order = np.argsort(draw)
        ranked = draw[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        values = ranked[starts]
        if len(coin.consumed):  # past the end, the search clips to a smaller position
            at = np.searchsorted(coin.consumed, values)
            fresh = coin.consumed.take(at, mode="clip") != values
            coin.consumed = np.insert(coin.consumed, at[fresh], values[fresh])
        else:
            fresh = np.ones(len(values), dtype=bool)
            coin.consumed = values
        keep = np.zeros(missing, dtype=bool)
        keep[np.minimum.reduceat(order, starts)[fresh]] = True
        batches.append(draw[keep])
        missing -= len(batches[-1])
    alphas = rng.integers(1, coin.n, size=coin.l)
    measure_seed = int(rng.integers(0, 2**63))
    return np.concatenate(batches), alphas, measure_seed


def _finish_round(coin: Coin, sample: np.ndarray, alphas: np.ndarray, outcomes: tuple,
                  params: VerdictParameters, check: Callable[[VerificationTranscript], CheckResult],
                  errors: np.ndarray | None = None) -> VerifyOutcome:
    """End a round, wherever its outcomes (pair_i, pair_j, answer) were
    measured: build the transcript, abort when fewer than min_outcomes * l
    outcomes arrived, else submit it through `check` and map the bank's
    answer to a verdict."""
    transcript = VerificationTranscript(coin.coin_id, coin.l, sample, alphas, *outcomes)
    if transcript.l_prime < params.min_outcomes * coin.l:
        return VerifyOutcome(Verdict.ABORTED, transcript, None, errors)
    result = check(transcript)
    return VerifyOutcome(Verdict.VALID if result.valid else Verdict.INVALID, transcript, result, errors)


def bank_check(db: BankDatabase, transcript: VerificationTranscript, params: VerdictParameters) -> CheckResult:
    """Bank-side verdict on a transcript.

    Valid iff the count of correct parities strictly exceeds l' * (c - delta),
    with lost outcomes excluded from both sides.  The check counter s
    advances once per call and saturates at T; checks after exhaustion are
    Invalid with code "coin_exhausted".  Structural violations (a sample or
    a claimed l other than the record's l, duplicate positions, out-of-range
    indices, a pair not in the claimed matching) consume a check and yield
    Invalid.
    """
    if transcript.coin_id != db.coin_id:
        raise UnknownCoinError(f"no coin {transcript.coin_id!r}")
    if db.s >= db.T:
        return CheckResult(
            valid=False, s=db.s, T=db.T, correct_count=0,
            l_prime=transcript.l_prime, threshold=0.0, code="coin_exhausted",
        )
    db.s += 1
    present = transcript.answer >= 0
    l_prime = int(np.count_nonzero(present))
    pi, pj = transcript.pair_i[present], transcript.pair_j[present]
    code = _structural_violation(db, transcript, present, pi, pj)
    if code is not None:
        return CheckResult(
            valid=False, s=db.s, T=db.T, correct_count=0,
            l_prime=l_prime, threshold=0.0, code=code,
        )
    threshold = l_prime * (params.c - params.delta)
    parity = pair_parities(db.key, db.n, transcript.positions[present], pi, pj)
    correct = int(np.count_nonzero(parity == transcript.answer[present]))
    return CheckResult(
        valid=correct > threshold, s=db.s, T=db.T,
        correct_count=correct, l_prime=l_prime, threshold=threshold,
    )


def _structural_violation(db: BankDatabase, transcript: VerificationTranscript, present: np.ndarray,
                          pi: np.ndarray, pj: np.ndarray) -> str | None:
    """The first rule the transcript breaks, in a fixed order, or None.
    pi and pj are the node pairs of the present outcomes.  One sort finds
    duplicates and the position range; every other range is a min/max
    reduction."""
    pos = transcript.positions
    if len(pos) != db.l or transcript.l != db.l:
        return "wrong_sample_size"
    ordered = np.sort(pos)
    if (ordered[1:] == ordered[:-1]).any():
        return "duplicate_position"
    if ordered[0] < 0 or ordered[-1] >= db.q:
        return "position_out_of_range"
    if transcript.alpha.min() < 1 or transcript.alpha.max() > db.n - 1:
        return "alpha_out_of_range"
    if transcript.answer.min() < -1 or transcript.answer.max() > 1:
        return "answer_not_a_bit"
    if pi.size and (min(pi.min(), pj.min()) < 1 or max(pi.max(), pj.max()) > db.n or (pi == pj).any()):
        return "node_out_of_range"
    if (_pair_to_alpha(db.n).take(pi * (db.n + 1) + pj) != transcript.alpha[present]).any():
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
    abort: float        # honest run aborted: fewer than l_min outcomes


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
        abort=sample_term,
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


def plan_parameters(
    n: int, beta: float, target_security: float, eta: float = 1.0, epsilon: float = 0.0
) -> Plan:
    """Smallest sample size l whose forgery bound meets target_security.

    The policy is the standard one of `VerdictParameters.from_noise` (taken
    with its error floor, which the plan reports) and the bound its
    `forgery_bound`: exp(-2 l delta^2) in the ideal variant (eta = 1,
    epsilon = 0), else the three-term lossy bound, which dominates
    correctness.  Raises InfeasiblePlanError when beta is not below the
    adversary error floor (reporting the gap) or when eta < 1 with
    epsilon = 0 (the loss terms equal 1 for every l).
    """
    if not 0.0 < target_security < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target_security}")
    if eta < 1.0 and epsilon == 0.0:
        raise InfeasiblePlanError(
            "epsilon must be positive when eta < 1: the loss-hiding terms equal 1 for every l"
        )
    params, floor = _noise_policy(n, beta, eta, epsilon)
    lo, hi = 1, 1
    while params.forgery_bound(hi) > target_security:
        hi *= 2
        if hi > 2**40:
            raise InfeasiblePlanError("no sample size below 2^40 meets the target")
    while lo < hi:
        mid = (lo + hi) // 2
        if params.forgery_bound(mid) <= target_security:
            hi = mid
        else:
            lo = mid + 1
    l = lo
    return Plan(
        n=n, beta=beta, eta=eta, epsilon=epsilon, c=params.c, delta=params.delta, l=l,
        q_min=COIN_BUDGET_DIVISOR * l, T=1, error_floor=floor,
        target=target_security, achieved=params.forgery_bound(l),
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
    """Mint and verify `trials` fresh coins through the honest channel.

    Raises ValueError unless trials >= 1: the report's rates divide by it.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    params = VerdictParameters.from_noise(n, beta, eta, epsilon)
    channel = HonestChannel(beta)
    tallies = {Verdict.VALID: 0, Verdict.INVALID: 0, Verdict.ABORTED: 0}
    for _ in range(trials):
        coin, db = bank_mint(n, q, l, rng)
        outcome = holder_verify(coin, db, params, channel, rng)
        tallies[outcome.verdict] += 1
    reject_bound, _, abort_bound = params.tail_bounds(l)
    return HonestExperiment(
        n=n, q=q, l=l, beta=beta, eta=eta, epsilon=epsilon, trials=trials,
        valid=tallies[Verdict.VALID], invalid=tallies[Verdict.INVALID],
        aborted=tallies[Verdict.ABORTED], reject_bound=reject_bound, abort_bound=abort_bound,
    )
