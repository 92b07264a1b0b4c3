"""Coin lifecycle: minting, holder-side verification, bank-side checking.

A coin is q positions, each hiding an n-bit secret known only to the bank,
which stores a 16-byte key per coin and derives secrets from it on demand
with AES-128 in counter form, a pseudorandom function of the position.
Deriving a batch of rounds' positions is one AES-128-ECB call per bank key,
through the libcrypto that `hashlib` already loads.  A round derives its
present positions once, in the simulated measurement, and the bank grades
that measurement from its error flags; only a transcript the bank did not
measure (a wire `verify`) is derived again by the check.  `pair_parities`
defines the secrets, and the measurement and the check both call it: it
reads each parity x_i XOR x_j straight from the packed AES output, in
`np.unpackbits` bit order, without unpacking any secret.
The holder verifies by sampling l unused positions, measuring each in a
random matching basis, and sending the claimed parities to the bank, which
accepts when the correct fraction clears c - delta.  The bank allows at
most T = q // (1000 l) checks per coin, and grades a transcript against
the l of its own record.  A coin's samples are the successive values of a
keyed permutation (`_permute`), so no position repeats across rounds and
the sampler keeps a key and two counters.  All sampling is exact: outcomes
are drawn from closed-form distributions, never from simulated state
vectors.  No state of a coin or a round grows with q or with the number of
rounds.

Each rule is written once.  `VerdictParameters` is the acceptance policy:
`from_noise` sets c and delta from the channel noise and the adversary error
floor (and refuses a beta at or above the floor), `min_outcomes` is the
abort rule and `tail_bounds` picks the ideal or the lossy tail bounds.
A round is its draws (`_draw_round`), its sample (`_read_samples`), a
measurement (`measure_positions`, in process or over the wire),
`_end_round` (its transcript, and whether the holder aborts it) and,
unless it aborts, the bank's check, whose answer is the round's verdict.
The kernels take a leading axis of rounds: `measure_rounds` draws, reads
and measures rounds a batch at a time and `holder_verify` ends each one.  A single round is the batch
of one: `holder_verify` alone takes it from `measure_rounds`, and a wire
round (`client_verify`) takes the same draws and read from `_plan_round`.
`encode_outcomes` / `decode_outcomes` are the only codec of an outcome's
wire form, {"i", "j", "b"} or null when lost, and `CheckResult.to_dict` is
the only wire form of a verdict.

Positions are indexed from 0.  Node indices inside measurement outcomes are
1-based, matching the matching convention.

Randomness discipline (load-bearing for wire equivalence): a coin's first
round draws the coin's sampler key; every round then draws, in order, the
matching indices and a single 63-bit measurement seed.  The sample itself
is read from the keyed permutation and draws nothing.  Outcomes come from
a fresh generator seeded with the measurement seed inside
`measure_positions`.  A remote client makes the same draws and ships the
seed, so the service reproduces outcomes bit for bit.  The experiments
defer each round's sample read and measurement to the end of its batch
(`measure_rounds`) and its grading to `holder_verify` after that; those
draw nothing from the experiment's generator, so every draw and every
outcome is that of one round after another.
"""

import ctypes
import math
from dataclasses import dataclass
from enum import IntEnum, Enum
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Sequence
import json

import numpy as np

from . import bounds
from .bounds import COIN_BUDGET_DIVISOR
from .matchings import matching_table, pair_to_alpha

KEY_BYTES = 16
# A coin's sampler key: one 64-bit word per round of `_permute`'s Feistel network.
SAMPLER_KEY_BYTES = 32
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
    """Holder-side view of a coin: the kind of each position and the state
    of its sampler.

    segments is a tuple of (stop, kind) pairs with increasing stops, the
    last one q: positions [previous stop, stop) have that kind.  Positions
    in `masked` are never offered to the sampler (a forger withheld them
    from this verifier); it is fixed before the first round.  The sampler
    (`_draw_round`, `_read_samples`) is `sampler_key`, None until the first
    round draws it, `cursor`, the next index of the keyed permutation to
    read, and `sampled`, the count of positions taken so far: one key and
    two integers, whatever the number of rounds.

    forged_error is the exact per-measurement error rate of forged
    positions: every attack channel produces states whose measurement
    statistics are uniform over pairs with an independent error bit.  A
    coin with forged positions must set it.  That every built-in channel's
    state (and a genuine position's, at rate beta) has this form, at the
    rate the fast path grades it at, is checked exactly, on the density
    matrices of the tests' reference physics (tests/reference.py), by
    `tests/test_adversary.py::test_channel_states_grade_at_the_fast_path_rate`.
    """

    coin_id: str
    n: int
    q: int
    l: int
    T: int
    segments: tuple[tuple[int, PositionKind], ...]
    masked: range = range(0)
    sampler_key: bytes | None = None
    cursor: int = 0
    sampled: int = 0
    forged_error: float | None = None

    @classmethod
    def fresh(cls, coin_id: str, n: int, q: int, l: int, T: int) -> "Coin":
        return cls(coin_id=coin_id, n=n, q=q, l=l, T=T, segments=((q, PositionKind.GENUINE),))

    def unused(self) -> int:
        """Positions a round may still sample."""
        return self.q - len(self.masked) - self.sampled

    def all_genuine(self) -> bool:
        return all(kind == PositionKind.GENUINE for _, kind in self.segments)


@dataclass
class BankDatabase:
    """Bank-side record: the key the secrets derive from, the check counter,
    and the policy the bank service grades the coin under (None in process,
    where every check is handed its policy)."""

    coin_id: str
    n: int
    q: int
    l: int
    T: int
    key: bytes
    s: int = 0
    params: "VerdictParameters | None" = None


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
    floor it separates beta from.  Raises ValueError, naming beta, unless
    beta is finite and >= 0, and InfeasiblePlanError, naming the gap,
    unless beta is below the floor."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
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
        """The verdict's wire form, the body of a verify_ok and a round_ok's
        check: every field, and `code` only when it is set.  A literal, as
        `dataclasses.asdict` costs some 40 times as much on the bank's
        per-round path."""
        body = {"valid": self.valid, "s": self.s, "T": self.T, "correct_count": self.correct_count,
                "l_prime": self.l_prime, "threshold": self.threshold}
        if self.code is not None:
            body["code"] = self.code
        return body

    @classmethod
    def from_dict(cls, body: dict) -> "CheckResult":
        """The verdict read back from its wire form, converting nothing:
        valid must be a bool, code a string or absent, the counters integers
        and threshold a number.  A missing field raises KeyError, a field of
        another type TypeError."""
        valid, code = body["valid"], body.get("code")
        if type(valid) is not bool or type(body.get("code", "")) is not str:
            raise TypeError(f"valid must be a bool and code a string or absent, got valid={valid!r}, code={code!r}")
        counters = (wire_int(body[name], name) for name in ("s", "T", "correct_count", "l_prime"))
        return cls(valid, *counters, wire_float(body["threshold"], "threshold"), code)


@dataclass
class VerifyOutcome:
    """Holder-side result of one verification round."""

    transcript: VerificationTranscript
    check: CheckResult | None  # None when the holder aborted
    # Per position: did the measurement err?  False where the outcome was
    # lost.  Known to the in-process simulation only (None over the wire),
    # as is each position's PositionKind.
    errors: np.ndarray | None
    kinds: np.ndarray | None = None

    @property
    def verdict(self) -> Verdict:
        """Aborted when the holder aborted, else the bank's check: Valid or
        Invalid."""
        return Verdict.ABORTED if self.check is None else Verdict.VALID if self.check.valid else Verdict.INVALID


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


def pair_parities(key: bytes, n: int, positions: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray) -> np.ndarray:
    """x_i XOR x_j of each position's secret, for 1-based node pairs, as
    uint8.

    This defines the secrets.  Position i's secret is the first n bits of
    AES-128 under `key` of the blocks i || w, for w = 0 .. ceil(n/128) - 1,
    each of i and w as 8 little-endian bytes, in `np.unpackbits` order (node
    b's bit is bit 7 - (b-1) % 8 of byte (b-1) // 8): AES in counter form, a
    keyed pseudorandom function of the position, so a round costs what it
    samples and the bank stores only the key.  Every block of a call is
    encrypted in one AES-128-ECB call, so the cost is nearly flat in the
    number of positions.  The parities are read straight from the packed
    AES output without unpacking the secrets; the tests' reference
    `secret_bits` (tests/reference.py) unpacks them.
    """
    positions = np.asarray(positions, dtype="<i8")
    words = -(-n // 128)
    blocks = np.empty((len(positions), words, 2), dtype="<i8")
    blocks[:, :, 0] = positions[:, None]
    blocks[:, :, 1] = np.arange(words)
    stream = _aes128_ecb(key, blocks).reshape(-1, 16 * words)
    flat = stream.ravel()
    # i and j are bit offsets into the stream: shifting a node's byte left
    # by its offset mod 8, in uint8, moves the node's bit to the top.
    base = np.arange(-1, 8 * stream.size - 1, 8 * stream.shape[1])
    i, j = base + pair_i, base + pair_j
    parity = flat.take(i >> 3) << (i & 7).astype(np.uint8)
    parity ^= flat.take(j >> 3) << (j & 7).astype(np.uint8)
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

    The key and the 16-byte coin id are the two halves of one draw of 32
    bytes, the same bytes as drawing each in turn.  Raises ValueError for a
    shape `coin_budget` refuses.
    """
    T = coin_budget(n, q, l)
    drawn = rng.bytes(KEY_BYTES + 16)
    key, coin_id = drawn[:KEY_BYTES], drawn[KEY_BYTES:].hex()
    coin = Coin.fresh(coin_id, n, q, l, T)
    db = BankDatabase(coin_id=coin_id, n=n, q=q, l=l, T=T, key=key)
    return coin, db


def measure_positions(keys: Sequence[bytes], coins: Sequence[Coin], positions: np.ndarray, alphas: np.ndarray,
                      beta: float, eta: float, rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, ...]:
    """Measure R rounds at once: row r of positions and alphas, shape
    (R, k), on coins[r] (the coins share n) under the bank key keys[r],
    drawing from rngs[r].  One round may be passed as a key, a coin, 1-D
    arrays and a generator; its results then come back 1-D.

    Returns (pair_i, pair_j, answer, errors, kinds) with answer == -1 for
    lost outcomes; errors flags the outcomes whose bit differs from the
    secret's parity on the returned pair, and is False where the outcome
    was lost; kinds is each position's PositionKind.
    Exact sampling: every position kind yields a state of the form
    w * phi_x + (1 - w) * I/n, whose outcome distribution is a uniform pair
    of the matching plus an independent error bit (genuine: beta, replica: 0,
    forged: the coin's forged_error).  Detector loss hits every present
    position independently with probability 1 - eta.

    Each row draws k loss uniforms, k pair picks and k error uniforms.  At
    eta = 1 nothing is lost, and the loss draw is skipped by advancing the
    generator k steps: the state that drawing them leaves whenever no
    32-bit half-word is buffered, as in the fresh `default_rng(seed)` every
    caller measures with.  Each run of rows under one key is derived in one
    AES-128-ECB call, present positions only.
    """
    if positions.ndim == 1:
        keys, coins, rngs = [keys], [coins], [rngs]
    n, shape, k = coins[0].n, positions.shape, positions.shape[-1]
    u_loss, pair_pick, u_err = [], [], []
    for rng in rngs:
        if eta < 1.0:
            u_loss.append(rng.random(k))
        else:
            rng.bit_generator.advance(k)
        pair_pick.append(rng.integers(0, n // 2, size=k))
        u_err.append(rng.random(k))
    # The rounds run as one flat array; one round's are the row as drawn.
    positions = positions.ravel()
    profiles = {}
    profile = [profiles.setdefault((coin.segments, coin.forged_error), len(profiles)) for coin in coins]
    stops, kinds, rates = _profile_table(tuple(profiles), beta)
    # One search finds each position's merged segment; a row reads its
    # kind and its rate from its coin's profile's line of the flat tables.
    segment = stops.searchsorted(positions, side="right")
    if len(profiles) > 1:
        segment += np.repeat(np.array(profile) * stops.size, k)
    kinds = kinds.take(segment)
    errors = _joined(u_err) < rates.take(segment)
    present = kinds != PositionKind.ABSENT.value
    if eta < 1.0:
        present &= _joined(u_loss) < eta
    # Both nodes of every position's pair are read in one gather: pair p of
    # matching alpha sits at alpha * n/2 + p of the flat table, whose row 0
    # is padding.  A lost one's are zeroed; no mask is applied when none is
    # lost.
    pick = alphas.ravel() * (n // 2) + _joined(pair_pick)
    pair_i, pair_j = matching_table(n).reshape(-1, 2).take(pick, axis=0).T
    answer = np.empty(len(positions), dtype=np.int8)
    if lost := not present.all():
        errors &= present
        pair_i *= present
        pair_j *= present
        answer.fill(-1)
    start = 0
    for key, run in groupby(keys):
        stop = start + k * len(list(run))
        got = start + present[start:stop].nonzero()[0] if lost else slice(start, stop)
        answer[got] = errors[got] ^ pair_parities(key, n, positions[got], pair_i[got], pair_j[got])
        start = stop
    measured = (pair_i, pair_j, answer, errors, kinds)
    return measured if len(shape) == 1 else tuple(a.reshape(shape) for a in measured)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays one after another; a single array is returned as it is,
    so that one round copies nothing."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@lru_cache(maxsize=64)
def _profile_table(profiles: tuple, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For coins of one q with these (segments, forged_error) profiles: the
    stops of every profile's segments, merged; each profile's kind between
    consecutive merged stops, shape (profiles, stops); and beside its kinds
    the rate a measured position errs at: genuine beta, replica 0, forged
    the profile's forged_error (an absent position is never measured).  All
    three are read-only, and one search into the stops finds a position's
    segment under every profile.  Built once per set of profiles: every
    trial of a forge run repeats the same two.  A profile with forged
    positions and no forged_error raises ValueError."""
    # A set, not np.unique: np.unique loads numpy.ma, 40 ms and 1 MB at a
    # process's first round.
    stops = np.array(sorted({stop for segments, _ in profiles for stop, _ in segments}), dtype=np.int64)
    # A merged segment ends at a stop; its kind is that of the profile's
    # segment ending at the first stop not below it.
    kinds = np.array([np.array([kind for _, kind in segments], dtype=np.uint8)[
        np.searchsorted([stop for stop, _ in segments], stops)] for segments, _ in profiles])
    # None is NaN here; kinds compare as plain ints, as an IntEnum operand
    # costs numpy microseconds.
    forged = np.array([forged_error for _, forged_error in profiles], dtype=float)[:, None]
    rates = np.where(kinds == PositionKind.FORGED.value, forged, np.array([beta, 0.0, 0.0, 0.0]).take(kinds))
    if np.isnan(rates).any():
        raise ValueError("coin has forged positions but no forged_error")
    for table in (stops, kinds, rates):
        table.setflags(write=False)
    return stops, kinds, rates


def holder_verify(
    coin: Coin,
    db: BankDatabase,
    params: VerdictParameters,
    channel: HonestChannel,
    rng: np.random.Generator,
    measured: tuple | None = None,
) -> VerifyOutcome:
    """One verification round: sample, measure, abort or submit to the bank.

    The sample is taken before anything is measured, so its positions are
    used up even when the round aborts.  With fewer than l unused
    positions the round cannot start at all (InsufficientPositionsError, not
    a verdict).  The measurement is the bank's own, under its key, so the
    bank grades it from the error flags `measure_positions` returned, as it
    grades a wire `round`: each present position is derived once.

    `measured` is the round's measurement when `measure_rounds` took it in
    a batch: (sample, bases, pair_i, pair_j, answer, errors, kinds).  The
    round is then only ended and graded, and draws nothing from rng.
    Without it the round is the batch of one: `measure_rounds` of this coin
    alone draws and measures it.
    """
    if measured is None:
        _, _, measured = next(measure_rounds([(coin, db)], channel, params.eta, rng))
    sample, alphas, *outcomes, errors, kinds = measured
    transcript, aborts = _end_round(coin, sample, alphas, outcomes, params)
    return VerifyOutcome(transcript, None if aborts else bank_check(db, transcript, params, errors), errors, kinds)


# The most positions a batch of `measure_rounds` reads, measures and derives
# at once.  A batch's arrays take about 100 bytes a position: a 200-trial
# forge run at l = 2000 peaked 4 MB above its imports in batches of 16
# rounds, and 70 MB above as one batch of 400.  A perfbench `forge` or
# `honest` call (4 or 5 rounds of 2000) is one batch.
ROUND_BATCH_POSITIONS = 2**15


def measure_rounds(rounds: Iterable, channel: HonestChannel, eta: float, rng: np.random.Generator) -> Iterator:
    """Draw and measure each (coin, db) of `rounds` in turn, yielding
    (coin, db, measured), the measurement `holder_verify` takes.  Ended by
    `holder_verify` in the order they come, the rounds give the outcomes of
    a loop of `holder_verify` calls, bit for bit.

    A round draws from rng when it is taken from `rounds`, so the draws
    that produce the next pair (a mint) follow it, as in that loop.  Its
    sample read and measurement draw nothing from rng, so they wait for a
    batch of at most ROUND_BATCH_POSITIONS positions (at least one round),
    and run once for the whole batch; the bank grades each round when
    `holder_verify` ends it, since its counter is sequential.  The rounds
    share n, q, l and the length of `masked`.  A coin's cursor chains its
    rounds, so a coin that comes again starts a new batch.
    """
    batch = {}  # id(coin) -> the coin's drawn round
    for coin, db in rounds:
        if batch and (id(coin) in batch or len(batch) >= ROUND_BATCH_POSITIONS // coin.l):
            yield from _measure_batch(batch.values(), channel, eta)
            batch = {}
        batch[id(coin)] = (coin, db, *_draw_round(coin, rng))
    yield from _measure_batch(batch.values(), channel, eta) if batch else ()


def _measure_batch(batch: Iterable, channel: HonestChannel, eta: float) -> Iterator[tuple]:
    """Read and measure drawn rounds (coin, db, bases, measurement seed)
    with one sample read and one measurement for them all: each round's
    (coin, db, measured)."""
    coins, dbs, alphas, seeds = zip(*batch)
    samples, alphas = _read_samples(coins), np.array(alphas)
    measured = measure_positions([db.key for db in dbs], coins, samples, alphas, channel.beta, eta,
                                 [np.random.default_rng(seed) for seed in seeds])
    return zip(coins, dbs, zip(samples, alphas, *measured))


def _draw_round(coin: Coin, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """A round's draws, in order: the coin's sampler key at its first round,
    then the bases and the measurement seed.  With fewer than l unused
    positions the round cannot start: InsufficientPositionsError, and
    nothing is drawn."""
    if coin.unused() < coin.l:
        raise InsufficientPositionsError(f"coin has {coin.unused()} unused positions, verification needs {coin.l}")
    coin.sampler_key = coin.sampler_key or rng.bytes(SAMPLER_KEY_BYTES)
    return rng.integers(1, coin.n, size=coin.l), int(rng.integers(0, 2**63))


def _plan_round(coin: Coin, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """The sample, the bases and the measurement seed of a round the holder
    sends away (`client_verify`): `_draw_round`, then `_read_samples`."""
    alphas, measure_seed = _draw_round(coin, rng)
    return _read_samples([coin])[0], alphas, measure_seed


def _read_samples(coins: Sequence[Coin]) -> np.ndarray:
    """The next sample of each coin, one row of l positions per coin.

    A coin's sample is the next l values below the domain q - |masked| of
    its keyed permutation of [0, 2^b), 2^b the least power of two not below
    the domain, read from index `cursor` on and skipping the values past
    the domain (Black and Rogaway, CT-RSA 2002); each is then shifted past
    the masked range.  A permutation repeats no value, so no round takes a
    position an earlier one took, and the sample is uniform without
    replacement if the permutation is pseudorandom.  The coins share q, l
    and the length of `masked`, so every row reads one width, each from its
    own cursor under its own key, and every read is one `_permute` call."""
    l, masked = coins[0].l, len(coins[0].masked)
    domain = coins[0].q - masked
    bits = (domain - 1).bit_length()
    pieces, missing, rows = [[] for _ in coins], [l] * len(coins), range(len(coins))
    while rows:
        # The indices from a cursor on hold domain - sampled values below
        # the domain: read a few standard deviations past the share expected
        # to hold the missing ones, and read on if that falls short.
        ahead = 0
        for r in rows:
            rest = (1 << bits) - coins[r].cursor
            ahead = max(ahead, min(rest, (missing[r] + 4 * math.isqrt(missing[r]) + 4) * rest
                                   // (domain - coins[r].sampled)))
        indices = _joined([np.arange(coins[r].cursor, coins[r].cursor + ahead, dtype=np.uint64) for r in rows])
        values = _permute(b"".join([coins[r].sampler_key for r in rows]), indices.reshape(len(rows), ahead), bits)
        # A coin's unused positions are the values below the domain from its
        # cursor on, at least its missing ones: a row whose permutation ends
        # before `ahead` takes them all before the indices past its end.
        for row, r in zip(values, rows):
            taken = (row < domain).nonzero()[0][:missing[r]]
            pieces[r].append(row[taken])
            missing[r] -= len(taken)
            coins[r].cursor += ahead if missing[r] else int(taken[-1]) + 1
            coins[r].sampled += len(taken)
        rows = [r for r in rows if missing[r]]
    # The values are below 2^63, so their int64 view is the same numbers.
    sample = _joined([piece for row in pieces for piece in row]).reshape(len(coins), l).view(np.int64)
    if masked:
        np.add(sample, masked, out=sample, where=sample >= np.array([[coin.masked.start] for coin in coins]))
    return sample


# SplitMix64's output function (Steele, Lea and Flood, OOPSLA 2014): shift,
# multiply, shift, multiply, shift.  Operands of `_permute`'s ufunc calls
# are 0-d arrays, each call about 0.4 us cheaper than with a numpy scalar.
_SHIFT1, _MUL1, _SHIFT2, _MUL2, _SHIFT3 = (np.array(c, dtype=np.uint64)
                                           for c in (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))


def _permute(keys: bytes, idx: np.ndarray, bits: int) -> np.ndarray:
    """The image of each index (a uint64 array) under a keyed permutation
    of [0, 2^bits), one key per row of idx: keys holds the rows' keys one
    after another, and a 1-D idx takes one key.

    A Feistel network (Luby and Rackoff, SIAM J. Comput. 17, 1988) with one
    round per little-endian 64-bit word of the key, on a high half of
    bits - bits // 2 bits and a low half of bits // 2 bits.  Round r XORs
    one half, the high one first, with SplitMix64's output function of the
    other half XOR word r, cut to the half's width.  Each round undoes
    itself, so the map is a bijection for every key and width.  The round
    function is integer mixing, not a cipher: the holder samples its own
    coin.
    """
    words = np.frombuffer(keys, dtype="<u8").reshape(*idx.shape[:-1], -1)
    low = np.array(bits // 2, dtype=np.uint64)
    masks = [np.array((1 << width) - 1, dtype=np.uint64) for width in (bits - bits // 2, bits // 2)]
    halves = [idx >> low, idx & masks[1]]
    # Every pass runs in place, on the halves and two scratch buffers.
    z, t = np.empty_like(halves[0]), np.empty_like(halves[0])
    for r in range(words.shape[-1]):
        np.bitwise_xor(halves[1 - r % 2], words[..., r, None], z)
        z ^= np.right_shift(z, _SHIFT1, t)
        z *= _MUL1
        z ^= np.right_shift(z, _SHIFT2, t)
        z *= _MUL2
        z ^= np.right_shift(z, _SHIFT3, t)
        z &= masks[r % 2]
        halves[r % 2] ^= z
    halves[0] <<= low
    return np.bitwise_or(*halves, halves[0])


def _end_round(coin: Coin, sample: np.ndarray, alphas: np.ndarray, outcomes: tuple,
               params: VerdictParameters) -> tuple[VerificationTranscript, bool]:
    """End a round, wherever its outcomes (pair_i, pair_j, answer) were
    measured: its transcript, and whether the holder aborts it, which it
    does when a sample of l positions brought fewer than min_outcomes * l
    outcomes.  A sample of any other size never aborts, so the bank's check
    grades it `wrong_sample_size` and charges it."""
    transcript = VerificationTranscript(coin.coin_id, coin.l, sample, alphas, *outcomes)
    return transcript, len(sample) == coin.l and transcript.l_prime < params.min_outcomes * coin.l


def bank_check(db: BankDatabase, transcript: VerificationTranscript, params: VerdictParameters,
               errors: np.ndarray | None = None) -> CheckResult:
    """Bank-side verdict on a transcript.

    Valid iff the count of correct parities strictly exceeds l' * (c - delta),
    with lost outcomes excluded from both sides.  The check counter s
    advances once per call and saturates at T; checks after exhaustion are
    Invalid with code "coin_exhausted".  Structural violations (a sample or
    a claimed l other than the record's l, duplicate positions, out-of-range
    indices, a pair not in the claimed matching) consume a check and yield
    Invalid.

    errors, when given, are the error flags `measure_positions` returned
    when the bank itself measured the transcript's positions and bases
    under its key: in process (`holder_verify`) or in a wire `round`, whose
    positions and bases were range-checked first.  The nodes, pairs and
    bits are then the bank's own, so only the sample is judged (its size,
    then duplicates), and since a present outcome's bit is its parity XOR
    its error, l' minus the errors are correct, with no second derivation.
    Without errors (a wire `verify`, whose outcomes the holder reports) the
    check derives the present positions and judges every range, node and
    pair.
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
    pairs = None if errors is not None else (transcript.pair_i[present], transcript.pair_j[present])
    code = _structural_violation(db, transcript, present, pairs)
    if code is not None:
        return CheckResult(
            valid=False, s=db.s, T=db.T, correct_count=0,
            l_prime=l_prime, threshold=0.0, code=code,
        )
    threshold = l_prime * (params.c - params.delta)
    if errors is None:
        parity = pair_parities(db.key, db.n, transcript.positions[present], *pairs)
        errors = parity != transcript.answer[present]
    correct = l_prime - int(np.count_nonzero(errors))
    return CheckResult(
        valid=correct > threshold, s=db.s, T=db.T,
        correct_count=correct, l_prime=l_prime, threshold=threshold,
    )


def _structural_violation(db: BankDatabase, transcript: VerificationTranscript, present: np.ndarray,
                          pairs: tuple[np.ndarray, np.ndarray] | None) -> str | None:
    """The first rule the transcript breaks, in a fixed order, or None.
    pairs are the node pairs (pi, pj) of the present outcomes, None when the
    bank measured the transcript itself: then only the sample size and
    duplicates are judged.  One sort finds duplicates and the position
    range; every other range is a min/max reduction."""
    pos = transcript.positions
    if len(pos) != db.l or transcript.l != db.l:
        return "wrong_sample_size"
    ordered = np.sort(pos)
    if (ordered[1:] == ordered[:-1]).any():
        return "duplicate_position"
    if pairs is None:
        return None
    pi, pj = pairs
    if ordered[0] < 0 or ordered[-1] >= db.q:
        return "position_out_of_range"
    if transcript.alpha.min() < 1 or transcript.alpha.max() > db.n - 1:
        return "alpha_out_of_range"
    if transcript.answer.min() < -1 or transcript.answer.max() > 1:
        return "answer_not_a_bit"
    if pi.size and (min(pi.min(), pj.min()) < 1 or max(pi.max(), pj.max()) > db.n or (pi == pj).any()):
        return "node_out_of_range"
    if (pair_to_alpha(db.n).take(pi * (db.n + 1) + pj) != transcript.alpha[present]).any():
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
    """Monte Carlo tallies for honest coin lifecycles, with each verdict's
    share of the trials: `hmqm simulate` reports the record as it is."""

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
    valid_rate: float
    invalid_rate: float
    abort_rate: float
    reject_bound: float
    abort_bound: float | None


def run_honest_experiment(
    n: int, q: int, l: int, beta: float, trials: int, rng: np.random.Generator,
    eta: float = 1.0, epsilon: float = 0.0,
) -> HonestExperiment:
    """Mint and verify `trials` fresh coins through the honest channel.

    Each coin is minted, then its round drawn, as in a loop of `bank_mint`
    and `holder_verify`; `measure_rounds` measures the rounds a batch at a
    time and `holder_verify` grades each, with the same outcomes.  Raises
    ValueError unless trials >= 1: the rates divide by it.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    params = VerdictParameters.from_noise(n, beta, eta, epsilon)
    channel = HonestChannel(beta)
    tallies = {Verdict.VALID: 0, Verdict.INVALID: 0, Verdict.ABORTED: 0}
    for coin, db, measured in measure_rounds((bank_mint(n, q, l, rng) for _ in range(trials)), channel, eta, rng):
        tallies[holder_verify(coin, db, params, channel, rng, measured).verdict] += 1
    reject_bound, _, abort_bound = params.tail_bounds(l)
    valid, invalid, aborted = tallies.values()
    return HonestExperiment(
        n=n, q=q, l=l, beta=beta, eta=eta, epsilon=epsilon, trials=trials,
        valid=valid, invalid=invalid, aborted=aborted, valid_rate=valid / trials,
        invalid_rate=invalid / trials, abort_rate=aborted / trials,
        reject_bound=reject_bound, abort_bound=abort_bound,
    )
