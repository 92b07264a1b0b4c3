"""Reference physics for the test suite: the exact state model of the
hidden-matching retrieval games, and the checks built on it.

A secret n-bit string x is encoded in the n-dimensional pure state with
amplitudes (-1)^(x_i) / sqrt(n).  Measuring in the basis attached to a
perfect matching M, {(|i> + |j>)/sqrt(2), (|i> - |j>)/sqrt(2) : (i,j) in M},
yields a pair (i, j) and a bit b; on the ideal state b equals x_i xor x_j
with certainty.  Everything here is exact: outcome distributions and error
probabilities are computed in closed form and nothing is sampled.

The package ships only what its commands run: the protocol's rounds sample
outcomes in `protocol.measure_positions` at the closed-form rates of
`adversary.CHANNELS` and `bounds.e_max`.  The density matrices, the
symmetrized cloner, the one-photon block and the matching-set checks below
are the oracles those closed forms are tested against, with the reference
definition of the coins' secrets (`secret_bits`).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from hmqm import protocol

HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9
PROBABILITY_TOL = 1e-9
NORM_TOL = 1e-12
IMAG_TOL = 1e-10
AMPLITUDE_TOL = 1e-14


# States and measurements.

@dataclass(frozen=True)
class BitString:
    """An n-bit secret, bits indexed 1..n externally, 0..n-1 internally."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0 or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a non-empty 0/1 sequence")

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitString":
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=n)))


@dataclass(frozen=True)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    Validation tolerances: 1e-9 on Hermiticity and trace, eigenvalues
    >= -1e-9.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class AveragedPovm:
    """Two-outcome POVM {incorrect, correct} for the matching-averaged game."""

    incorrect: np.ndarray
    correct: np.ndarray


def hidden_matching_state(x: BitString) -> PureState:
    """Encode x in the n-dimensional state with amplitudes (-1)^(x_i)/sqrt(n)."""
    signs = 1.0 - 2.0 * np.array(x.bits, dtype=float)
    return PureState(signs / np.sqrt(x.n))


def maximally_mixed(n: int) -> DensityMatrix:
    return DensityMatrix(np.eye(n, dtype=complex) / n)


def outcome_distribution(rho: DensityMatrix, row: np.ndarray) -> np.ndarray:
    """Exact outcome probabilities for measuring rho in the basis of a
    matching, given as its row of `matching_table(n)`: n/2 pairs (i, j).

    Returns an array of shape (n/2, 2): entry (k, b) is the probability of
    pair k of the matching with bit b.  Probabilities within -1e-9 of [0, 1]
    are clamped; anything further out raises.
    """
    if rho.dim != 2 * len(row):
        raise ValueError(f"dimension mismatch: state {rho.dim}, matching on {2 * len(row)}")
    a = rho.mat
    probs = np.empty((len(row), 2))
    for k, (i, j) in enumerate(row.tolist()):
        ii, jj = i - 1, j - 1
        diag = (a[ii, ii] + a[jj, jj]).real
        cross = (a[ii, jj] + a[jj, ii]).real
        probs[k, 0] = 0.5 * (diag + cross)
        probs[k, 1] = 0.5 * (diag - cross)
    probs = _clamp(probs)
    total = probs.sum()
    if abs(total - 1.0) > PROBABILITY_TOL * probs.size:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return probs / total


def _clamp(p):
    """p (a probability or an array of them) clipped to [0, 1]; raises if any
    lies more than PROBABILITY_TOL outside it, or is NaN."""
    if not np.all((p >= -PROBABILITY_TOL) & (p <= 1.0 + PROBABILITY_TOL)):
        raise ValueError(f"probability outside [0, 1] beyond tolerance: {p}")
    return np.clip(p, 0.0, 1.0)


def error_probability_given_matching(
    rho: DensityMatrix, x: BitString, alpha: int, table: np.ndarray
) -> float:
    """Probability that the sampled bit disagrees with x_i xor x_j, measured
    in matching alpha of table (a `matching_table(n)`).

    Closed form: 1/2 * (1 - sum over pairs of (-1)^(x_i xor x_j) *
    (rho_ij + rho_ji)).
    """
    if rho.dim != x.n or x.n != len(table):
        raise ValueError("dimension mismatch between state, secret and matching")
    a = rho.mat
    acc = 0.0
    for i, j in table[alpha].tolist():
        sign = -1.0 if x.bits[i - 1] ^ x.bits[j - 1] else 1.0
        acc += sign * (a[i - 1, j - 1] + a[j - 1, i - 1]).real
    return float(_clamp(0.5 * (1.0 - acc)))


def fidelity(x: BitString, rho: DensityMatrix) -> float:
    """Overlap of rho with the ideal state for x: <phi_x| rho |phi_x>."""
    if rho.dim != x.n:
        raise ValueError("dimension mismatch between secret and state")
    amps = hidden_matching_state(x).amplitudes
    val = amps.conj() @ rho.mat @ amps
    if abs(val.imag) >= IMAG_TOL:
        raise ValueError(f"fidelity has imaginary part {val.imag}")
    return float(val.real)


def averaged_error_probability(rho: DensityMatrix, x: BitString, table: np.ndarray) -> float:
    """Mean error probability over a uniformly random matching of the set
    `table` (a `matching_table(n)`).

    Equals n / (2(n-1)) * (1 - fidelity), independent of which maximal
    disjoint set is used.
    """
    n = len(table)
    if rho.dim != n or x.n != n:
        raise ValueError("dimension mismatch between state, secret and matching set")
    return float(_clamp(n / (2.0 * (n - 1)) * (1.0 - fidelity(x, rho))))


def averaged_povm(x: BitString, table: np.ndarray) -> AveragedPovm:
    """Two-outcome POVM summarizing the averaged game for secret x.

    The incorrect element is n / (2(n-1)) * (1 - |phi_x><phi_x|); the correct
    element is its complement to the identity.  Tr[incorrect * rho] equals
    averaged_error_probability(rho, x, table) for every state rho.
    """
    n = len(table)
    if x.n != n:
        raise ValueError("secret length does not match the matching set")
    proj = hidden_matching_state(x).to_density().mat
    incorrect = n / (2.0 * (n - 1)) * (np.eye(n) - proj)
    return AveragedPovm(incorrect=incorrect, correct=np.eye(n) - incorrect)


# Matchings: the checks and the JSON form of a disjoint set, in the form of
# `hmqm.matchings.matching_table(n)`: an (n, n/2, 2) array whose row alpha
# holds matching alpha's pairs (i, j), and whose row 0 is zeros.

def partner(row: np.ndarray, i: int) -> int:
    """Return the node matched with i in a matching's row of pairs."""
    for a, b in row.tolist():
        if a == i:
            return b
        if b == i:
            return a
    raise ValueError(f"node {i} outside 1..{2 * len(row)}")


def matching_set_to_json(table: np.ndarray) -> str:
    """The set as {"n", "matchings"}, each matching a list of [i, j] pairs
    (tests/matching_set.schema.json)."""
    return json.dumps({"n": len(table), "matchings": table[1:].tolist()}, sort_keys=True)


def matching_set_from_json(text: str) -> np.ndarray:
    """The table matching_set_to_json wrote, each pair sorted to i < j and
    each matching's pairs sorted by i."""
    obj = json.loads(text)
    rows = [sorted((min(i, j), max(i, j)) for i, j in pairs) for pairs in obj["matchings"]]
    return np.array([[(0, 0)] * (obj["n"] // 2), *rows], dtype=np.int64)


def diagnose(table: np.ndarray) -> str | None:
    """Explain why table is not a maximal disjoint set, or None if it is.

    Checks the row count, that row 0 is zeros, that every other row is a
    partition of {1, ..., n} into pairs with i < j, and that no pair lies
    in two matchings.  n - 1 such matchings of n/2 distinct pairs cover
    every pair of K_n exactly once.
    """
    n = 2 * table.shape[1]
    if len(table) != n:
        return f"expected {n - 1} matchings, got {len(table) - 1}"
    if table[0].any():
        return "row 0 is not zeros"
    seen: dict[tuple[int, int], int] = {}
    for alpha in range(1, n):
        row = [tuple(p) for p in table[alpha].tolist()]
        for i, j in row:
            if not 1 <= i < j <= n:
                return f"matching {alpha} has pair ({i}, {j}), not 1 <= i < j <= {n}"
        if sorted(v for p in row for v in p) != list(range(1, n + 1)):
            return f"matching {alpha} does not partition {{1, ..., {n}}}"
        for p in row:
            if p in seen:
                return f"pair {p} appears in matchings {seen[p]} and {alpha}"
            seen[p] = alpha
    return None


def validate(table: np.ndarray) -> bool:
    """True iff table is a maximal pairwise-disjoint matching set."""
    return diagnose(table) is None


# The symmetrized cloner, whose per-copy error is bounds.e_max.

def pair_average(n: int) -> np.ndarray:
    """Average of phi_x (x) phi_x over all 2^n secrets, in closed form.

    Equals (identity + SWAP + n |Phi+><Phi+| - 2 D) / n^2 on the two-copy
    space, where |Phi+> is the maximally entangled state and D projects onto
    the doubled basis states |ii>.  So n^2 times it is the all-ones matrix
    on span{|ii>} and identity + SWAP on span{|ij> : i != j}: the f of
    bounds.build_q_matrix.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
    d = n * n
    swap = np.zeros((d, d))
    rows = np.arange(d)
    swap[rows, (rows % n) * n + rows // n] = 1.0
    ent = np.zeros(d)
    ent[np.arange(n) * (n + 1)] = 1.0 / np.sqrt(n)
    diag = np.zeros((d, d))
    diag[np.arange(n) * (n + 1), np.arange(n) * (n + 1)] = 1.0
    return (np.eye(d) + swap + n * np.outer(ent, ent) - 2.0 * diag) / n**2


def clone_shrink_factor(n: int) -> float:
    """Weight of the input state in each output of the symmetrized cloner."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return 0.5 * (n + 2) / (n + 1)


@dataclass(frozen=True)
class ClonePair:
    """The two single-copy reductions of a cloner output."""

    first: DensityMatrix
    second: DensityMatrix


def symmetric_clone(rho: DensityMatrix) -> ClonePair:
    """Clone rho by projecting rho (x) I/n onto the symmetric subspace.

    Built explicitly: the projector (identity + SWAP)/2 is applied to the
    extended two-copy state, the result renormalized, and both reductions
    returned.  For an encoded pure input the reductions equal
    v * phi_x + (1 - v)/n with v = clone_shrink_factor(n).
    """
    n = rho.dim
    d = n * n
    swap = np.zeros((d, d))
    rows = np.arange(d)
    swap[rows, (rows % n) * n + rows // n] = 1.0
    sym = 0.5 * (np.eye(d) + swap)
    extended = np.kron(rho.mat, np.eye(n) / n)
    projected = sym @ extended @ sym
    projected /= np.trace(projected).real
    t = projected.reshape(n, n, n, n)
    first = DensityMatrix(np.einsum("ikjk->ij", t))
    second = DensityMatrix(np.einsum("kikj->ij", t))
    return ClonePair(first, second)


def depolarization_for_error(x: BitString, beta: float) -> DensityMatrix:
    """Encoded state mixed with noise so every matching errs with rate beta.

    Returns v * phi_x + (1 - v) * I/n with v = 1 - 2*beta; requires
    0 <= beta <= 1/2.
    """
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta must be in [0, 1/2], got {beta}")
    v = 1.0 - 2.0 * beta
    proj = hidden_matching_state(x).to_density().mat
    return DensityMatrix(v * proj + (1.0 - v) * np.eye(x.n) / x.n)


# The one-photon block of a weak coherent source (hmqm.coherent).

def single_photon_block_amplitudes(x: BitString) -> np.ndarray:
    """Mode amplitudes of a one-photon block with phase pattern x.

    Built from the block's creation operator: a photon in the superposition
    mode sum_i (-1)^(x_i) a_i / sqrt(n) applied to the vacuum puts amplitude
    (-1)^(x_i) / sqrt(n) on mode i.
    """
    amps = np.zeros(x.n)
    for mode in range(x.n):
        amps[mode] = (-1.0) ** x.bits[mode] / math.sqrt(x.n)
    return amps


def single_photon_state_equivalence(x: BitString, block_amplitudes: np.ndarray | None = None) -> bool:
    """Whether the one-photon block equals the ideal encoded state.

    True when every amplitude matches within 1e-14.  block_amplitudes can be
    overridden to probe the check itself (a single flipped sign must make it
    return False).
    """
    if block_amplitudes is None:
        block_amplitudes = single_photon_block_amplitudes(x)
    ideal = hidden_matching_state(x).amplitudes
    return bool(np.max(np.abs(block_amplitudes - ideal)) < AMPLITUDE_TOL)


# Loss hiding (acceptance criterion 8).

def loss_hiding_weight_check(
    q: int, sent: int, l: int, params: protocol.VerdictParameters, trials: int, rng: np.random.Generator
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


# The coins' secrets.

def secret_bits(key: bytes, positions: np.ndarray, n: int) -> np.ndarray:
    """The n secret bits of each position, shape (len(positions), n), uint8.

    This is the reference definition of the secrets, written out apart from
    `protocol.pair_parities`, which reads their parities.  Position i's
    secret is the first n bits of AES-128 under `key` of the blocks i || w,
    for w = 0 .. ceil(n/128) - 1, each of i and w as 8 little-endian bytes,
    in `np.unpackbits` order (bit b is bit 7 - b % 8 of byte b // 8).  Every
    block of a call is encrypted in one `protocol._aes128_ecb` call.
    """
    words = -(-n // 128)
    blocks = np.empty((len(positions), words, 2), dtype="<i8")
    blocks[:, :, 0] = np.asarray(positions, dtype="<i8")[:, None]
    blocks[:, :, 1] = np.arange(words)
    stream = protocol._aes128_ecb(key, blocks).reshape(len(positions), 16 * words)
    return np.unpackbits(stream, axis=1)[:, :n]
