"""Hidden-matching retrieval games: states, measurements, error probabilities.

A secret n-bit string x is encoded in the n-dimensional pure state with
amplitudes (-1)^(x_i) / sqrt(n).  Measuring in the basis attached to a
perfect matching M, {(|i> + |j>)/sqrt(2), (|i> - |j>)/sqrt(2) : (i,j) in M},
yields a pair (i, j) and a bit b; on the ideal state b equals x_i xor x_j
with certainty.  Everything here is exact: outcome distributions and error
probabilities are computed in closed form and nothing is sampled.  The
protocol's rounds sample outcomes in `protocol.measure_positions`.
"""

from dataclasses import dataclass

import numpy as np

from .matchings import DisjointMatchingSet, Matching

HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9
PROBABILITY_TOL = 1e-9
NORM_TOL = 1e-12
IMAG_TOL = 1e-10


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


def outcome_distribution(rho: DensityMatrix, m: Matching) -> np.ndarray:
    """Exact outcome probabilities for measuring rho in the basis of m.

    Returns an array of shape (n/2, 2): entry (k, b) is the probability of
    pair k of the matching with bit b.  Probabilities within -1e-9 of [0, 1]
    are clamped; anything further out raises.
    """
    if rho.dim != m.n:
        raise ValueError(f"dimension mismatch: state {rho.dim}, matching on {m.n}")
    a = rho.mat
    probs = np.empty((len(m.pairs), 2))
    for k, (i, j) in enumerate(m.pairs):
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
    rho: DensityMatrix, x: BitString, alpha: int, mset: DisjointMatchingSet
) -> float:
    """Probability that the sampled bit disagrees with x_i xor x_j.

    Closed form: 1/2 * (1 - sum over pairs of (-1)^(x_i xor x_j) *
    (rho_ij + rho_ji)).
    """
    m = mset.matching(alpha)
    if rho.dim != x.n or x.n != m.n:
        raise ValueError("dimension mismatch between state, secret and matching")
    a = rho.mat
    acc = 0.0
    for i, j in m.pairs:
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


def averaged_error_probability(rho: DensityMatrix, x: BitString, mset: DisjointMatchingSet) -> float:
    """Mean error probability over a uniformly random matching of the set.

    Equals n / (2(n-1)) * (1 - fidelity), independent of which maximal
    disjoint set is used.
    """
    n = mset.n
    if rho.dim != n or x.n != n:
        raise ValueError("dimension mismatch between state, secret and matching set")
    return float(_clamp(n / (2.0 * (n - 1)) * (1.0 - fidelity(x, rho))))


def averaged_povm(x: BitString, mset: DisjointMatchingSet) -> AveragedPovm:
    """Two-outcome POVM summarizing the averaged game for secret x.

    The incorrect element is n / (2(n-1)) * (1 - |phi_x><phi_x|); the correct
    element is its complement to the identity.  Tr[incorrect * rho] equals
    averaged_error_probability(rho, x, mset) for every state rho.
    """
    n = mset.n
    if x.n != n:
        raise ValueError("secret length does not match the matching set")
    proj = hidden_matching_state(x).to_density().mat
    incorrect = n / (2.0 * (n - 1)) * (np.eye(n) - proj)
    return AveragedPovm(incorrect=incorrect, correct=np.eye(n) - incorrect)
