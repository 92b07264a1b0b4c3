"""Shared oracles for the test suite.

Everything here recomputes quantities by a route independent of the package:
explicit projectors instead of closed forms, exhaustive sums instead of
algebraic shortcuts, single draws instead of batches.  Tests compare package
output against these.  `AesBlockCounter` counts the package's derivation work.
"""

import math
from itertools import product

import numpy as np

from hmqm import protocol
from hmqm.qrg import BitString, DensityMatrix


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """A full-rank random density matrix (Ginibre construction)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def state_vector(x: BitString) -> np.ndarray:
    """Encoded state amplitudes, written out directly."""
    return np.array([(-1.0) ** b for b in x.bits]) / math.sqrt(x.n)


def basis_vector(n: int, i: int, j: int, b: int) -> np.ndarray:
    """Measurement basis vector (|i> + (-1)^b |j>)/sqrt(2), 1-based i, j."""
    v = np.zeros(n)
    v[i - 1] = 1.0
    v[j - 1] = 1.0 if b == 0 else -1.0
    return v / math.sqrt(2.0)


def brute_error_probability(rho: DensityMatrix, x: BitString, matching) -> float:
    """Wrong-parity probability summed projector by projector."""
    total = 0.0
    for i, j in matching.pairs:
        parity = x.bits[i - 1] ^ x.bits[j - 1]
        wrong = basis_vector(rho.dim, i, j, parity ^ 1)
        total += float(np.real(wrong.conj() @ rho.mat @ wrong))
    return total


def brute_pair_average(n: int) -> np.ndarray:
    """Ensemble average of phi_x (x) phi_x over all 2^n secrets, by the sum."""
    acc = np.zeros((n * n, n * n))
    for bits in product((0, 1), repeat=n):
        v = state_vector(BitString(bits))
        w = np.kron(v, v)
        acc += np.outer(w, w)
    return acc / 2**n


def brute_q_matrix(n: int) -> np.ndarray:
    """The triple-space objective averaged over all 2^n secrets directly."""
    acc = np.zeros((n**3, n**3))
    eye = np.eye(n)
    for bits in product((0, 1), repeat=n):
        v = state_vector(BitString(bits))
        proj = np.outer(v, v)
        acc += np.kron(np.kron(proj, proj), eye)
        acc += np.kron(np.kron(proj, eye), proj)
    return acc / (2 ** (n + 1))


def block_spectrum(form) -> np.ndarray:
    """Sorted eigenvalues of a block form, each block's repeated by its
    multiplicity and divided by the form's divisor: the spectrum of the full
    matrix it stands for."""
    spectra = [np.repeat(np.linalg.eigvalsh(np.array(b.rows)), m) for b, m in form.blocks]
    return np.sort(np.concatenate(spectra)) / form.divisor


def binomial_tail_below(k: int, trials: int, p: float) -> float:
    """P(Binomial(trials, p) < k), exact via log factorials."""
    if k <= 0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(min(k, trials + 1)):
        log_pmf = (
            math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
            + j * log_p + (trials - j) * log_q
        )
        total += math.exp(log_pmf)
    return min(total, 1.0)


def measure_positions_reference(key: bytes, coin, positions: np.ndarray, alphas: np.ndarray,
                                beta: float, eta: float, rng: np.random.Generator):
    """`protocol.measure_positions` as a loop over positions: the same three
    draws, then each position's kind from the segments, its loss, its pair
    from the matching's own pairs and its error bit in turn, with the parity
    read off `secret_bits` of that one position."""
    n, k = coin.n, len(positions)
    u_loss = rng.random(k)
    pair_pick = rng.integers(0, n // 2, size=k)
    u_err = rng.random(k)
    error_rate = {protocol.PositionKind.GENUINE: beta, protocol.PositionKind.REPLICA: 0.0,
                  protocol.PositionKind.FORGED: coin.forged_error}
    matchings = protocol.matching_set(n)
    pair_i, pair_j = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    answer = np.full(k, -1, dtype=np.int8)
    errors = np.zeros(k, dtype=bool)
    for t, position in enumerate(positions.tolist()):
        kind = next(kind for stop, kind in coin.segments if position < stop)
        if kind == protocol.PositionKind.ABSENT or not u_loss[t] < eta:
            continue
        i, j = matchings.matching(int(alphas[t])).pairs[pair_pick[t]]
        x = protocol.secret_bits(key, np.array([position]), n)[0]
        errors[t] = u_err[t] < error_rate[kind]
        pair_i[t], pair_j[t] = i, j
        answer[t] = x[i - 1] ^ x[j - 1] ^ errors[t]
    return pair_i, pair_j, answer, errors


class AesBlockCounter:
    """Counts the AES blocks the package encrypts (`secret_bits` and
    `pair_parities` alike): ceil(n/128) per position, on every call."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = protocol._aes128_ecb

        def aes128_ecb(key, plaintext):
            self.count += memoryview(plaintext).nbytes // 16
            return real(key, plaintext)

        monkeypatch.setattr(protocol, "_aes128_ecb", aes128_ecb)
