"""Security thresholds: cloning bounds and tolerable-noise limits.

The forging analysis rests on an operator norm: the best average fidelity of
any 1-to-2 cloner of the n-dimensional encoded states is at most n times the
largest eigenvalue of the objective Q on the n^3-dimensional triple space,
because the scaled identity at that eigenvalue is a feasible point of the
dual program (no SDP solver is involved).  Q commutes with S (x) S (x) S for
every diagonal +-1 matrix S and with P (x) P (x) P for every permutation P,
so it splits into a 4x4, a 3x3 and a 6x6 block (build_q_matrix), and
operator_norm certifies an upper bound on each block's top eigenvalue with a
Cholesky factorisation.  The bound costs the same at every n, and equals
1/2 + 1/n to rounding.  From it comes the minimum error an adversary must
cause on one of two verifiers, 1/4 - 1/(4(n - 1)) per copy before register
accounting (e_min scales it by 997/999), and so the channel noise the
protocol can tolerate: a threshold between honest and forged needs the
noise below that floor.  e_max is not that limit.  It is the per-copy error
of the symmetrized cloner implemented below, 1/4 - 1/(4(n + 1)), which lies
1/(2(n^2 - 1)) above the floor's undiscounted value.
"""

from dataclasses import dataclass

import numpy as np

from .qrg import BitString, DensityMatrix, hidden_matching_state

# A coin's positions are accounted per mille, in units of q / 1000: the bank
# allows T = q // (1000 l) checks, so auxiliary verification reveals at most
# one unit, register splitting masks one unit from each verifier, and a forged
# coin may replicate two (adversary.SPLIT_FRACTION and REPLICATION_CAP).
COIN_BUDGET_DIVISOR = 1000
# Fraction of coin positions an adversary cannot have replicated, relative to
# the fraction a verifier can sample: (1 - 3/1000) / (1 - 1/1000).  Two
# per-mille of positions go to register splitting, one to auxiliary
# verification knowledge, and each verifier's sampling excludes one per-mille.
REGISTER_DISCOUNT = (COIN_BUDGET_DIVISOR - 3) / (COIN_BUDGET_DIVISOR - 1)

UNIT_ROUNDOFF = 2.0**-53

# Blocks of 2 n^2 Q that do not depend on n (see build_q_matrix).  Sum-zero
# part of the one-odd-index sector, basis (abb, bab, bba):
_ONE_ODD_REST = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
# Three-odd-index sector: 2 + P12 + P13, with P12 and P13 the swaps of copies
# 1-2 and 1-3.  In the basis abc, bac, cab, acb, bca, cba each ordering
# differs from its neighbours (cyclically) by one of these swaps.
_THREE_ODD = 2.0 * np.eye(6) + np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1)


def pair_average(n: int) -> np.ndarray:
    """Average of phi_x (x) phi_x over all 2^n secrets, in closed form.

    Equals (identity + SWAP + n |Phi+><Phi+| - 2 D) / n^2 on the two-copy
    space, where |Phi+> is the maximally entangled state and D projects onto
    the doubled basis states |ii>.  So n^2 times it is the all-ones matrix
    on span{|ii>} and identity + SWAP on span{|ij> : i != j}.
    """
    _check_even(n)
    d = n * n
    swap = np.zeros((d, d))
    rows = np.arange(d)
    swap[rows, (rows % n) * n + rows // n] = 1.0
    ent = np.zeros(d)
    ent[np.arange(n) * (n + 1)] = 1.0 / np.sqrt(n)
    diag = np.zeros((d, d))
    diag[np.arange(n) * (n + 1), np.arange(n) * (n + 1)] = 1.0
    return (np.eye(d) + swap + n * np.outer(ent, ent) - 2.0 * diag) / n**2


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """A symmetric matrix, up to an orthogonal change of basis, as a direct
    sum: each (block, multiplicity) pair stands for that many copies of the
    block on the diagonal.  len() is the full dimension."""

    blocks: tuple[tuple[np.ndarray, int], ...]

    def __len__(self) -> int:
        return sum(len(block) * mult for block, mult in self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block, _ in self.blocks)


def build_q_matrix(n: int) -> BlockDiagonal:
    """Objective operator of the cloning program on the n^3 triple space,
    average over secrets of (phi_x (x) phi_x (x) 1 + phi_x (x) 1 (x) phi_x)/2,
    as three blocks whose spectra, with multiplicity, are Q's spectrum.

    From pair_average, 2 n^2 <ijk|Q|i'j'k'> = f(ij, i'j') [k = k'] +
    f(ik, i'k') [j = j'], with f = 1 between doubled pairs (ii, i'i'), f =
    identity + SWAP between pairs of distinct indices, and 0 between the two
    kinds.  Flipping the sign of any basis vector on all three copies leaves
    Q unchanged, so Q keeps the set of indices that occur an odd number of
    times in |ijk>; permuting indices on all three copies also leaves it
    unchanged.  The sectors:

    - one odd index a: |aaa>, |abb>, |bab>, |bba> for b != a (dimension
      3n - 2, n copies).  Within it 2 n^2 Q has |aaa>-|aaa> 2, |aaa>-|bab>
      and |aaa>-|bba> 1, abb-abb 2I, abb-bab and abb-bba I, bab-bab and
      bba-bba I + J, where J is all ones over b.  Sums over b give the 4x4
      block below on (|aaa>, abb, bab, bba sums normalized by sqrt(n - 1));
      vectors over b summing to zero give the 3x3 block _ONE_ODD_REST, once
      for each of the n - 2 such directions.
    - three odd indices a < b < c: the 6 orderings of (a, b, c), where
      2 n^2 Q = 2 + P12 + P13 (_THREE_ODD), C(n, 3) copies.

    Multiplicities n, n(n - 2) and C(n, 3) weigh dimensions 4, 3 and 6 up to
    n^3.  For n < 2^53 each entry is at most four correctly rounded
    operations away from its exact value (operator_norm counts that).
    """
    _check_even(n)
    r = np.sqrt(n - 1.0)
    one_odd = np.array([[2.0, 0.0, r, r], [0.0, 2.0, 1.0, 1.0], [r, 1.0, n, 0.0], [r, 1.0, 0.0, n]])
    scale = float(2 * n * n)
    return BlockDiagonal((
        (one_odd / scale, n),
        (_ONE_ODD_REST / scale, n * (n - 2)),
        (_THREE_ODD / scale, n * (n - 1) * (n - 2) // 6),
    ))


def operator_norm(h: BlockDiagonal | np.ndarray) -> float:
    """Certified upper bound on the largest eigenvalue of a real symmetric
    matrix, given as a BlockDiagonal or as a plain matrix (one block).

    For the PSD operators this package cares about it bounds the spectral
    norm.  Each k x k block B (exactly symmetric) gets lam = eigvalsh(B)[-1],
    a shift s = 2 (k+3)(k+2) u ||B||_F with u = 2^-53, and must then pass a
    Cholesky factorisation of M = (lam + s) I - B, formed in floating point;
    its bound is lam + s + eps with eps = 2 (k+3) u (tr M + ||B||_F).  The
    largest block bound is returned; a zero matrix gives 0.

    Why lam + s + eps >= lambda_max of the exact block: a Cholesky run that
    completes gives R with R^T R = M + E and |E| <= g |R^T| |R|, g =
    (k+1)u / (1 - (k+1)u) (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3), hence ||E||_2 <= g/(1 - g) tr M.  Forming M
    rounds each diagonal entry by at most u M_ii, and B's entries are within
    4u relative of the exact block (build_q_matrix; a plain matrix is exact
    as given), at most 4u ||B||_F in norm.  As R^T R >= 0, (lam + s) I minus
    the exact block is >= -eps0 I with eps0 <= (k+3) u (tr M + ||B||_F) to
    first order.  eps is twice that: the second half covers the O(k u)
    terms and the rounding of eps, of the returned sum and of n times it in
    fidelity_bound, each at most a few u ||B||_F.  A failed factorisation
    raises ArithmeticError instead of returning an uncertified value.
    """
    blocks = h.blocks if isinstance(h, BlockDiagonal) else ((h, 1),)
    return max(_certified_top(np.asarray(block)) for block, _ in blocks)


def _certified_top(b: np.ndarray) -> float:
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("operator must be square")
    if np.iscomplexobj(b) or not np.array_equal(b, b.T):
        raise ValueError("operator is not real symmetric")
    k = b.shape[0]
    frob = float(np.linalg.norm(b))
    if frob == 0.0:
        return 0.0
    lam = float(np.linalg.eigvalsh(b)[-1])
    shift = 2.0 * (k + 3) * (k + 2) * UNIT_ROUNDOFF * frob
    m = (lam + shift) * np.eye(k) - b
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"no Cholesky certificate at lambda = {lam!r}") from exc
    eps = 2.0 * (k + 3) * UNIT_ROUNDOFF * (float(np.trace(m)) + frob)
    return lam + shift + eps


def fidelity_bound(n: int) -> float:
    """Certified upper bound on the two-verifier average cloning fidelity.

    n * operator_norm(build_q_matrix(n)): the scaled identity at the
    certified eigenvalue bound is feasible for the dual program, so this is
    an upper bound by construction.  It equals 1/2 + 1/n up to about 1e-14;
    the top eigenvalue (n + 2) / (2 n^2) lives in the 4x4 block.
    """
    return n * operator_norm(build_q_matrix(n))


def pair_error_lower_bound(n: int) -> float:
    """Least total error the two verifiers of a cloned coin position share.

    Equals 1/2 - 1/(2(n-1)); consistent with the fidelity bound through the
    averaged-game error formula.
    """
    _check_even(n)
    return 0.5 - 0.5 / (n - 1)


def e_min(n: int) -> float:
    """Minimum per-verifier error rate a forger causes, after accounting.

    The pair bound splits evenly in the worst case, and only the 997/999
    sampleable-and-unreplicated fraction of positions carries it.
    """
    _check_even(n)
    return REGISTER_DISCOUNT * (0.25 - 0.25 / (n - 1))


def e_max(n: int) -> float:
    """Per-copy error rate of the symmetrized cloner (`symmetric_clone`).

    Equals 1/2 - (n + 2) / (4(n + 1)) = 1/4 - 1/(4(n + 1)), increasing
    toward 1/4.  It is not the largest honest-channel noise the protocol
    tolerates: it lies 1/(2(n^2 - 1)) above the exact threshold
    1/4 - 1/(4(n - 1)), the undiscounted per-copy floor behind `e_min`.
    Defined for every even n >= 2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return 0.5 - 0.25 * (n + 2) / (n + 1)


def lossy_e_min(base_error: float, epsilon: float, eta: float) -> float:
    """Adversary error floor once losses can hide a 3*epsilon/eta fraction.

    base_error is the lossless floor (e_min).  Requires 0 < eta <= 1 and
    0 <= 3*epsilon/eta < 1, which NaN fails.  The result may be <= 0,
    meaning no feasible protocol at these parameters.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if not 0.0 <= 3.0 * epsilon / eta < 1.0:
        raise ValueError(f"need 0 <= 3*epsilon/eta < 1, got epsilon={epsilon}, eta={eta}")
    return (base_error - 1.5 * epsilon / eta) / (1.0 - 3.0 * epsilon / eta)


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


@dataclass(frozen=True)
class CloneBound:
    """One row of the bounds table for a given dimension n."""

    n: int
    q_norm: float
    fidelity_bound: float
    pair_error_lower: float
    e_min: float
    e_max: float

    @classmethod
    def compute(cls, n: int) -> "CloneBound":
        q_norm = operator_norm(build_q_matrix(n))
        return cls(
            n=n,
            q_norm=q_norm,
            fidelity_bound=n * q_norm,
            pair_error_lower=pair_error_lower_bound(n),
            e_min=e_min(n),
            e_max=e_max(n),
        )


def _check_even(n: int) -> None:
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
