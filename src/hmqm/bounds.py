"""Security thresholds: cloning bounds and tolerable-noise limits.

The forging analysis rests on an operator norm: the best average fidelity of
any 1-to-2 cloner of the n-dimensional encoded states is at most n times the
largest eigenvalue of the objective Q on the n^3-dimensional triple space,
because the scaled identity at that eigenvalue is a feasible point of the
dual program (no SDP solver is involved).  Q commutes with S (x) S (x) S for
every diagonal +-1 matrix S and with P (x) P (x) P for every permutation P,
so it splits into a 4x4, a 3x3 and a 6x6 block (build_q_matrix), whose top
eigenvalues are known in closed form: (n + 2), 3 and 4, each over 2 n^2.
operator_norm certifies each stated top from above with a small Cholesky
factorisation in Python floats; it computes no eigenvalue and calls no
LAPACK routine.  The bound costs the same at every n up to MAX_BOUND_N, and
equals 1/2 + 1/n to rounding.  From it comes the minimum error an adversary
must cause on one of two verifiers, 1/4 - 1/(4(n - 1)) per copy before
register accounting (e_min scales it by 997/999), and so the channel noise
the protocol can tolerate: a threshold between honest and forged needs the
noise below that floor.  e_max is not that limit.  It is the per-copy error
of the symmetrized cloner, 1/4 - 1/(4(n + 1)), which lies 1/(2(n^2 - 1))
above the floor's undiscounted value.  Only these closed forms ship; the
cloner itself, and the exact state model the closed forms are checked
against, are the tests' reference physics (tests/reference.py).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
# Largest n whose divisor 2 n^2 is an exact float (2^53), so that dividing
# the certified bound of 2 n^2 Q by it loses at most one rounding.
MAX_BOUND_N = 2**26


@dataclass(frozen=True, eq=False)
class Block:
    """A real symmetric matrix, stored as rows of Python floats, and a
    candidate `top` for its largest eigenvalue.  `bound` certifies the
    candidate (see operator_norm) when first read and keeps the result, so
    a block shared by every n is certified once per process."""

    rows: tuple[tuple[float, ...], ...]
    top: float

    def __post_init__(self):
        given = self.rows.tolist() if isinstance(self.rows, np.ndarray) else self.rows
        rows = tuple(tuple(map(float, row)) for row in given)  # float() refuses a complex entry
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("operator must be square")
        if rows != tuple(zip(*rows)):
            raise ValueError("operator is not real symmetric")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "top", float(self.top))

    @cached_property
    def bound(self) -> float:
        return _certified_top(self.rows, self.top)


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """A symmetric matrix, up to an orthogonal change of basis, as a direct
    sum over an exact integer: each (block, multiplicity) pair stands for
    that many copies of the Block on the diagonal, and the sum is divided by
    `divisor` (at most 2^53, so it is an exact float).  len() is the full
    dimension, nbytes the size of the stored entries as float64."""

    blocks: tuple[tuple[Block, int], ...]
    divisor: int = 1

    def __post_init__(self):
        if not 1 <= self.divisor <= 2**53:
            raise ValueError(f"divisor must be in [1, 2^53], got {self.divisor}")

    def __len__(self) -> int:
        return sum(len(block.rows) * mult for block, mult in self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(8 * len(block.rows) ** 2 for block, _ in self.blocks)


# Blocks of 2 n^2 Q that do not depend on n (see build_q_matrix).  Sum-zero
# part of the one-odd-index sector, basis (abb, bab, bba); (2, 1, 1) is its
# top eigenvector:
_ONE_ODD_REST = Block(((2.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0)), top=3.0)
# Three-odd-index sector: 2 + P12 + P13, with P12 and P13 the swaps of copies
# 1-2 and 1-3.  In the basis abc, bac, cab, acb, bca, cba each ordering
# differs from its neighbours (cyclically) by one of these swaps, so the
# block is 2 + C + C^T for the cyclic shift C, with top 2 + 2 cos 0 = 4.
_THREE_ODD = Block(tuple(tuple(2.0 if j == i else 1.0 if (j - i) % 6 in (1, 5) else 0.0 for j in range(6))
                         for i in range(6)), top=4.0)


def check_bound_n(n: int) -> None:
    """Raise ValueError unless n is even and in [4, MAX_BOUND_N]: above
    MAX_BOUND_N = 2^26, n and 2 n^2 stop being exact floats."""
    _check_even(n)
    if n > MAX_BOUND_N:
        raise ValueError(f"n must be <= MAX_BOUND_N = 2^26 = {MAX_BOUND_N} for a certified bound, got {n}")


def build_q_matrix(n: int) -> BlockDiagonal:
    """Objective operator of the cloning program on the n^3 triple space,
    average over secrets of (phi_x (x) phi_x (x) 1 + phi_x (x) 1 (x) phi_x)/2,
    as three blocks of 2 n^2 Q over the divisor 2 n^2, whose spectra, with
    multiplicity, are Q's spectrum; each block states its top eigenvalue.

    The average of phi_x (x) phi_x over secrets is (identity + SWAP +
    n |Phi+><Phi+| - 2 D) / n^2, with |Phi+> the maximally entangled state
    and D the projector onto the doubled basis states |ii>.  So 2 n^2
    <ijk|Q|i'j'k'> = f(ij, i'j') [k = k'] + f(ik, i'k') [j = j'], with f = 1
    between doubled pairs (ii, i'i'), f = identity + SWAP between pairs of
    distinct indices, and 0 between the two kinds.  Flipping the sign of any
    basis vector on all three copies leaves Q unchanged, so Q keeps the set
    of indices that occur an odd number of times in |ijk>; permuting indices
    on all three copies also leaves it unchanged.  The sectors:

    - one odd index a: |aaa>, |abb>, |bab>, |bba> for b != a (dimension
      3n - 2, n copies).  Within it 2 n^2 Q has |aaa>-|aaa> 2, |aaa>-|bab>
      and |aaa>-|bba> 1, abb-abb 2I, abb-bab and abb-bba I, bab-bab and
      bba-bba I + J, where J is all ones over b.  Sums over b give the 4x4
      block below on (|aaa>, abb, bab, bba sums normalized by r = sqrt(n -
      1)); its top eigenvalue is n + 2, with eigenvector (2r, 2, n, n), as
      r^2 = n - 1 makes each row check.  Vectors over b summing to zero give
      the 3x3 block _ONE_ODD_REST (top 3), once for each of the n - 2 such
      directions.
    - three odd indices a < b < c: the 6 orderings of (a, b, c), where
      2 n^2 Q = 2 + P12 + P13 (_THREE_ODD, top 4), C(n, 3) copies.

    Multiplicities n, n(n - 2) and C(n, 3) weigh dimensions 4, 3 and 6 up to
    n^3, and n + 2 >= 6 > 4 > 3, so the 4x4 block holds Q's top eigenvalue
    (n + 2) / (2 n^2).  Each entry is exact except r, which math.sqrt rounds
    correctly, so every entry is within u = 2^-53 relative of its value
    (operator_norm counts that).  Takes the n that check_bound_n accepts.
    """
    check_bound_n(n)
    r = math.sqrt(n - 1)
    one_odd = Block(((2.0, 0.0, r, r), (0.0, 2.0, 1.0, 1.0), (r, 1.0, n, 0.0), (r, 1.0, 0.0, n)), top=n + 2)
    return BlockDiagonal((
        (one_odd, n),
        (_ONE_ODD_REST, n * (n - 2)),
        (_THREE_ODD, n * (n - 1) * (n - 2) // 6),
    ), divisor=2 * n * n)


def operator_norm(h: BlockDiagonal) -> float:
    """Certified upper bound on the largest eigenvalue of a BlockDiagonal,
    at each block's stated candidate top eigenvalue.

    For the PSD operators this package cares about it bounds the spectral
    norm.  Each k x k block B (exactly symmetric) takes a shift s = 2 (k+3)
    (k+2) u ||B||_F, with u = 2^-53, on its candidate top, and must then
    pass a Cholesky factorisation of M = (top + s) I - B, formed in floating
    point; its bound is top + s + eps with eps = 2 (k+3) u (tr M + ||B||_F).
    No eigenvalue is computed: a candidate more than s below the block's
    top eigenvalue fails the factorisation, and a failed factorisation
    raises ArithmeticError instead of returning an uncertified value.  A zero
    block's bound is 0.  The largest block bound is divided by the divisor
    and rounded up to the next float: the divisor is an exact float, so the
    quotient is correctly rounded and one step up is at or above the exact
    quotient.

    Why top + s + eps >= lambda_max of the exact block: a Cholesky run that
    completes gives R with R^T R = M + E and |E| <= g |R^T| |R|, g =
    (k+1)u / (1 - (k+1)u) (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3), hence ||E||_2 <= g/(1 - g) tr M.  Forming M
    rounds top + s and then each diagonal entry, at most u (|top + s| +
    M_ii), and |top + s| <= tr M + ||B||_F.  B's entries are within u
    relative of the exact block (build_q_matrix; a block given by hand is
    exact as given), at most u ||B||_F in norm.  As R^T R >= 0, (top + s) I
    minus the exact block is >= -eps0 I with eps0 <= (k+3) u (tr M +
    ||B||_F) to first order.  eps is twice that: the second half covers the
    O(k u) terms and the rounding of eps, of the returned sum and of n times
    it in fidelity_bound, each at most a few u (tr M + ||B||_F).

    Why the Python loop fits Thm 10.3: it is Cholesky's recurrence on the
    rows of M, each entry of R being (M_ij - sum of a_i b_i) / r_jj or
    sqrt(M_ii - sum of a_i^2), with every product, difference, quotient and
    square root rounded to nearest, and the terms subtracted one at a time
    from the left.  That is the recursive summation of Higham's Lemma 8.4,
    on which the theorem rests, on every Python version.  The loop does not
    call sum(): from Python 3.12 sum() adds floats with compensated
    (Neumaier) summation, whose error on j terms is at most u |sum| + O(j
    u^2) times the sum of their magnitudes.  That is within the lemma's
    bound too for j >= 3, and a sum of one or two terms is rounded once, so
    either would be covered; the explicit loop keeps one argument for every
    version.
    """
    top = max(block.bound for block, _ in h.blocks)
    return top if h.divisor == 1 else math.nextafter(top / h.divisor, math.inf)


def _certified_top(rows: tuple[tuple[float, ...], ...], top: float) -> float:
    k = len(rows)
    frob = math.hypot(*[x for row in rows for x in row])
    if frob == 0.0:
        return 0.0
    shift = 2.0 * (k + 3) * (k + 2) * UNIT_ROUNDOFF * frob
    diagonal = top + shift
    trace = 0.0
    factor: list[list[float]] = []  # rows of R^T
    for i, row in enumerate(rows):
        r: list[float] = []
        for j, above in enumerate(factor):
            entry = -row[j]  # M_ij
            for a, b in zip(r, above):
                entry -= a * b
            r.append(entry / above[j])
        pivot = diagonal - row[i]  # M_ii
        trace += pivot
        for a in r:
            pivot -= a * a
        if not pivot > 0.0:
            raise ArithmeticError(f"no Cholesky certificate at top = {top!r}")
        r.append(math.sqrt(pivot))
        factor.append(r)
    eps = 2.0 * (k + 3) * UNIT_ROUNDOFF * (trace + frob)
    return top + shift + eps


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
    """Per-copy error rate of the symmetrized cloner, which projects
    rho (x) I/n onto the symmetric subspace: each output is v * phi_x +
    (1 - v) I/n with v = (n + 2) / (2(n + 1)).

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
