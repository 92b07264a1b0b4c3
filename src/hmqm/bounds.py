"""Security thresholds: cloning bounds and tolerable-noise limits.

The forging analysis rests on an operator norm: the best average fidelity of
any 1-to-2 cloner of the n-dimensional encoded states is at most n times the
largest eigenvalue of an explicitly built matrix on the n^3-dimensional
triple space, certified by a feasible point of the dual program (no SDP
solver is involved).  From that bound come the minimum error an adversary
must cause on one of two verifiers (e_min, after register accounting) and
the maximum channel noise the protocol can tolerate (e_max, achieved by the
symmetrized cloner implemented below).
"""

from dataclasses import dataclass

import numpy as np

from .qrg import BitString, DensityMatrix, hidden_matching_state

# Fraction of coin positions an adversary cannot have replicated, relative to
# the fraction a verifier can sample: (1 - 3/1000) / (1 - 1/1000).  Two
# per-mille of positions go to register splitting, one to auxiliary
# verification knowledge, and each verifier's sampling excludes one per-mille.
REGISTER_DISCOUNT = 997.0 / 999.0

DENSE_EIG_MAX_DIM = 1000
POWER_TOL = 1e-10
POWER_MAX_ITER = 100_000
DEFAULT_MEMORY_BUDGET = 2_000_000_000  # bytes


def pair_average(n: int) -> np.ndarray:
    """Average of phi_x (x) phi_x over all 2^n secrets, in closed form.

    Equals (identity + SWAP + n |Phi+><Phi+| - 2 D) / n^2 on the two-copy
    space, where |Phi+> is the maximally entangled state and D projects onto
    the doubled basis states |ii>.
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


def build_q_matrix(n: int, memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """Objective operator of the cloning program on the n^3 triple space.

    Average over secrets of (phi_x (x) phi_x (x) 1 + phi_x (x) 1 (x) phi_x)/2,
    assembled from the two-copy pair average rather than the 2^n sum.
    """
    _check_even(n)
    if 5 * 8 * n**6 > memory_budget_bytes:
        raise MemoryError(
            f"n = {n} needs about {5 * 8 * n**6} bytes, budget is {memory_budget_bytes}"
        )
    avg = pair_average(n)
    first = np.kron(avg, np.eye(n))
    # Second term acts on copies 1 and 3: permute the middle and last factors.
    second = (
        first.reshape(n, n, n, n, n, n).transpose(0, 2, 1, 3, 5, 4).reshape(n**3, n**3)
    )
    return 0.5 * (first + second)


def operator_norm(h: np.ndarray, method: str = "auto") -> float:
    """Largest (algebraic) eigenvalue of a Hermitian matrix.

    For the PSD operators this package cares about it coincides with the
    spectral norm.  Dense eigendecomposition up to dimension 1000; above
    that, power iteration on the positively shifted matrix, stopped once the
    residual |h v - rayleigh v| is below 1e-10 (relative).  That residual
    puts the Rayleigh quotient within 1e-10 of some eigenvalue of h, not
    necessarily the largest, so the power path gives no certified upper
    bound.

    Parameters
    ----------
    h : Hermitian matrix.
    method : "auto", "dense" or "power" (override for cross-checks).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("operator must be square")
    if np.max(np.abs(h - h.conj().T)) > 1e-9:
        raise ValueError("operator is not Hermitian")
    if method == "auto":
        method = "dense" if h.shape[0] <= DENSE_EIG_MAX_DIM else "power"
    if method == "dense":
        return float(np.linalg.eigvalsh(h)[-1])
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    # Shift by the Frobenius norm so the largest algebraic eigenvalue of
    # h + shift*I dominates in magnitude; undo the shift afterwards.
    shift = float(np.linalg.norm(h))
    if shift == 0.0:
        return 0.0
    return _power_top_eigenvalue(h, shift)


def _power_top_eigenvalue(h: np.ndarray, shift: float) -> float:
    dim = h.shape[0]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(dim)
    if np.iscomplexobj(h):
        v = v + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(POWER_MAX_ITER):
        w = h @ v + shift * v
        lam = float(np.real(np.vdot(v, w)))
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= POWER_TOL * max(1.0, abs(lam)):
            return lam - shift
        v = w / np.linalg.norm(w)
    raise RuntimeError(f"power iteration did not converge in {POWER_MAX_ITER} iterations")


def fidelity_bound(n: int, memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET) -> float:
    """Certified upper bound on the two-verifier average cloning fidelity.

    Computed as n * operator_norm(build_q_matrix(n)); the scaled identity at
    that norm is feasible for the dual program, so the value is an upper
    bound whenever the norm is (the dense path of operator_norm; see there
    for the power path), numerically equal to 1/2 + 1/n on the verified
    range.
    """
    return n * operator_norm(build_q_matrix(n, memory_budget_bytes))


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
    """Largest honest-channel error rate the protocol can tolerate.

    At this rate the symmetrized cloner's output is indistinguishable from
    the honest channel, so acceptance would break unforgeability.  Equals
    1/2 - (n + 2) / (4(n + 1)), increasing toward 1/4.  Defined for every
    even n >= 2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return 0.5 - 0.25 * (n + 2) / (n + 1)


def lossy_e_min(base_error: float, epsilon: float, eta: float) -> float:
    """Adversary error floor once losses can hide a 3*epsilon/eta fraction.

    base_error is the lossless floor (e_min).  Requires 0 < eta <= 1 and
    0 <= 3*epsilon/eta < 1.  The result may be <= 0, meaning no feasible
    protocol at these parameters.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if epsilon < 0.0 or 3.0 * epsilon / eta >= 1.0:
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

    CSV_HEADER = "n,q_norm,fidelity_bound,pair_error_lower,e_min,e_max"

    @classmethod
    def compute(cls, n: int, memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET) -> "CloneBound":
        q_norm = operator_norm(build_q_matrix(n, memory_budget_bytes))
        return cls(
            n=n,
            q_norm=q_norm,
            fidelity_bound=n * q_norm,
            pair_error_lower=pair_error_lower_bound(n),
            e_min=e_min(n),
            e_max=e_max(n),
        )

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.q_norm!r},{self.fidelity_bound!r},"
            f"{self.pair_error_lower!r},{self.e_min!r},{self.e_max!r}"
        )


def _check_even(n: int) -> None:
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
