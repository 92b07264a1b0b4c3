"""Weak coherent-pulse realization of the encoded states.

A coin position can be realized as a block of n laser pulses with a fixed
phase pattern instead of a single photon across n modes.  The block carries
a Poisson-distributed photon number with mean |alpha|^2: zero photons look
like detector loss, one photon reproduces the single-photon encoded state
exactly, and two or more leak extra information to an adversary.  The
analysis here folds the vacuum fraction into the loss parameter and scales
the adversary's error floor by the single-photon fraction of the non-vacuum
events.
"""

import math
from dataclasses import dataclass

from . import bounds


@dataclass(frozen=True)
class BlockSource:
    """A block of n phase-coded pulses with per-block mean photon number
    |alpha|^2."""

    alpha: complex
    n: int

    def __post_init__(self):
        if not 0.0 < abs(self.alpha) < math.inf:
            raise ValueError(f"alpha must be nonzero and finite, got {self.alpha}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 2, got {self.n}")

    @property
    def mean_photons(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class PhotonStats:
    """Poisson photon-number split of one block."""

    p0: float
    p1: float
    p2plus: float


def photon_statistics(source: BlockSource) -> PhotonStats:
    """Vacuum, single-photon and multi-photon probabilities of a block.

    Below one photon per block p2plus is exp(-mu) mu^2 sum_j mu^j / (j+2)!,
    summed term by term: 1 - p0 - p1 cancels to rounding noise as mu goes
    to 0, and can come out negative."""
    mu = source.mean_photons
    p0 = math.exp(-mu)
    p1 = mu * p0
    if mu < 1.0:
        # The first term left out, mu^18 / 20!, is below 1e-18 of the sum.
        p2plus = p0 * mu * mu * math.fsum(mu**j / math.factorial(j + 2) for j in range(18))
    else:
        p2plus = 1.0 - p0 - p1
    return PhotonStats(p0=p0, p1=p1, p2plus=p2plus)


def fold_source_loss(eta_detector: float, source: BlockSource) -> float:
    """Effective loss parameter once vacuum blocks count as losses.

    Returns eta_detector * (1 - p0): a block produces an outcome only when
    it carries at least one photon and the detector fires.
    """
    if not 0.0 < eta_detector <= 1.0:
        raise ValueError(f"eta_detector must be in (0, 1], got {eta_detector}")
    return eta_detector * (1.0 - photon_statistics(source).p0)


def effective_adversary_error(base_error: float, source: BlockSource) -> float:
    """Adversary error floor once multi-photon blocks are given away free.

    Only the single-photon fraction of non-vacuum blocks forces errors, so
    the floor scales by p1 / (p1 + p2plus).
    """
    if not 0.0 <= base_error <= 0.5:
        raise ValueError(f"base_error must be in [0, 1/2], got {base_error}")
    stats = photon_statistics(source)
    return base_error * stats.p1 / (stats.p1 + stats.p2plus)


@dataclass(frozen=True)
class CoherentPoint:
    """The chained bound at one |alpha|^2: loss folding, loss-adjusted floor,
    multi-photon discount.  adjusted_floor and effective_error are None
    where the loss-hiding correction is undefined (3 epsilon >= eta_eff)."""

    alpha_sq: float
    p0: float
    p1: float
    p2plus: float
    effective_eta: float
    adjusted_floor: float | None
    effective_error: float | None

    @property
    def feasible(self) -> bool:
        return self.adjusted_floor is not None and self.adjusted_floor > 0.0


def coherent_pipeline(
    alpha_sq: float, n: int, eta_detector: float, epsilon: float
) -> CoherentPoint:
    """Full chain from block statistics to the adversary error floor.

    fold_source_loss gives the effective eta; the loss-adjusted floor comes
    from the lossless e_min(n) through the loss-hiding correction at that
    eta; the multi-photon discount scales it down.  An adjusted floor <= 0
    means no feasible protocol at these parameters (epsilon too large for
    the effective loss); the point is still returned, flagged infeasible.
    Where 3 epsilon >= eta_eff the correction is undefined, and the point is
    returned infeasible with both floors None.  An alpha_sq that is not
    finite and > 0, or a NaN or negative epsilon, raises ValueError.
    """
    if not 0.0 < alpha_sq < math.inf:
        raise ValueError(f"alpha_sq must be finite and > 0, got {alpha_sq}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    source = BlockSource(alpha=math.sqrt(alpha_sq), n=n)
    stats = photon_statistics(source)
    eta_eff = fold_source_loss(eta_detector, source)
    floor = effective = None
    if 3.0 * epsilon < eta_eff:
        floor = bounds.lossy_e_min(bounds.e_min(n), epsilon, eta_eff)
        effective = effective_adversary_error(floor, source) if floor > 0 else floor
    return CoherentPoint(
        alpha_sq=alpha_sq, p0=stats.p0, p1=stats.p1, p2plus=stats.p2plus,
        effective_eta=eta_eff, adjusted_floor=floor, effective_error=effective,
    )
