"""Perfect matchings of the complete graph and maximal pairwise-disjoint sets.

A matching on n nodes (n even) is a partition of {1, ..., n} into n/2
unordered pairs.  A maximal pairwise-disjoint set contains n - 1 matchings
that together cover every pair {i, j} exactly once, i.e. a one-factorization
of K_n.  The canonical set used everywhere in this package comes from the
circle construction: node n stays fixed while nodes 1..n-1 rotate, and the
matching with index alpha is the round that pairs node n with node alpha.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Matching:
    """A perfect matching: n/2 disjoint pairs covering {1, ..., n}.

    Pairs are stored sorted, with i < j inside each pair.  Indices are
    1-based.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        seen = set()
        for i, j in self.pairs:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"pair ({i}, {j}) is not 1 <= i < j <= {self.n}")
            seen.update((i, j))
        if len(self.pairs) != self.n // 2 or len(seen) != self.n:
            raise ValueError("pairs do not partition {1, ..., n}")


@dataclass(frozen=True)
class DisjointMatchingSet:
    """n - 1 pairwise-disjoint perfect matchings covering K_n.

    Matchings are addressed by a 1-based index alpha in 1..n-1.
    """

    n: int
    matchings: tuple[Matching, ...]

    def matching(self, alpha: int) -> Matching:
        if not 1 <= alpha <= len(self.matchings):
            raise ValueError(f"alpha must be in 1..{len(self.matchings)}, got {alpha}")
        return self.matchings[alpha - 1]

    @cached_property
    def pairs_array(self) -> np.ndarray:
        """All pairs as an int array of shape (n - 1, n/2, 2), for vector code."""
        arr = np.array([m.pairs for m in self.matchings], dtype=np.int64)
        arr.setflags(write=False)
        return arr


def build_disjoint_set(n: int) -> DisjointMatchingSet:
    """Build the canonical maximal disjoint matching set on n nodes.

    Circle construction: in round alpha (1-based), node n plays node alpha
    and the remaining nodes pair as alpha + k vs alpha - k modulo n - 1
    (residues mapped to 1..n-1).

    Parameters
    ----------
    n : even integer >= 2.

    Returns
    -------
    DisjointMatchingSet with n - 1 matchings covering each pair once.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    m = n - 1
    matchings = []
    for alpha in range(1, n):
        pairs = [(alpha, n)]
        for k in range(1, n // 2):
            a = (alpha + k - 1) % m + 1
            b = (alpha - k - 1) % m + 1
            pairs.append((min(a, b), max(a, b)))
        matchings.append(Matching(n, tuple(sorted(pairs))))
    return DisjointMatchingSet(n, tuple(matchings))
