"""The canonical maximal disjoint set of perfect matchings of K_n, as tables.

A matching on n nodes (n even) is a partition of {1, ..., n} into n/2
unordered pairs.  A maximal pairwise-disjoint set contains n - 1 matchings
that together cover every pair {i, j} exactly once, i.e. a one-factorization
of K_n.  The canonical set used everywhere in this package comes from the
circle construction: node n stays fixed while nodes 1..n-1 rotate, and the
matching with index alpha is the round that pairs node n with node alpha.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def matching_table(n: int) -> np.ndarray:
    """The canonical set as a read-only int64 array of shape (n, n/2, 2).

    Row alpha in 1..n-1 holds matching alpha's n/2 pairs (i, j), each with
    i < j, sorted by i; row 0 is zeros.  Circle construction: in round
    alpha, node n plays node alpha and the remaining nodes pair as
    alpha + k vs alpha - k modulo n - 1 (residues mapped to 1..n-1).
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    alpha, k = np.arange(1, n)[:, None], np.arange(n // 2)
    a = (alpha + k - 1) % (n - 1) + 1
    b = (alpha - k - 1) % (n - 1) + 1
    b[:, 0] = n
    i, j = np.minimum(a, b), np.maximum(a, b)
    order = i.argsort(axis=1)
    table = np.zeros((n, n // 2, 2), dtype=np.int64)
    table[1:, :, 0] = np.take_along_axis(i, order, axis=1)
    table[1:, :, 1] = np.take_along_axis(j, order, axis=1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def pair_to_alpha(n: int) -> np.ndarray:
    """The inverse of `matching_table(n)`: a read-only (n + 1, n + 1) int64
    array whose entry (i, j) is the matching that holds pair {i, j}, and 0
    where no matching holds it (i = j, or a node 0)."""
    table, alpha = matching_table(n), np.arange(n)[:, None]
    inverse = np.zeros((n + 1, n + 1), dtype=np.int64)
    inverse[table[..., 0], table[..., 1]] = alpha
    inverse[table[..., 1], table[..., 0]] = alpha
    inverse.setflags(write=False)
    return inverse
