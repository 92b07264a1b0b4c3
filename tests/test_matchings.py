from itertools import combinations

import numpy as np
import pytest

from hmqm.matchings import matching_table, pair_to_alpha
from hmqm.protocol import MAX_N
from reference import diagnose, matching_set_from_json, matching_set_to_json, partner, validate

M12 = ((1, 2), (3, 4))
M13 = ((1, 3), (2, 4))
ZERO4 = ((0, 0), (0, 0))


def test_n2_single_matching():
    table = matching_table(2)
    assert table.tolist() == [[[0, 0]], [[1, 2]]]
    assert validate(table)


def test_n4_unique_set():
    # The n=4 maximal disjoint set is unique up to matching order.
    table = matching_table(4)
    got = {frozenset(map(tuple, row)) for row in table[1:].tolist()}
    expected = {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(1, 3), (2, 4)}),
        frozenset({(1, 4), (2, 3)}),
    }
    assert got == expected


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_every_pair_covered_exactly_once(n):
    table = matching_table(n)
    assert len(table) - 1 == n - 1
    seen = [tuple(p) for p in table[1:].reshape(-1, 2).tolist()]
    assert len(seen) == n * (n - 1) // 2
    assert set(seen) == set(combinations(range(1, n + 1), 2))
    assert validate(table)
    assert diagnose(table) is None


@pytest.mark.parametrize("n", [4, 8, 12])
def test_alpha_indexing_pairs_fixed_node(n):
    # Matching alpha is the round pairing node n with node alpha.
    table = matching_table(n)
    for alpha in range(1, n):
        assert partner(table[alpha], n) == alpha


@pytest.mark.parametrize("n", [4, 8])
def test_partner_involution(n):
    table = matching_table(n)
    for row in table[1:]:
        for i in range(1, n + 1):
            assert partner(row, partner(row, i)) == i


def test_partner_out_of_range():
    row = matching_table(4)[1]
    with pytest.raises(ValueError):
        partner(row, 5)
    with pytest.raises(ValueError):
        partner(row, 0)


@pytest.mark.parametrize("n", [0, 3, 5, -2])
def test_build_rejects_bad_n(n):
    with pytest.raises(ValueError):
        matching_table(n)


def test_diagnose_malformed_rows():
    # Each row must partition {1, ..., n} into pairs with i < j.
    def broken(row):
        return diagnose(np.array([ZERO4, row, M13, ((1, 4), (2, 3))]))

    assert broken(((1, 2), (2, 4))) == "matching 1 does not partition {1, ..., 4}"  # node 2 twice
    assert broken(((2, 1), (3, 4))) == "matching 1 has pair (2, 1), not 1 <= i < j <= 4"
    assert broken(((1, 2), (3, 5))) == "matching 1 has pair (3, 5), not 1 <= i < j <= 4"
    assert broken(M12) is None
    assert diagnose(np.array([((1, 2), (3, 4)), M12, M13, ((1, 4), (2, 3))])) == "row 0 is not zeros"


def test_diagnose_duplicate_pair():
    good = matching_table(4)
    broken = np.array([ZERO4, M12, M12, M13])
    msg = diagnose(broken)
    assert msg == "pair (1, 2) appears in matchings 1 and 2"
    assert not validate(broken)
    assert validate(good)


def test_diagnose_wrong_count():
    broken = np.array([ZERO4, M12, M13])
    assert diagnose(broken) == "expected 3 matchings, got 2"
    assert not validate(broken)


@pytest.mark.parametrize("n", [4, 10])
def test_json_round_trip(n):
    table = matching_table(n)
    text = matching_set_to_json(table)
    again = matching_set_from_json(text)
    assert np.array_equal(again, table)
    assert matching_set_to_json(again) == text


def test_from_json_normalizes_pair_order():
    text = '{"n": 4, "matchings": [[[2,1],[4,3]], [[3,1],[4,2]], [[4,1],[3,2]]]}'
    table = matching_set_from_json(text)
    assert validate(table)
    assert (table[1:, :, 0] < table[1:, :, 1]).all()


def test_table_is_the_circle_construction():
    # Round alpha pairs node n with node alpha, and nodes i and j below n
    # where i + j = 2 alpha modulo n - 1; each row's pairs have i < j and are
    # sorted by i, under a zero row 0.  The tables are built once per n.
    for n in range(2, MAX_N + 1, 2):
        table = matching_table(n)
        assert table is matching_table(n)
        assert table.shape == (n, n // 2, 2) and table.dtype == np.int64
        assert not table.flags.writeable and not table[0].any()
        alpha = np.arange(1, n)[:, None]
        i, j = table[1:, :, 0], table[1:, :, 1]
        assert (i < j).all() and (np.diff(i, axis=1) > 0).all()
        assert (np.sort(table[1:].reshape(n - 1, n), axis=1) == np.arange(1, n + 1)).all()
        fixed = j == n
        assert (fixed.sum(axis=1) == 1).all() and np.array_equal(i[fixed], alpha.ravel())
        assert ((i + j - 2 * alpha)[~fixed] % (n - 1) == 0).all()


def test_pair_to_alpha_inverts_the_table():
    # Every pair {i, j} of distinct nodes reads back the matching that holds
    # it, in either order; a node 0 or i = j reads 0.
    for n in range(2, MAX_N + 1, 2):
        table, inverse = matching_table(n), pair_to_alpha(n)
        assert inverse is pair_to_alpha(n)
        assert inverse.shape == (n + 1, n + 1) and inverse.dtype == np.int64
        assert not inverse.flags.writeable
        alpha = np.arange(1, n)[:, None]
        assert (inverse[table[1:, :, 0], table[1:, :, 1]] == alpha).all()
        assert np.array_equal(inverse, inverse.T)
        pair = ~np.eye(n + 1, dtype=bool)
        pair[0] = pair[:, 0] = False
        assert (inverse[pair] > 0).all() and not inverse[~pair].any()
