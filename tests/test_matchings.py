from itertools import combinations

import pytest

from hmqm.matchings import DisjointMatchingSet, Matching, build_disjoint_set
from reference import diagnose, matching_set_from_json, matching_set_to_json, partner, validate


def test_n2_single_matching():
    mset = build_disjoint_set(2)
    assert len(mset.matchings) == 1
    assert mset.matchings[0].pairs == ((1, 2),)
    assert validate(mset)


def test_n4_unique_set():
    # The n=4 maximal disjoint set is unique up to matching order.
    mset = build_disjoint_set(4)
    got = {frozenset(m.pairs) for m in mset.matchings}
    expected = {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(1, 3), (2, 4)}),
        frozenset({(1, 4), (2, 3)}),
    }
    assert got == expected


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_every_pair_covered_exactly_once(n):
    mset = build_disjoint_set(n)
    assert len(mset.matchings) == n - 1
    seen = [p for m in mset.matchings for p in m.pairs]
    assert len(seen) == n * (n - 1) // 2
    assert set(seen) == set(combinations(range(1, n + 1), 2))
    assert validate(mset)
    assert diagnose(mset) is None


@pytest.mark.parametrize("n", [4, 8, 12])
def test_alpha_indexing_pairs_fixed_node(n):
    # Matching alpha is the round pairing node n with node alpha.
    mset = build_disjoint_set(n)
    for alpha in range(1, n):
        assert partner(mset.matching(alpha), n) == alpha
    with pytest.raises(ValueError):
        mset.matching(0)
    with pytest.raises(ValueError):
        mset.matching(n)


@pytest.mark.parametrize("n", [4, 8])
def test_partner_involution(n):
    mset = build_disjoint_set(n)
    for m in mset.matchings:
        for i in range(1, n + 1):
            assert partner(m, partner(m, i)) == i


def test_partner_out_of_range():
    m = build_disjoint_set(4).matching(1)
    with pytest.raises(ValueError):
        partner(m, 5)
    with pytest.raises(ValueError):
        partner(m, 0)


@pytest.mark.parametrize("n", [0, 3, 5, -2])
def test_build_rejects_bad_n(n):
    with pytest.raises(ValueError):
        build_disjoint_set(n)


def test_matching_rejects_malformed_pairs():
    with pytest.raises(ValueError):
        Matching(4, ((1, 2), (2, 4)))  # node 2 twice, node 3 missing
    with pytest.raises(ValueError):
        Matching(4, ((2, 1), (3, 4)))  # i >= j
    with pytest.raises(ValueError):
        Matching(4, ((1, 2), (3, 5)))  # out of range
    with pytest.raises(ValueError):
        Matching(4, ((1, 2),))  # wrong pair count
    with pytest.raises(ValueError):
        Matching(3, ((1, 2),))  # odd n


def test_diagnose_duplicate_pair():
    good = build_disjoint_set(4)
    m12 = Matching(4, ((1, 2), (3, 4)))
    m13 = Matching(4, ((1, 3), (2, 4)))
    broken = DisjointMatchingSet(4, (m12, m12, m13))
    msg = diagnose(broken)
    assert msg == "pair (1, 2) appears in matchings 1 and 2"
    assert not validate(broken)
    assert validate(good)


def test_diagnose_wrong_count():
    m12 = Matching(4, ((1, 2), (3, 4)))
    m13 = Matching(4, ((1, 3), (2, 4)))
    broken = DisjointMatchingSet(4, (m12, m13))
    assert diagnose(broken) == "expected 3 matchings, got 2"
    assert not validate(broken)


def test_diagnose_mixed_dimension():
    wrong_n = Matching(6, ((1, 2), (3, 4), (5, 6)))
    m4 = build_disjoint_set(4).matchings
    broken = DisjointMatchingSet(4, (m4[0], wrong_n, m4[2]))
    assert diagnose(broken) == "matching 2 is on 6 nodes, set is on 4"


@pytest.mark.parametrize("n", [4, 10])
def test_json_round_trip(n):
    mset = build_disjoint_set(n)
    text = matching_set_to_json(mset)
    again = matching_set_from_json(text)
    assert again == mset
    assert matching_set_to_json(again) == text


def test_from_json_normalizes_pair_order():
    text = '{"n": 4, "matchings": [[[2,1],[4,3]], [[3,1],[4,2]], [[4,1],[3,2]]]}'
    mset = matching_set_from_json(text)
    assert validate(mset)
    assert all(i < j for m in mset.matchings for i, j in m.pairs)


def test_pairs_array_shape_and_content():
    mset = build_disjoint_set(6)
    arr = mset.pairs_array
    assert arr.shape == (5, 3, 2)
    for alpha in range(1, 6):
        assert [tuple(p) for p in arr[alpha - 1]] == list(mset.matching(alpha).pairs)
    assert not arr.flags.writeable
