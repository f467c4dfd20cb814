import pytest

from catsq import catalog
from catsq.groups import idempotent_endomorphisms, isomorphism_between
from catsq.tables import expected_counts


def test_catalog_is_complete():
    assert len(catalog.catalog_keys()) == 92
    per_order = {o: 0 for o in range(1, 31)}
    for o, _ in catalog.catalog_keys():
        per_order[o] += 1
    assert per_order[16] == 14 and per_order[24] == 15 and per_order[27] == 5


def test_groups_of_order_12_names():
    names = [e.name for e in catalog.groups_of_order(12)]
    assert names == ["C3 : C4", "C12", "A4", "D12", "C6 x C2"]


def test_groups_of_order_bounds():
    assert len(catalog.groups_of_order(1)) == 1
    assert len(catalog.groups_of_order(16)) == 14
    with pytest.raises(catalog.CatalogKeyError):
        catalog.groups_of_order(31)
    with pytest.raises(catalog.CatalogKeyError):
        catalog.groups_of_order(0)


def test_small_group_examples():
    q8 = catalog.small_group(8, 4)
    assert q8.order == 8 and len(idempotent_endomorphisms(q8)) == 2
    a4 = catalog.small_group(12, 3)
    assert a4.order == 12 and not a4.is_abelian()
    assert catalog.small_group(1, 1).order == 1


def test_small_group_bad_key_lists_valid_ids():
    with pytest.raises(catalog.CatalogKeyError, match=r"valid ids for order 12"):
        catalog.small_group(12, 9)


def test_every_entry_has_stated_order_and_ie_fingerprint():
    for order, gid in catalog.catalog_keys():
        G = catalog.small_group(order, gid)
        assert G.order == order, (order, gid)
        # |IE| doubles as the catalog fingerprint; the reference row for
        # (16,14) prints an impossible value, so that one is checked against
        # the true count instead.
        want = 802 if (order, gid) == (16, 14) else expected_counts(order, gid)[0]
        assert len(idempotent_endomorphisms(G)) == want, (order, gid)


def test_entries_within_an_order_are_pairwise_distinct():
    for order in range(1, 31):
        entries = catalog.groups_of_order(order)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                A = catalog.small_group(order, entries[i].gid)
                B = catalog.small_group(order, entries[j].gid)
                assert isomorphism_between(A, B) is None, (order, entries[i].gid, entries[j].gid)


def test_identify_round_trip_all_entries():
    for order, gid in catalog.catalog_keys():
        assert catalog.identify_group(catalog.small_group(order, gid)) == (order, gid)


def test_identify_examples(d20):
    assert catalog.identify_group(catalog.small_group(1, 1)) == (1, 1)
    assert catalog.identify_group(d20) == (20, 4)


def test_identify_rejects_large_groups():
    from catsq.groups import group_from_permutation_generators

    c31 = group_from_permutation_generators([[tuple(range(1, 32))]], "C31")
    with pytest.raises(catalog.CatalogKeyError, match="outside the catalog"):
        catalog.identify_group(c31)


def _table_properties(G):
    """(involutions, centre order, set of element orders) of ``G``, read off
    its multiplication table alone."""
    T = G.table
    n = len(T)

    def order(x):
        k, y = 1, x
        while y != 0:
            y, k = T[y][x], k + 1
        return k

    involutions = sum(1 for x in range(1, n) if T[x][x] == 0)
    centre = sum(1 for x in range(n) if all(T[x][y] == T[y][x] for y in range(n)))
    return involutions, centre, {order(x) for x in range(n)}


def test_keys_with_equal_rows_are_told_apart_by_structure():
    """20/1 and 20/3, and 24/1 and 24/4, have equal reference rows and equal
    computed rows, so only their names tell them apart.  The SmallGroups
    numbering (Besche, Eick and O'Brien) gives each a property that the
    other lacks: Q20 and Q24 are dicyclic, with one involution; the
    Frobenius group C5 : C4 has a trivial centre; C3 : C8 has an element of
    order 8."""
    assert expected_counts(20, 1) == expected_counts(20, 3)
    assert expected_counts(24, 1) == expected_counts(24, 4)
    props = {key: _table_properties(catalog.small_group(*key))
             for key in ((20, 1), (20, 3), (24, 1), (24, 4))}
    assert props[20, 1][:2] == (1, 2)  # Q20
    assert props[20, 3][:2] == (5, 1)  # C5 : C4
    assert 8 in props[24, 1][2]  # C3 : C8
    assert props[24, 4][0] == 1 and 8 not in props[24, 4][2]  # Q24
