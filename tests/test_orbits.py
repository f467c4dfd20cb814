"""The array orbit routine of the cat1 and cat2 classifiers, against oracles.

``oracle_orbit_maps`` conjugates one cat1 structure at a time and
``oracle_families`` joins positions with union-find, as the classifiers did
before the array orbit routine, now :func:`catsq.groups._orbit_labels`,
replaced both; they are kept here as the oracles of the array code.  The
one code lookup, :func:`catsq.groups._code_positions`, is tested on codes
and on rows, and through the guards of the Aut(G) closure and table.
"""

import random

import numpy as np
import pytest

from catsq import catalog, cat1, cat2, groups
from catsq.cat1 import (
    Classification,
    _orbit_labels,
    all_cat1_groups,
    cat1_isomorphism_classes,
    cat1_structure_orbit_maps,
)
from catsq.cat2 import cat2_isomorphism_classes, cat2_pair_indices
from catsq.groups import (GroupError, automorphism_generators, automorphism_group,
                          idempotent_endomorphisms)
import constructions
from test_groups import LIGHT_KEYS, fresh_copy


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def oracle_families(n, perms):
    """Orbits of ``perms`` on 0..n-1 by union-find, ordered by least member."""
    uf = UnionFind(n)
    for sigma in perms:
        for p, q in enumerate(sigma):
            uf.union(p, int(q))
    groups = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def oracle_orbit_maps(G):
    """Per Aut(G) generator a, the position of a o (t, h) o a^-1 for each
    cat1 structure (t, h), one structure at a time."""
    cat1s = all_cat1_groups(G)
    index = {constructions.key_of(c): p for p, c in enumerate(cat1s)}
    maps = []
    for am in automorphism_generators(G).tolist():
        inv = [0] * len(am)
        for x, v in enumerate(am):
            inv[v] = x
        maps.append(tuple(
            index[tuple(tuple(am[m[inv[x]]] for x in range(len(m))) for m in constructions.key_of(c))]
            for c in cat1s))
    return maps


def oracle_cat2_families(G, orbit_maps):
    """The cat2 families from the generator images of each sorted pair."""
    pairs = cat2_pair_indices(G)
    index = {p: pos for pos, p in enumerate(pairs)}
    perms = [[index[tuple(sorted((sigma[i], sigma[j])))] for i, j in pairs]
             for sigma in orbit_maps]
    return oracle_families(len(pairs), perms)


def oracle_problems(G, name):
    """Where the orbit maps or either family partition differ from the oracle."""
    problems = []
    maps = oracle_orbit_maps(G)
    if [tuple(row) for row in cat1_structure_orbit_maps(G).tolist()] != maps:
        problems.append(f"cat1 orbit maps differ on {name}")
    if cat1_isomorphism_classes(G).families != oracle_families(len(all_cat1_groups(G)), maps):
        problems.append(f"cat1 families differ on {name}")
    if cat2_isomorphism_classes(G).families != oracle_cat2_families(G, maps):
        problems.append(f"cat2 families differ on {name}")
    return problems


def test_orbit_maps_and_families_match_union_find_oracle():
    problems = []
    for key in LIGHT_KEYS:
        problems += oracle_problems(catalog.small_group(*key), f"{key[0]}/{key[1]}")
    assert not problems


def _families(labels):
    """The families view of ``labels``, through a Classification."""
    return Classification(None, labels, None).families


def test_orbit_labels_without_permutations():
    for perms in ([], np.empty((0, 4), dtype=np.intp)):
        labels = _orbit_labels(4, perms)
        assert labels.tolist() == [0, 1, 2, 3]
        assert _families(labels) == ((0,), (1,), (2,), (3,))
    for perms in ([], np.empty((3, 0), dtype=np.intp)):
        labels = _orbit_labels(0, perms)
        assert labels.shape == (0,) and not labels.flags.writeable
        assert _families(labels) == ()
        assert Classification(None, labels, None).leaders.tolist() == []


def _path_involutions(path, n):
    """Two involutions of 0..n-1 whose edges join ``path`` into one chain."""
    perms = [np.arange(n), np.arange(n)]
    for k, (a, b) in enumerate(zip(path, path[1:])):
        perms[k % 2][[a, b]] = b, a
    return perms


def test_orbit_families_long_chains(monkeypatch):
    # two shuffled chains and a fixed point: a least label has to travel
    # along each chain, which takes several rounds of propagation and jumping
    n = 201
    nodes = list(range(1, n))
    random.Random(7).shuffle(nodes)
    perms = _path_involutions(nodes[:120], n) + _path_involutions(nodes[120:], n)
    rounds = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda a, b: rounds.append(1) or array_equal(a, b))
    got = _families(_orbit_labels(n, perms))
    monkeypatch.undo()
    assert got == oracle_families(n, perms)
    assert got == ((0,), tuple(sorted(nodes[:120])), tuple(sorted(nodes[120:])))
    assert len(rounds) >= 3


def test_conjugation_outside_the_enumeration(monkeypatch):
    F = fresh_copy(catalog.small_group(8, 3))
    # a bijection of D8 that fixes 0 but is not an automorphism
    bogus = np.array([(0, 2, 1) + tuple(range(3, 8))])
    monkeypatch.setattr(cat1, "automorphism_generators", lambda G: bogus)
    with pytest.raises(GroupError, match="conjugating a cat1 structure left the enumeration"):
        cat1_structure_orbit_maps(F)


def test_orbit_maps_compare_whole_rows(monkeypatch):
    F = fresh_copy(catalog.small_group(8, 3))
    E, gens = groups._endomorphism_maps(F)[0], list(F.generators)
    # the transposition (4 7) is no automorphism of D8, but conjugating the
    # idempotents by it agrees with conjugating by the identity at the
    # generators, where endomorphisms are determined, and not on whole rows
    swap = np.array([0, 1, 2, 3, 7, 5, 6, 4])
    conj = swap[E[:, swap]]  # swap is its own inverse
    assert np.array_equal(conj[:, gens], E[:, gens]) and not np.array_equal(conj, E)
    monkeypatch.setattr(cat1, "automorphism_generators", lambda G: swap[None, :])
    with pytest.raises(GroupError, match="conjugating a cat1 structure left the enumeration"):
        cat1_structure_orbit_maps(F)


def test_automorphism_products_stay_in_the_automorphism_array(monkeypatch):
    G = catalog.small_group(8, 3)
    (E, A), gens = groups._endomorphism_maps(G), automorphism_generators(G)
    swap = np.array([0, 1, 2, 3, 7, 5, 6, 4])  # (4 7): no automorphism, fixes the generators

    def planted(rows):
        """A fresh D8 whose automorphism array is ``rows``."""
        monkeypatch.setattr(groups, "_endomorphism_maps", lambda _: (E, rows))
        return fresh_copy(G)

    # the row of (4 7) sorts right after the identity, so the closure takes
    # it as its first generator, and (4 7) o x leaves the array on the
    # generator columns for some automorphism x
    rows = np.vstack([A[:1], swap, A[1:]])
    for stage in (automorphism_generators, constructions.automorphism_group_as_table):
        with pytest.raises(GroupError, match="composing automorphisms left Aut"):
            stage(planted(rows))
    # a o (5 6) is no automorphism either.  It agrees with a on the
    # generator columns, which are all the closure reads, and on their
    # images under each generator, so only whole rows tell the table's
    # products by the generators from those of the true array
    F = planted(np.vstack([A[:-1], A[-1][[0, 1, 2, 3, 4, 6, 5, 7]]]))
    assert np.array_equal(automorphism_generators(F), gens)
    with pytest.raises(GroupError, match="composing automorphisms left Aut"):
        constructions.automorphism_group_as_table(F)
    # a generator image of the wrong order has no index in the End(G)
    # enumeration, so the closure refuses the row while coding it, before
    # any lookup
    g = min(G.generators, key=G.element_order)
    bad = A[-1].copy()
    bad[g] = next(x for x in G.elements() if G.element_order(g) % G.element_order(x))
    monkeypatch.setattr(groups, "_code_positions", None)
    with pytest.raises(GroupError, match="composing automorphisms left Aut"):
        automorphism_generators(planted(np.vstack([A, bad])))


def test_orbit_maps_find_every_moved_code(monkeypatch):
    G = catalog.small_group(8, 3)
    F = fresh_copy(G)
    tails, heads = cat1._cat1_pairs(F)
    # drop one member of a class of two or more, so that an automorphism
    # moves another member to a pair that is no longer enumerated
    family = next(f for f in cat1_isomorphism_classes(G).families if len(f) > 1)
    kept = np.arange(len(tails)) != family[-1]
    monkeypatch.setattr(cat1, "_cat1_pairs", lambda _: (tails[kept], heads[kept]))
    with pytest.raises(GroupError, match="conjugating a cat1 structure left the enumeration"):
        cat1_structure_orbit_maps(F)


def test_code_positions_need_a_permutation_of_the_codes():
    codes = np.array([2, 5, 7, 11])
    assert groups._code_positions(codes, np.array([7, 2, 11, 5]), "lost").tolist() == [2, 0, 3, 1]
    # every moved code is enumerated, but 5 is reached twice and 11 never
    with pytest.raises(GroupError, match="^lost$"):
        groups._code_positions(codes, np.array([7, 2, 5, 5]), "lost")
    # rows in lexicographic order are codes too, compared on every column
    rows = np.array([[0, 1, 2], [0, 1, 5], [0, 3, 1], [4, 0, 0]])
    moved = rows[[2, 0, 3, 1]]
    assert groups._code_positions(rows, moved, "lost").tolist() == [2, 0, 3, 1]
    for bad in (rows[[2, 0, 3, 3]],  # a repeated row, and row 1 never
                np.array([[0, 3, 1], [0, 1, 2], [4, 0, 0], [0, 1, 4]])):  # agrees on [0, 1] only
        with pytest.raises(GroupError, match="^lost$"):
            groups._code_positions(rows, bad, "lost")


def test_pair_scan_without_aut_generators():
    # Aut(C1) and Aut(C2) are trivial, so no partner row is transported
    for key in ((1, 1), (2, 1)):
        G = fresh_copy(catalog.small_group(*key))
        cat1s = all_cat1_groups(G)
        assert cat1_structure_orbit_maps(G).shape == (0, len(cat1s))
        naive = [(i, j) for i in range(len(cat1s)) for j in range(i, len(cat1s))
                 if next(cat2._noncommuting(cat1s[i], cat1s[j]), None) is None]
        assert cat2_pair_indices(G) == naive, key


def test_shared_memo_arrays_are_read_only():
    G = fresh_copy(catalog.small_group(8, 3))
    shared = (*groups._endomorphism_maps(G), automorphism_generators(G), *cat1._cat1_pairs(G),
              cat1_structure_orbit_maps(G), cat2._cat2_codes(G), groups._np_table(G))
    for A in shared:
        before = A.copy()
        with pytest.raises(ValueError):
            A[(0,) * A.ndim] = 1
        with pytest.raises(ValueError):
            A[...] = 0
        assert np.array_equal(A, before)


def test_shared_memo_lists_are_handed_out_as_copies():
    # no stage stores a list: each object list is built afresh from the arrays
    G = fresh_copy(catalog.small_group(8, 3))
    for stage in (automorphism_group, idempotent_endomorphisms, all_cat1_groups,
                  cat2.all_cat2_groups):
        first = stage(G)
        kept = list(first)
        first.reverse()
        first.append(None)
        first[0] = None
        again = stage(G)
        assert again == kept, stage.__name__
        assert again is not stage(G), stage.__name__


def test_aut_moves_cat2_outside_the_enumeration(monkeypatch):
    F = fresh_copy(catalog.small_group(8, 3))
    pairs = set(cat2_pair_indices(F))
    k = len(all_cat1_groups(F))
    # a cyclic shift of the cat1 positions, which some cat2 pair does not survive
    shift = np.roll(np.arange(k), 1)
    assert {tuple(sorted((shift[i], shift[j]))) for i, j in pairs} != pairs
    monkeypatch.setattr(cat2, "cat1_structure_orbit_maps", lambda G: shift[None, :])
    with pytest.raises(GroupError, match="Aut\\(G\\) moved a cat2 structure outside the enumeration"):
        cat2_isomorphism_classes(F)
