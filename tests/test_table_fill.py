"""The group tables built along the right Cayley tree equal the pairwise
composition tables, the dense products equal their pairwise multiplication
tables, and the one Light's-test path of ``_check_table`` rejects exactly
the tables that the exhaustive axiom check rejects."""

import itertools
import random
import re

import pytest

from catsq import catalog, xsq
from catsq.cat2 import all_cat2_groups
from catsq.groups import (
    DenseGroup,
    GroupError,
    SemidirectGroup,
    _pcompose,
    as_dense,
    automorphism_group,
    perm_from_cycles,
    semidirect_product,
    subgroup_generated,
)
from constructions import automorphism_group_as_table, direct_product, trivial_action
from test_groups import verify_group_axioms

# Aut(G) tables are compared for the catalog groups with |Aut(G)| up to this
# size (86 of 92); the pairwise oracle costs |Aut(G)|^2 compositions.
AUT_ORACLE_MAX = 200


def _pairwise_table(elems):
    """The multiplication table of ``elems`` by composing every pair."""
    index = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index[_pcompose(p, q)] for q in elems) for p in elems)


def _pairwise_group(gens, label):
    """(table, generators) of the permutation group on ``gens``: the
    breadth-first closure with sorted frontiers, filled pair by pair."""
    gen_perms = [perm_from_cycles(g) for g in gens]
    degree = max([1] + [len(p) for p in gen_perms])
    gen_perms = [p + tuple(range(len(p), degree)) for p in gen_perms]
    elems = [tuple(range(degree))]
    seen = set(elems)
    frontier = elems[:]
    while frontier:
        frontier = sorted({_pcompose(x, g) for x in frontier for g in gen_perms} - seen)
        seen.update(frontier)
        elems += frontier
    table = _pairwise_table(elems)
    index = {p: i for i, p in enumerate(elems)}
    G = DenseGroup(table, label, [index[p] for p in gen_perms], check=False)
    return table, G.generators


def test_catalog_tables_match_pairwise_composition():
    for key in catalog.catalog_keys():
        G = catalog.small_group(*key)
        entry = catalog.catalog_entry(*key)
        table, generators = _pairwise_group(entry.generators, entry.name)
        assert G.table == table, key
        assert G.generators == generators, key


def test_aut_tables_match_pairwise_composition():
    compared = 0
    for key in catalog.catalog_keys():
        G = catalog.small_group(*key)
        if len(automorphism_group(G)) > AUT_ORACLE_MAX:
            continue
        A, maps = automorphism_group_as_table(G)
        assert maps == tuple(a.mapping for a in automorphism_group(G))
        assert A.table == _pairwise_table(maps), key
        assert A.generators == DenseGroup(A.table, A.label, check=False).generators
        compared += 1
    assert compared == 86


def _pairwise_dense(G):
    """(table, generators) of ``G`` filled by multiplying every pair."""
    table = tuple(tuple(G.mul(a, b) for b in G.elements()) for a in G.elements())
    return table, DenseGroup(table, G.label, G.generators, check=False).generators


@pytest.fixture
def products(monkeypatch):
    """Records (S, R, action, result) of every ``semidirect_product`` call
    made by ``xsq.cat2_of_crossed_square``."""
    calls = []

    def recording(S, R, act, label=None):
        G = semidirect_product(S, R, act, label)
        calls.append((S, R, act, G))
        return G

    monkeypatch.setattr(xsq, "semidirect_product", recording)
    return calls


def _assert_pairwise(S, R, act, G):
    assert G.realization == "dense"
    assert (G.table, G.generators) == _pairwise_dense(SemidirectGroup(S, R, act, G.label))


def test_reverse_square_products_match_pairwise_fill(products):
    """LN, MP and G of every reverse request of the benchmark's convert
    workload: the crossed squares of the cat2-groups of order <= 12."""
    squares = [xsq.crossed_square_of_cat2(C) for order, gid in catalog.catalog_keys()
               if order <= 12 for C in all_cat2_groups(catalog.small_group(order, gid))]
    assert len(squares) == 2175
    for X in squares:
        products.clear()
        C = xsq.cat2_of_crossed_square(X)
        assert len(products) == 3 and products[2][3] is C.group
        for S, R, act, G in products:
            _assert_pairwise(S, R, act, G)


def test_d20_square_products(products, d20):
    """The C5 <= D10, D10' <= D20 inclusion square: LN (order 50) and MP
    (order 200) are dense, and G (order 10,000) stays structural."""
    p1, s = d20.generators
    p1sq = d20.mul(p1, p1)
    X = xsq.crossed_square_by_normal_subgroups(
        subgroup_generated(d20, [p1sq]), subgroup_generated(d20, [p1sq, s]),
        subgroup_generated(d20, [p1sq, d20.mul(p1, s)]), d20)
    C = xsq.cat2_of_crossed_square(X)
    (L, N, act_ln, LN), (M, P, act_mp, MP), (_, _, _, G) = products
    assert (LN.order, MP.order) == (50, 200)
    _assert_pairwise(L, N, act_ln, LN)
    _assert_pairwise(M, P, act_mp, MP)
    assert G is C.group and G.order == 10_000 and G.realization == "structural"
    assert isinstance(G, SemidirectGroup) and (G.s_group, G.r_group) == (LN, MP)


def test_direct_products_match_pairwise_fill():
    keys = [(1, 1), (2, 1), (4, 2), (6, 1), (8, 3), (8, 4), (12, 3)]
    pairs = list(itertools.product(keys, repeat=2)) + [((27, 5), (2, 1)), ((6, 1), (16, 14))]
    for ka, kb in pairs:
        A, B = catalog.small_group(*ka), catalog.small_group(*kb)
        _assert_pairwise(A, B, trivial_action(B, A), direct_product(A, B))


def test_dense_fill_needs_generating_generators():
    s3 = catalog.small_group(6, 1)
    with pytest.raises(GroupError, match="the generators of 'S3' reach only 2 of its 6 elements"):
        DenseGroup(s3.table, "S3", [1])
    loose = DenseGroup(s3.table, "S3", [1], check=False)
    c1 = catalog.small_group(1, 1)
    G = SemidirectGroup(loose, c1, trivial_action(c1, loose))
    with pytest.raises(GroupError, match="reach only 2 of its 6 elements"):
        as_dense(G)


def _relabelled(table, rng):
    """``table`` with its non-identity elements renamed at random: a group."""
    sigma = [0] + rng.sample(range(1, len(table)), len(table) - 1)
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[sigma[a]][sigma[b]] = sigma[ab]
    return out


def _corruptions(table, rng):
    """A relabelled copy of ``table``, then copies with entries off the
    identity row and column changed, each row keeping its 0."""
    n = len(table)
    out = [_relabelled(table, rng)]
    for _ in range(3):  # swap two entries of one row
        t = [list(row) for row in table]
        i, (j, k) = rng.randrange(1, n), rng.sample(range(1, n), 2)
        t[i][j], t[i][k] = t[i][k], t[i][j]
        out.append(t)
    for _ in range(3):  # overwrite one nonzero entry
        t = [list(row) for row in table]
        i = rng.randrange(1, n)
        j = rng.choice([j for j in range(1, n) if t[i][j] != 0])
        t[i][j] = rng.choice([v for v in range(1, n) if v != t[i][j]])
        out.append(t)
    # rows b and c exchanged, with the identity column restored
    t = [list(row) for row in table]
    b, c = rng.sample(range(1, n), 2)
    t[b], t[c] = t[c], t[b]
    t[b][0], t[c][0] = b, c
    out.append(t)
    return out


@pytest.mark.parametrize("key", [(8, 3), (16, 14), (27, 5), (12, 3, 12, 3)],
                         ids=["8-3", "16-14", "27-5", "A4xA4-144"])
def test_light_test_rejects_exactly_the_bad_tables(key):
    """Tables on both sides of 128, the size up to which associativity was
    once checked on every triple."""
    G = catalog.small_group(*key[:2])
    if len(key) == 4:
        G = direct_product(G, catalog.small_group(*key[2:]))
    rng = random.Random(repr(key))
    verdicts = []
    for t in _corruptions(G.table, rng):
        try:
            verify_group_axioms(DenseGroup(t, "oracle", check=False))
            oracle_ok = True
        except GroupError:
            oracle_ok = False
        try:
            DenseGroup(t, "checked")
            checked_ok = True
        except GroupError as exc:
            checked_ok = False
            # identity and right inverses survive every corruption
            witness = re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", str(exc))
            a, b, c = map(int, witness.groups())
            assert t[t[a][b]][c] != t[a][t[b][c]]
        assert checked_ok == oracle_ok
        verdicts.append(checked_ok)
    assert verdicts == [True] + [False] * 7


@pytest.mark.parametrize("key", [(8, 3), (16, 14), (27, 5)], ids=["8-3", "16-14", "27-5"])
def test_light_test_uses_every_generator(key):
    """G x C2 with the C2 part of the products (i, *)(j, *) flipped is a loop
    whose first greedy generator, the central (0, 1), associates with all."""
    G = catalog.small_group(*key)
    t = [list(row) for row in direct_product(G, catalog.small_group(2, 1)).table]
    i, j = G.generators[:2]
    for a in (0, 1):
        for b in (0, 1):
            t[2 * i + a][2 * j + b] ^= 1
    unchecked = DenseGroup(t, "oracle", check=False)
    assert unchecked.generators[0] == 1
    assert all(t[t[1][b]][c] == t[1][t[b][c]] for b in range(len(t)) for c in range(len(t)))
    with pytest.raises(GroupError, match="associativity"):
        verify_group_axioms(unchecked)
    with pytest.raises(GroupError, match="associativity fails at") as exc:
        DenseGroup(t, "checked")
    a, b, c = map(int, re.findall(r"\d+", str(exc.value)))
    assert t[t[a][b]][c] != t[a][t[b][c]]
