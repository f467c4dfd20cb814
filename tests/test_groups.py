import itertools
import math
import random
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from catsq import catalog, groups
from catsq.groups import (
    DenseGroup,
    GroupAction,
    GroupError,
    GroupTable,
    Homomorphism,
    SemidirectGroup,
    Subgroup,
    TooLargeError,
    _hom_blocks,
    _memo,
    all_homomorphisms,
    as_dense,
    automorphism_generators,
    automorphism_group,
    commutator_subgroup,
    compose,
    conjugation_action,
    direct_product,
    group_from_permutation_generators,
    idempotent_endomorphisms,
    identity_hom,
    image_of,
    inner_automorphism_indices,
    isomorphism_between,
    kernel_of,
    normality_witness,
    perm_from_cycles,
    cycles_of_perm,
    semidirect_product,
    sub_conjugation_action,
    subgroup_generated,
    trivial_action,
    trivial_hom,
)
from catsq.tables import HEAVY_KEYS
from catsq.xmod import is_homomorphism


# -- the per-tuple closure that the batched End(G) kernel replaced -------------
# Kept as the oracle of ``groups._hom_blocks`` and of the Aut(G) generator
# closure on arrays.


def oracle_extend_mapping(G, H, images):
    """Closure of a generator assignment into a full map, or None on conflict.

    Walks every edge (x, g) of the right Cayley graph, which both defines the
    map on all of G and certifies the homomorphism property.
    """
    gens = G.generators
    n = G.order
    known = [-1] * n
    known[0] = 0
    for g, im in zip(gens, images):
        if known[g] >= 0:
            if known[g] != im:
                return None
        else:
            known[g] = im
    stack = [0] + [g for g in gens if g != 0]
    seen = [False] * n
    for x in stack:
        seen[x] = True
    while stack:
        x = stack.pop()
        fx = known[x]
        for g, im in zip(gens, images):
            y = G.mul(x, g)
            fy = H.mul(fx, im)
            if known[y] < 0:
                known[y] = fy
            elif known[y] != fy:
                return None
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    if any(v < 0 for v in known):
        return None
    return tuple(known)


def oracle_hom_maps(G, H, fits=lambda og, oh: og % oh == 0):
    """Every hom G -> H, one generator-image tuple at a time, in product order."""
    h_orders = H.element_orders()
    cands = [[h for h in H.elements() if fits(G.element_order(g), h_orders[h])]
             for g in G.generators]
    for images in itertools.product(*cands):
        mapping = oracle_extend_mapping(G, H, images)
        if mapping is not None:
            yield mapping


def oracle_end_maps(G):
    """(idempotent maps, bijective maps) of End(G), each sorted."""
    n = G.order
    maps = list(oracle_hom_maps(G, G))
    return (tuple(sorted(m for m in maps if all(m[v] == v for v in m))),
            tuple(sorted(m for m in maps if len(set(m)) == n)))


def end_map_tuples(G):
    """``groups._endomorphism_maps(G)`` as the tuples of :func:`oracle_end_maps`."""
    return tuple(tuple(map(tuple, A.tolist())) for A in groups._endomorphism_maps(G))


def oracle_aut_generators(G, auts):
    """Greedy generators of Aut(G), given its sorted automorphism maps."""
    gens = []
    known = {tuple(G.elements())}
    for m in auts:
        if m in known:
            continue
        gens.append(m)
        frontier = [m]
        known.add(m)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = tuple(g[i] for i in x)
                    if y not in known:
                        known.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(known) == len(auts):
            break
    return gens


def fresh_copy(G, relabel=None):
    """The same group with an empty cache, optionally with relabelled elements."""
    if relabel is None:
        return DenseGroup(G.table, G.label, G.generators, check=False)
    back = [0] * G.order
    for x, y in enumerate(relabel):
        back[y] = x
    table = [[relabel[G.mul(back[a], back[b])] for b in G.elements()]
             for a in G.elements()]
    return DenseGroup(table, f"{G.label}'", check=False)


# -- test oracles and fixtures that the package itself does not need ----------
# Other test modules import them from here.


def verify_group_axioms(G: GroupTable) -> None:
    """Exhaustive associativity / identity / inverse check (test hook)."""
    n = G.order
    for a in range(n):
        if G.mul(0, a) != a or G.mul(a, 0) != a:
            raise GroupError(f"identity fails at {a}")
        i = G.inv(a)
        if G.mul(a, i) != 0 or G.mul(i, a) != 0:
            raise GroupError(f"inverse fails at {a}")
    for a in range(n):
        for b in range(n):
            ab = G.mul(a, b)
            for c in range(n):
                if G.mul(ab, c) != G.mul(a, G.mul(b, c)):
                    raise GroupError(f"associativity fails at ({a}, {b}, {c})")


def is_normal(G: GroupTable, S: Subgroup) -> bool:
    return normality_witness(G, S) is None


@_memo
def all_subgroups(G: GroupTable) -> tuple[Subgroup, ...]:
    """Every subgroup of ``G``, found by closure-extension search."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for mem in frontier:
            inside = set(mem)
            for x in G.elements():
                if x in inside:
                    continue
                bigger = subgroup_generated(G, inside | {x}).members
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return tuple(Subgroup(G, mem) for mem in sorted(found, key=lambda m: (len(m), m)))


def normal_subgroups(G: GroupTable) -> tuple[Subgroup, ...]:
    return tuple(S for S in all_subgroups(G) if is_normal(G, S))


def hom_by_images(G: GroupTable, H: GroupTable,
                  images: Sequence[int]) -> Homomorphism:
    """The homomorphism sending ``G.generators`` to ``images`` (must exist)."""
    if len(images) != len(G.generators):
        raise GroupError(f"{len(images)} generator images given, but {G.label!r} "
                         f"has {len(G.generators)} generators")
    for pos, im in enumerate(images):
        if not 0 <= im < H.order:
            raise GroupError(f"image {im} of generator {pos} lies outside 0..{H.order - 1}")
    for block in _hom_blocks(G, H, [[im] for im in images]):
        if len(block):
            return Homomorphism(G, H, tuple(block[0].tolist()))
    raise GroupError("the generator images do not define a homomorphism")


LIGHT_KEYS = [k for k in catalog.catalog_keys() if k not in HEAVY_KEYS]


@pytest.fixture
def small_blocks(monkeypatch):
    # several blocks per enumeration, and a partial last block
    monkeypatch.setattr(groups, "_BLOCK_ROWS", 7)


def test_perm_cycle_round_trip():
    p = perm_from_cycles([(1, 2, 3, 4), (5, 6, 7, 8)])
    assert cycles_of_perm(p) == ((1, 2, 3, 4), (5, 6, 7, 8))
    assert perm_from_cycles([]) == ()
    # a point that a 1-cycle names is taken too, in either order
    for cycles in ([(1, 2), (2, 3)], [(3,), (3, 4)], [(3, 4), (3,)]):
        with pytest.raises(GroupError, match=r"^cycles are not disjoint at point [23]$"):
            perm_from_cycles(cycles)
    assert perm_from_cycles([(3,), (1, 2)]) == (1, 0, 2)


def test_empty_cycle_is_the_identity():
    # GAP's () is the identity permutation
    assert perm_from_cycles([()]) == ()
    assert perm_from_cycles([()], 3) == (0, 1, 2)
    assert perm_from_cycles([[], [1, 2]]) == (1, 0)
    assert group_from_permutation_generators([[()]], "x").order == 1
    G = group_from_permutation_generators([[()], [(1, 2, 3)]], "C3")
    assert G.order == 3
    verify_group_axioms(G)


def test_empty_table_is_rejected():
    with pytest.raises(GroupError, match="a group table needs at least the identity"):
        DenseGroup([], "e")


def test_single_involution_gives_c2():
    G = group_from_permutation_generators([[(1, 2)]], "C2")
    assert G.order == 2
    verify_group_axioms(G)


def test_paper_session_generators():
    G = group_from_permutation_generators(
        [[(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 5), (2, 6), (3, 7), (4, 8)], [(2, 6), (4, 8)]],
        "c4c2:c2")
    assert G.order == 16
    assert catalog.identify_group(G) == (16, 3)


def test_d20_generators(d20):
    assert d20.order == 20
    assert catalog.identify_group(d20) == (20, 4)


def test_order_cap():
    """S7 has 5,040 elements, more than the dense cap of 2,000."""
    assert groups.DENSE_CAP < math.factorial(7)
    with pytest.raises(TooLargeError):
        group_from_permutation_generators([[(1, 2, 3, 4, 5, 6, 7)], [(1, 2)]], "S7")


def test_subgroup_generated(d8, d20):
    assert subgroup_generated(d8, []).members == (0,)
    p1 = d20.generators[0]
    assert subgroup_generated(d20, [d20.mul(p1, p1)]).order == 5
    assert subgroup_generated(d8, d8.generators).order == 8


def test_kernel_image(d8):
    ident = identity_hom(d8)
    assert kernel_of(ident).order == 1
    assert image_of(ident).order == 8
    # t_a: a -> a, b -> 1 has kernel {1, b, c, bc} and image <a>
    a, b = d8.generators
    ta = hom_by_images(d8, d8, [a, 0])
    ker, im = kernel_of(ta), image_of(ta)
    assert ker.order == 4 and im.order == 2
    c = d8.comm(a, b)
    assert b in ker and c in ker
    q8 = catalog.small_group(8, 4)
    z = trivial_hom(q8, q8)
    assert kernel_of(z).order == 8 and image_of(z).order == 1


def test_kernel_image_product_law():
    for key in ((6, 1), (8, 3), (8, 4), (12, 3)):
        G = catalog.small_group(*key)
        for f in all_homomorphisms(G, G):
            assert kernel_of(f).order * image_of(f).order == G.order


def test_commutator_subgroup(d8):
    q8 = catalog.small_group(8, 4)
    whole = Subgroup(q8, tuple(q8.elements()))
    assert commutator_subgroup(q8, whole, Subgroup(q8, (0,))).order == 1
    assert commutator_subgroup(q8, whole, whole).order == 2
    a, b = d8.generators
    ka = kernel_of(hom_by_images(d8, d8, [a, 0]))
    kb = kernel_of(hom_by_images(d8, d8, [0, b]))
    cs = commutator_subgroup(d8, ka, kb)
    assert cs.order == 2 and d8.comm(a, b) in cs


def _filter_all_maps(G, H):
    """Literal brute force over all |H|^|G| maps (oracle; tiny inputs only)."""
    homs = []
    for image in itertools.product(range(H.order), repeat=G.order):
        if all(image[G.mul(x, y)] == H.mul(image[x], image[y])
               for x in G.elements() for y in G.elements()):
            homs.append(image)
    return sorted(homs)


def test_hom_counts_and_oracle():
    c2 = catalog.small_group(2, 1)
    c3 = catalog.small_group(3, 1)
    k4 = catalog.small_group(4, 2)
    assert len(all_homomorphisms(c2, c2)) == 2
    assert len(all_homomorphisms(c3, c2)) == 1
    homs = all_homomorphisms(k4, c2)
    assert len(homs) == 4
    assert [h.mapping for h in homs] == _filter_all_maps(k4, c2)
    assert [h.mapping for h in all_homomorphisms(c3, c3)] == _filter_all_maps(c3, c3)


def test_idempotents():
    for key, want in (((8, 1), 2), ((9, 1), 2), ((8, 3), 10), ((6, 1), 5)):
        G = catalog.small_group(*key)
        ies = idempotent_endomorphisms(G)
        assert len(ies) == want
        all_maps = {h.mapping for h in all_homomorphisms(G, G)}
        for f in ies:
            assert f.mapping in all_maps
            assert all(f.mapping[v] == v for v in f.mapping)


def test_automorphisms():
    triv = catalog.small_group(1, 1)
    assert len(automorphism_group(triv)) == 1
    k4 = catalog.small_group(4, 2)
    auts = automorphism_group(k4)
    assert len(auts) == 6  # |GL(2,2)|
    c5 = catalog.small_group(5, 1)
    assert len(automorphism_group(c5)) == 4
    # every member has a two-sided inverse in the list, and |Aut| divides |G|!
    for G in (k4, catalog.small_group(8, 3)):
        auts = automorphism_group(G)
        assert math.factorial(G.order) % len(auts) == 0
        maps = {a.mapping for a in auts}
        ident = tuple(G.elements())
        for a in auts:
            inv = [0] * G.order
            for x, v in enumerate(a.mapping):
                inv[v] = x
            assert tuple(inv) in maps
            assert tuple(a.mapping[i] for i in inv) == ident


def test_endomorphism_pass_split():
    # one End(G) enumeration feeds both lists; the identity belongs to both
    for key in ((1, 1), (4, 2), (6, 1), (8, 3), (8, 4), (12, 3), (16, 3)):
        G = catalog.small_group(*key)
        homs = all_homomorphisms(G, G)
        assert idempotent_endomorphisms(G) == [h for h in homs if h.is_idempotent()]
        assert automorphism_group(G) == [h for h in homs if h.is_bijective()]
        ident = tuple(G.elements())
        assert ident in {f.mapping for f in idempotent_endomorphisms(G)}
        assert ident in {a.mapping for a in automorphism_group(G)}


def test_end_pass_matches_per_tuple_oracle(small_blocks):
    for key in LIGHT_KEYS:
        G = fresh_copy(catalog.small_group(*key))
        want = oracle_end_maps(G)
        assert end_map_tuples(G) == want, key
        assert (list(map(tuple, automorphism_generators(G).tolist()))
                == oracle_aut_generators(G, want[1])), key


def test_end_pass_order_on_relabelled_groups(small_blocks):
    # A largest proper subgroup M takes the labels 0..|M|-1 and a generator
    # outside M the label n - 1.  Maps that agree on M tie on the first |M|
    # columns, so a sort on fewer columns than 0..max(generators), here all
    # of them, can misorder their rows.
    rnd = random.Random(11)
    for key in ((8, 3), (16, 3), (24, 12)):
        G = catalog.small_group(*key)
        n = G.order
        M = max((S for S in all_subgroups(G) if S.order < n), key=lambda S: S.order)
        g = next(x for x in G.generators if x not in M)
        inside = rnd.sample(M.members[1:], M.order - 1)
        outside = rnd.sample([x for x in G.elements() if x not in M and x != g], n - M.order - 1)
        seq = [0, *inside, *outside, g]
        relabel = [0] * n
        for new, x in enumerate(seq):
            relabel[x] = new
        R = fresh_copy(G, relabel)
        R = DenseGroup(R.table, R.label, [relabel[x] for x in G.generators], check=False)
        assert max(R.generators) == n - 1, key
        want = oracle_end_maps(R)
        assert end_map_tuples(R) == want, key
        assert (list(map(tuple, automorphism_generators(R).tolist()))
                == oracle_aut_generators(R, want[1])), key


def test_all_homomorphisms_match_per_tuple_oracle(small_blocks):
    small = [fresh_copy(catalog.small_group(*k))
             for k in catalog.catalog_keys() if k[0] <= 12]
    for G in small:
        for H in small:
            got = [f.mapping for f in all_homomorphisms(G, H)]
            assert got == sorted(oracle_hom_maps(G, H)), (G.label, H.label)


def test_isomorphism_between_matches_per_tuple_oracle(small_blocks):
    # the first bijective map in product order, on relabelled copies
    rnd = random.Random(4)
    for key in LIGHT_KEYS:
        G = catalog.small_group(*key)
        R = fresh_copy(G, [0] + rnd.sample(range(1, G.order), G.order - 1))
        for A, B in ((R, G), (G, R)):
            want = next(m for m in oracle_hom_maps(A, B, lambda og, oh: og == oh)
                        if len(set(m)) == A.order)
            assert isomorphism_between(A, B).mapping == want, key


def _elementary_abelian(key):
    """(p, r) for the catalog group C_p^r with this key."""
    G = catalog.small_group(*key)
    p = max(G.element_orders())
    r = round(math.log(G.order, p))
    assert p ** r == G.order and set(G.element_orders()) == {1, p}
    return G, p, r


def test_elementary_abelian_end_and_aut_closed_forms():
    # End(C_p^r) = M_r(GF(p)): idempotents are a rank-k image plus a
    # complement, and Aut is GL(r, p).  Counted without the enumeration.
    def gaussian_binomial(n, k, q):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    for key in ((4, 2), (8, 5), (9, 2), (25, 2), (16, 14), (27, 5)):
        G, p, r = _elementary_abelian(key)
        G = fresh_copy(G)
        idempotents = sum(gaussian_binomial(r, k, p) * p ** (k * (r - k))
                          for k in range(r + 1))
        gl = math.prod(p ** r - p ** i for i in range(r))
        assert len(idempotent_endomorphisms(G)) == idempotents, key
        assert len(automorphism_group(G)) == gl, key
        if G.order <= 9:
            assert len(all_homomorphisms(G, G)) == p ** (r * r), key


def test_hom_by_images_rejects_malformed_images():
    G = catalog.small_group(8, 3)
    assert len(G.generators) == 2
    with pytest.raises(GroupError, match="3 generator images given, but .* has 2"):
        hom_by_images(G, G, [2, 1, 1])
    with pytest.raises(GroupError, match="1 generator images given"):
        hom_by_images(G, G, [2])
    with pytest.raises(GroupError, match="image 99 of generator 0 lies outside 0..7"):
        hom_by_images(G, G, [99, 0])
    with pytest.raises(GroupError, match="image -1 of generator 0 lies outside 0..7"):
        hom_by_images(G, G, [-1, 0])
    with pytest.raises(GroupError, match="image 8 of generator 1"):
        hom_by_images(G, G, [0, 8])


def test_generators_must_generate():
    G = catalog.small_group(8, 3)
    partial = DenseGroup(G.table, "partial", G.generators[:1], check=False)
    with pytest.raises(GroupError, match="reach only"):
        all_homomorphisms(partial, G)


def test_inner_automorphisms(d8):
    inner = inner_automorphism_indices(d8)
    assert len(inner) == 4  # D8 / Z(D8)
    auts = automorphism_group(d8)
    assert len(auts) == 8
    assert set(inner) <= set(range(len(auts)))


def test_subgroup_positions_are_one_read_only_memo():
    """The positions of a subgroup's members are decided once, in member
    order, and no caller can change them."""
    G = catalog.small_group(8, 3)
    S = next(S for S in all_subgroups(G) if S.members != tuple(range(S.order)))
    pos = groups._subgroup_group(G, S.members)[1]
    assert list(pos) == list(S.members)
    assert [pos[m] for m in S.members] == list(range(S.order))
    with pytest.raises(TypeError):
        pos[S.members[-1]] = 0
    assert groups._subgroup_group(G, S.members)[1] is pos


def test_semidirect_product():
    c3 = catalog.small_group(3, 1)
    c2 = catalog.small_group(2, 1)
    inv = GroupAction(c2, c3, (tuple(range(3)), (0, 2, 1)))
    G = SemidirectGroup(c3, c2, inv)
    assert G.order == 6 and G.realization == "structural"
    # below the dense cap the product is realized as the dense table of G
    Gd = semidirect_product(c3, c2, inv)
    assert Gd.realization == "dense" and Gd.generators == G.generators
    verify_group_axioms(Gd)
    assert catalog.identify_group(Gd) == (6, 1)
    # dense and structural agree element-wise
    for x in range(6):
        for y in range(6):
            assert G.mul(x, y) == Gd.mul(x, y)


def test_semidirect_trivial_action_is_direct_product():
    s3 = catalog.small_group(6, 1)
    c2 = catalog.small_group(2, 1)
    G = as_dense(semidirect_product(s3, c2, trivial_action(c2, s3)))
    D = as_dense(direct_product(s3, c2))
    assert isomorphism_between(G, D) is not None
    assert catalog.identify_group(G) == (12, 4)  # S3 x C2 = D12


def test_conjugation_action(d8, d20):
    z = subgroup_generated(d8, [x for x in d8.center() if x != 0])
    act = conjugation_action(d8, z)
    assert all(p == tuple(range(2)) for p in act.perms)  # central: trivial action
    p1 = d20.generators[0]
    c5d = subgroup_generated(d20, [d20.mul(p1, p1)])
    act = conjugation_action(d20, c5d)
    ident = tuple(range(5))
    assert sum(1 for p in act.perms if p == ident) == 10  # centralizer of c5d
    # non-normal subgroup is rejected with a witness
    refl = subgroup_generated(d8, [d8.generators[0]])
    with pytest.raises(GroupError, match="not normal"):
        conjugation_action(d8, refl)
    # the memo is keyed on members, so a subgroup of another group is refused
    with pytest.raises(GroupError, match="must live in the acting group"):
        conjugation_action(d20, z)
    with pytest.raises(GroupError, match="must live in G"):
        sub_conjugation_action(d20, Subgroup(d20, tuple(d20.elements())), z)
    assert not hasattr(z, "__dict__")  # Subgroup has slots


def test_isomorphism_between(d8):
    q8 = catalog.small_group(8, 4)
    assert isomorphism_between(d8, q8) is None
    found = isomorphism_between(d8, d8)
    assert found is not None and found.is_bijective()
    s3 = catalog.small_group(6, 1)
    c3, c2 = catalog.small_group(3, 1), catalog.small_group(2, 1)
    built = as_dense(semidirect_product(c3, c2, GroupAction(c2, c3, ((0, 1, 2), (0, 2, 1)))))
    assert isomorphism_between(built, s3) is not None


def test_subgroup_counts(d8):
    assert len(all_subgroups(d8)) == 10
    assert len(normal_subgroups(d8)) == 6
    s3 = catalog.small_group(6, 1)
    assert len(all_subgroups(s3)) == 6
    assert len(normal_subgroups(s3)) == 3


def test_hom_validation_rejects_non_hom(d8):
    a, b = d8.generators
    m = tuple([0] * 7 + [a])
    check = is_homomorphism(Homomorphism(d8, d8, m))
    g, x = check.witness
    assert not check.ok and g in d8.generators
    assert m[d8.mul(g, x)] != d8.mul(m[g], m[x])
    with pytest.raises(GroupError):
        hom_by_images(d8, d8, [a, d8.mul(a, b)])  # b -> ab breaks b^2 = 1


def test_compose_convention(d8):
    a, b = d8.generators
    ta = hom_by_images(d8, d8, [a, 0])
    tb = hom_by_images(d8, d8, [0, b])
    fg = compose(ta, tb)
    assert all(fg.mapping[x] == ta.mapping[tb.mapping[x]] for x in d8.elements())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(4, 1), (4, 2), (6, 1), (6, 2), (8, 3), (8, 4)]), st.data())
def test_generated_subgroups_are_closed(key, data):
    G = catalog.small_group(*key)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    S = subgroup_generated(G, seed)
    mem = set(S.members)
    assert 0 in mem
    for x in S.members:
        assert G.inv(x) in mem
        for y in S.members:
            assert G.mul(x, y) in mem
    assert G.order % S.order == 0  # Lagrange


def test_group_axioms_exhaustive():
    for key in catalog.catalog_keys():
        verify_group_axioms(catalog.small_group(*key))
