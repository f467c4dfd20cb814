import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from catsq import catalog
from catsq.groups import (
    GroupAction,
    GroupError,
    Homomorphism,
    TooLargeError,
    all_homomorphisms,
    all_subgroups,
    as_dense,
    automorphism_group,
    commutator_subgroup,
    compose,
    conjugation_action,
    direct_product,
    group_from_permutation_generators,
    hom_by_images,
    idempotent_endomorphisms,
    identity_hom,
    image_of,
    inner_automorphism_indices,
    isomorphism_between,
    kernel_of,
    normal_subgroups,
    perm_from_cycles,
    cycles_of_perm,
    semidirect_product,
    semidirect_injections,
    subgroup_generated,
    trivial_action,
    trivial_hom,
    trivial_subgroup,
    verify_group_axioms,
    whole_subgroup,
)


def test_perm_cycle_round_trip():
    p = perm_from_cycles([(1, 2, 3, 4), (5, 6, 7, 8)])
    assert cycles_of_perm(p) == ((1, 2, 3, 4), (5, 6, 7, 8))
    assert perm_from_cycles([]) == ()
    with pytest.raises(GroupError):
        perm_from_cycles([(1, 2), (2, 3)])


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
    with pytest.raises(TooLargeError):
        group_from_permutation_generators([[(1, 2, 3, 4, 5, 6, 7)]], "C7", order_cap=5)


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
    assert commutator_subgroup(q8, whole_subgroup(q8), trivial_subgroup(q8)).order == 1
    assert commutator_subgroup(q8, whole_subgroup(q8), whole_subgroup(q8)).order == 2
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


def test_inner_automorphisms(d8):
    inner = inner_automorphism_indices(d8)
    assert len(inner) == 4  # D8 / Z(D8)
    auts = automorphism_group(d8)
    assert len(auts) == 8
    assert set(inner) <= set(range(len(auts)))


def test_semidirect_product():
    c3 = catalog.small_group(3, 1)
    c2 = catalog.small_group(2, 1)
    inv = GroupAction(c2, c3, (tuple(range(3)), (0, 2, 1)))
    G = semidirect_product(c3, c2, inv)
    assert G.order == 6 and G.realization == "structural"
    Gd = as_dense(G)
    verify_group_axioms(Gd)
    assert catalog.identify_group(Gd) == (6, 1)
    # dense and structural agree element-wise
    for x in range(6):
        for y in range(6):
            assert G.mul(x, y) == Gd.mul(x, y)
    inj_s, inj_r = semidirect_injections(G)
    assert image_of(inj_s).order == 3 and image_of(inj_r).order == 2


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
    with pytest.raises(GroupError):
        Homomorphism(d8, d8, tuple([0] * 7 + [a]))
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


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(6, 1), (8, 2), (8, 3), (8, 4), (12, 3)]))
def test_group_axioms_exhaustive(key):
    verify_group_axioms(catalog.small_group(*key))
