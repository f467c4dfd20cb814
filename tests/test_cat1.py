import pytest

from catsq import catalog
from catsq.groups import (
    GroupError,
    Homomorphism,
    compose,
    group_from_permutation_generators,
    idempotent_endomorphisms,
    identity_hom,
    image_of,
    isomorphism_between,
    subgroup_generated,
)
from catsq.cat1 import PreCat1Group, all_cat1_groups, cat1_isomorphism_classes, is_cat1_group
from constructions import (
    all_homomorphisms,
    cat1_group,
    cat1_of_xmod,
    conjugation_xmod,
    failures,
    from_general_form,
    general_form,
    is_crossed_module,
    is_idempotent,
    key_of,
    pre_cat1_by_endomorphisms,
    trivial_hom,
    xmod_of_cat1,
)
from test_groups import LIGHT_KEYS, fresh_copy, hom_by_images, normal_subgroups


def proj_a(d8):
    return hom_by_images(d8, d8, [d8.generators[0], 0])


def proj_b(d8):
    return hom_by_images(d8, d8, [0, d8.generators[1]])


def test_pre_cat1_construction(d8):
    C = cat1_group(identity_hom(d8), identity_hom(d8))
    assert C.range_.order == 8
    ta = proj_a(d8)
    Ca = cat1_group(ta, ta)
    assert Ca.range_.order == 2
    # the diagonal t_a o t_b is a pre-cat1 that is not a cat1
    tab = compose(ta, proj_b(d8))
    pre = pre_cat1_by_endomorphisms(tab, tab)
    report = is_cat1_group(pre)
    assert not report.ok
    a, b = failures(report)[0].witness
    assert d8.mul(a, b) != d8.mul(b, a)
    with pytest.raises(GroupError, match=r"\[ker t, ker h\]"):
        cat1_group(tab, tab)


def test_pre_cat1_maps_on_two_groups_raise_at_construction(d8):
    """A structure is its two maps; maps that are not endomorphisms of one
    group are refused by the constructor itself, with the factories' text."""
    d8_copy = fresh_copy(d8)
    t, h = identity_hom(d8), identity_hom(d8_copy)
    for build in (PreCat1Group, pre_cat1_by_endomorphisms, cat1_group):
        with pytest.raises(GroupError, match="^tail and head must be endomorphisms of one group$"):
            build(t, h)


def test_pre_cat1_range_is_the_tail_image_built_on_read(d8):
    ta = proj_a(d8)
    C = PreCat1Group(ta, ta)
    assert C.group is d8 and "range_" not in vars(C)
    assert C.range_ == image_of(ta) and C.range_.order == 2
    assert C.range_ is C.range_


def test_pre_cat1_rejects_bad_pairs(d8):
    ta, tb = proj_a(d8), proj_b(d8)
    with pytest.raises(GroupError, match="pre-cat1 axiom"):
        pre_cat1_by_endomorphisms(ta, tb)  # images differ, t o h != h


def test_is_cat1_examples():
    q8 = catalog.small_group(8, 4)
    z = trivial_hom(q8, q8)
    assert not is_cat1_group(pre_cat1_by_endomorphisms(z, z)).ok
    a4 = catalog.small_group(12, 3)
    z = trivial_hom(a4, a4)
    assert not is_cat1_group(pre_cat1_by_endomorphisms(z, z)).ok
    assert is_cat1_group(cat1_group(identity_hom(a4), identity_hom(a4))).ok


def test_enumeration_counts():
    # reference rows: D8 -> 9/3, C4xC2 -> 18/6, K4 -> 14/4, A4 -> 5/2
    for key, total, classes in (((8, 3), 9, 3), ((8, 2), 18, 6), ((4, 2), 14, 4),
                                ((12, 3), 5, 2), ((1, 1), 1, 1), ((8, 1), 2, 2)):
        G = catalog.small_group(*key)
        cls = cat1_isomorphism_classes(G)
        assert (len(cls.labels), len(cls.leaders)) == (total, classes), key


def test_enumeration_is_lexicographic():
    G = catalog.small_group(8, 3)
    keys = [key_of(c) for c in all_cat1_groups(G)]
    assert keys == sorted(keys)


def test_every_enumerated_structure_is_valid():
    for key in ((6, 1), (8, 2), (8, 3), (12, 3)):
        G = catalog.small_group(*key)
        for C in all_cat1_groups(G):
            assert is_cat1_group(C).ok
            assert is_idempotent(C.tail) and is_idempotent(C.head)


def test_naive_pair_oracle_small():
    """The enumeration equals the naive double loop over idempotent pairs,
    also on the dihedral group of order 70, whose bit codes take two words."""
    d70 = group_from_permutation_generators(
        [[tuple(range(1, 36))], [(i, 37 - i) for i in range(2, 19)]], "D70")
    assert d70.order == 70
    for G in [*(catalog.small_group(*key) for key in ((6, 1), (8, 2), (8, 3), (8, 4), (9, 2))),
              d70]:
        ies = idempotent_endomorphisms(G)
        naive = []
        for t in ies:
            for h in ies:
                tm, hm = t.mapping, h.mapping
                if not all(tm[hm[x]] == hm[x] for x in G.elements()):
                    continue
                if not all(hm[tm[x]] == tm[x] for x in G.elements()):
                    continue
                kt = [x for x in G.elements() if tm[x] == 0]
                kh = [x for x in G.elements() if hm[x] == 0]
                if all(G.mul(p, q) == G.mul(q, p) for p in kt for q in kh):
                    naive.append((tm, hm))
        assert naive == [key_of(c) for c in all_cat1_groups(G)], G.label


def test_xmod_of_cat1(d8):
    a4 = catalog.small_group(12, 3)
    X = xmod_of_cat1(cat1_group(identity_hom(a4), identity_hom(a4)))
    assert (X.source.order, X.range_.order) == (1, 12)  # [triv -> A4]
    ta = proj_a(d8)
    X = xmod_of_cat1(cat1_group(ta, ta))
    assert (X.source.order, X.range_.order) == (4, 2)
    assert is_crossed_module(X).ok
    triv = catalog.small_group(1, 1)
    X = xmod_of_cat1(cat1_group(identity_hom(triv), identity_hom(triv)))
    assert X.source.order == X.range_.order == 1


def test_cat1_of_xmod(d8):
    z = subgroup_generated(d8, [x for x in d8.center() if x != 0])
    X = conjugation_xmod(z, d8)
    C = cat1_of_xmod(X)
    assert C.group.order == 16
    assert is_cat1_group(C).ok
    triv = catalog.small_group(1, 1)
    C = cat1_of_xmod(conjugation_xmod(subgroup_generated(triv, []), triv))
    assert C.group.order == 1


def test_round_trips_small_catalog():
    """xmod -> cat1 -> xmod preserves source/range isomorphism types."""
    for order, gid in catalog.catalog_keys():
        if order > 12:
            continue
        G = catalog.small_group(order, gid)
        for N in normal_subgroups(G):
            X = conjugation_xmod(N, G)
            X2 = xmod_of_cat1(cat1_of_xmod(X))
            assert isomorphism_between(X2.source, X.source) is not None
            assert isomorphism_between(X2.range_, X.range_) is not None


def _isomorphic_as_cat1(A, B):
    from catsq.groups import _iter_isomorphism_maps

    for m in _iter_isomorphism_maps(A.group, B.group):
        if (all(m[A.tail.mapping[x]] == B.tail.mapping[m[x]] for x in A.group.elements())
                and all(m[A.head.mapping[x]] == B.head.mapping[m[x]]
                        for x in A.group.elements())):
            return True
    return False


def test_cat1_xmod_cat1_composite_is_identity_up_to_isomorphism():
    keys = [(o, i) for o, i in catalog.catalog_keys() if o <= 8 and (o, i) != (8, 5)]
    for key in keys:
        G = catalog.small_group(*key)
        for C in all_cat1_groups(G):
            back = cat1_of_xmod(xmod_of_cat1(C))
            assert back.group.order == G.order
            assert _isomorphic_as_cat1(back, C), key
    # spot-check the big elementary abelian case on a few structures
    G = catalog.small_group(8, 5)
    cat1s = all_cat1_groups(G)
    for C in cat1s[:: max(1, len(cat1s) // 8)]:
        back = cat1_of_xmod(xmod_of_cat1(C))
        assert _isomorphic_as_cat1(back, C)


def test_general_form_round_trip():
    for order, gid in catalog.catalog_keys():
        if order > 12:
            continue
        G = catalog.small_group(order, gid)
        for C in all_cat1_groups(G):
            gf = general_form(C)
            back = from_general_form(gf.embedding, gf.tail, gf.head)
            assert key_of(back) == key_of(C)


def test_from_general_form_a4_session():
    # range <f1> with f1 of order 3: the projection onto a Sylow 3-subgroup
    a4 = catalog.small_group(12, 3)
    x = next(g for g in a4.elements() if a4.element_order(g) == 3)
    syl = subgroup_generated(a4, [x])
    from catsq.groups import inclusion_hom

    R, members = inclusion_hom(syl).source, syl.members
    pos = {m: i for i, m in enumerate(members)}
    # find the idempotent projection onto the chosen Sylow 3-subgroup
    proj = None
    for f in all_homomorphisms(a4, a4):
        if set(f.mapping) == set(members) and is_idempotent(f) and f.mapping[x] == x:
            proj = f
            break
    assert proj is not None
    e = inclusion_hom(syl)
    tg = hom_by_images(a4, R, [pos[proj.mapping[g]] for g in a4.generators])
    C = from_general_form(e, tg, tg)
    assert C.range_.members == syl.members
    assert is_cat1_group(C).ok


def test_from_general_form_identity_embedding(d8):
    gf = general_form(cat1_group(identity_hom(d8), identity_hom(d8)))
    C = from_general_form(gf.embedding, gf.tail, gf.head)
    assert key_of(C) == key_of(cat1_group(identity_hom(d8), identity_hom(d8)))


def test_classification_reps_are_least(d8):
    cls = cat1_isomorphism_classes(d8)
    structures = all_cat1_groups(d8)
    for fam, rep in zip(cls.families, cls.representatives):
        assert key_of(rep) == key_of(structures[min(fam)])
    assert sorted(p for fam in cls.families for p in fam) == list(range(len(structures)))


def test_pre_cat1_identities_force_equal_images():
    """t o h = h puts im h inside im t and h o t = t the reverse, so a pair
    passing both identity checks always has im t = im h; a failing identity
    names an element where it really fails."""
    from catsq.cat1 import PreCat1Group
    from catsq.groups import idempotent_endomorphisms, image_of

    passed = failed = 0
    for order, gid in catalog.catalog_keys():
        if order > 12:
            continue
        G = catalog.small_group(order, gid)
        ies = idempotent_endomorphisms(G)
        images = [image_of(f).members for f in ies]
        for i, t in enumerate(ies):
            for j, h in enumerate(ies):
                th, ht = is_cat1_group(PreCat1Group(t, h)).checks[2:4]
                assert (th.name, ht.name) == ("t o h = h", "h o t = t")
                for check, f, g in ((th, t.mapping, h.mapping), (ht, h.mapping, t.mapping)):
                    if not check.ok:
                        (x,) = check.witness
                        assert f[g[x]] != g[x]
                if th.ok and ht.ok:
                    assert images[i] == images[j], (order, gid, i, j)
                    passed += 1
                else:
                    failed += 1
    assert passed > 0 and failed > 0


# -- the memoized cat1 report ---------------------------------------------------


def _on(H, C):
    """The structure with the mappings of ``C`` on the group ``H``."""
    t, h = (Homomorphism(H, H, f.mapping) for f in (C.tail, C.head))
    return PreCat1Group(t, h)


def test_memoized_cat1_report_equals_one_on_a_fresh_copy():
    checked = 0
    for key in LIGHT_KEYS:
        if key[0] > 16:
            continue
        G = catalog.small_group(*key)
        F = fresh_copy(G)
        for C in all_cat1_groups(G):
            report = is_cat1_group(C)
            assert is_cat1_group(C) is report  # the second call is a memo hit
            assert report.ok and report == is_cat1_group(_on(F, C)), key
            checked += 1
    assert checked == 1041


def test_equal_mappings_on_different_groups_are_separate_entries():
    # the same table twice: equal reports, one entry on each group
    G1, G2 = (fresh_copy(catalog.small_group(8, 3)) for _ in range(2))
    C1 = next(C for C in all_cat1_groups(G1) if C.range_.order == 2)
    C2 = _on(G2, C1)
    r1, r2 = is_cat1_group(C1), is_cat1_group(C2)
    assert r1 == r2 and r1 is not r2
    # equal mappings on C4 and on C2 x C2, checked on C4 first: some fail
    # there, and all pass on C2 x C2
    v4, c4 = (fresh_copy(catalog.small_group(4, gid)) for gid in (2, 1))
    pairs = [(C, _on(c4, C)) for C in all_cat1_groups(v4)]
    assert not all(is_cat1_group(D).ok for _, D in pairs)
    assert all(is_cat1_group(C).ok for C, _ in pairs)


def test_a_non_cat1_structure_raises_the_same_text_on_every_call():
    from catsq.cat2 import cat2_group

    q8 = fresh_copy(catalog.small_group(8, 4))
    pre = pre_cat1_by_endomorphisms(trivial_hom(q8, q8), trivial_hom(q8, q8))
    messages = []
    for _ in range(2):
        with pytest.raises(GroupError) as caught:
            cat2_group(pre, pre)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == (
        "a generating structure is not a cat1-group: structure 1: "
        "[ker t, ker h] = 1 fails with witness (1, 2)")


def test_convert_checks_each_cat1_structure_once(monkeypatch):
    """Every cat2 structure of a fresh copy of 16/3, through the convert
    path: the kernel line runs once per distinct cat1 structure, not once
    per structure of each request."""
    from catsq import cat1
    from catsq.cat2 import all_cat2_groups
    from catsq.serialize import emit_cat2, parse_cat2
    from catsq.xsq import crossed_square_of_cat2

    key, small_group = (16, 3), catalog.small_group
    G = fresh_copy(small_group(*key))
    monkeypatch.setattr(catalog, "small_group",
                        lambda *k: G if k == key else small_group(*k))
    calls, kernel_check = [], cat1._kernel_check
    monkeypatch.setattr(cat1, "_kernel_check",
                        lambda *args: calls.append(args) or kernel_check(*args))
    distinct = set()
    for C in all_cat2_groups(G):
        pre = parse_cat2(emit_cat2(C, key))
        assert pre.group is G
        crossed_square_of_cat2(pre)
        distinct |= {(c.tail.mapping, c.head.mapping) for c in (pre.c1, pre.c2)}
    assert len(calls) == len(distinct) == 25


def test_cat1_group_reads_the_memoized_report(monkeypatch):
    """``cat1_group`` raises with the first failing line of
    :func:`is_cat1_group`, a pre-cat1 line included, and certifying the same
    maps twice checks the kernel line once."""
    from catsq import cat1

    G = fresh_copy(catalog.small_group(8, 3))
    t, h = next((a, b) for a in idempotent_endomorphisms(G)
                for b in idempotent_endomorphisms(G) if set(a.mapping) != set(b.mapping))
    first = failures(is_cat1_group(PreCat1Group(t, h)))[0]
    assert first.name == "t o h = h"
    with pytest.raises(GroupError) as caught:
        cat1_group(t, h)
    assert str(caught.value) == f"not a cat1-group: {first.name} fails with witness {first.witness}"

    calls, kernel_check = [], cat1._kernel_check
    monkeypatch.setattr(cat1, "_kernel_check",
                        lambda *args: calls.append(args) or kernel_check(*args))
    C = all_cat1_groups(G)[-1]
    assert key_of(cat1_group(C.tail, C.head)) == key_of(cat1_group(C.tail, C.head)) == key_of(C)
    assert len(calls) == 1
