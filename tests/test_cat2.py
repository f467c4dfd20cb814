import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from catsq import catalog, cat2
from catsq.groups import GroupError, Homomorphism, _endomorphism_maps, compose, identity_hom
from catsq.serialize import emit_cat2, parse_cat2
from catsq.tables import HEAVY_KEYS
from catsq.cat1 import (Classification, PreCat1Group, _cat1_pairs, all_cat1_groups,
                        cat1_isomorphism_classes)
from catsq.cat2 import (
    PreCat2Group,
    all_cat2_groups,
    cat2_group,
    cat2_isomorphism_classes,
    cat2_pair_indices,
    diagonal_pre_cat1,
    is_cat2_group,
    non_cat1_diagonal_count,
)
from constructions import (all_cat2_group_morphisms, cat1_group, direct_product, failures,
                           is_bijective, isomorphism_cat2_groups, key_of,
                           pre_cat1_by_endomorphisms, pre_cat2_group, trivial_hom)
from test_groups import LIGHT_KEYS, fresh_copy, hom_by_images


def session_16_3():
    G = catalog.small_group(16, 3)
    ga, gb, gc = G.generators
    t1a = hom_by_images(G, G, [0, 0, gc])
    t1b = hom_by_images(G, G, [ga, 0, 0])
    return G, cat1_group(t1a, t1a), cat1_group(t1b, t1b)


def test_cat2_session_example():
    G, C1a, C1b = session_16_3()
    C2ab = cat2_group(C1a, C1b)
    assert C2ab.size == (16, 2, 4, 1)
    pre, ok, witness = diagonal_pre_cat1(C2ab)
    assert not ok and witness is not None


def test_cat2_identity_pair():
    for key in ((6, 1), (8, 4)):
        G = catalog.small_group(*key)
        ident = cat1_group(identity_hom(G), identity_hom(G))
        C = cat2_group(ident, ident)
        assert C.size == (G.order,) * 4
        assert diagonal_pre_cat1(C)[1]


def test_cat2_rejects_noncommuting(d8):
    ta = hom_by_images(d8, d8, [d8.generators[0], 0])
    tb = hom_by_images(d8, d8, [0, d8.generators[1]])
    Ca, Cb = cat1_group(ta, ta), cat1_group(tb, tb)
    # t_a and t_b commute, so this is a valid cat2 with trivial R12
    C = cat2_group(Ca, Cb)
    assert C.size == (8, 2, 2, 1)
    assert not diagonal_pre_cat1(C)[1]
    # mismatched groups are rejected
    with pytest.raises(GroupError, match="same group"):
        c4c2 = catalog.small_group(8, 2)
        cat2_group(Ca, cat1_group(identity_hom(c4c2), identity_hom(c4c2)))


def test_pre_cat2_on_two_groups_raises_at_construction(d8):
    ident = cat1_group(identity_hom(d8), identity_hom(d8))
    other = fresh_copy(d8)
    elsewhere = cat1_group(identity_hom(other), identity_hom(other))
    for build in (PreCat2Group, pre_cat2_group, cat2_group):
        with pytest.raises(GroupError, match="^both structures must live on the same group$"):
            build(ident, elsewhere)


def test_structures_store_only_their_defining_maps(d8):
    """The group and the ranges are read off the maps."""
    assert [f.name for f in dataclasses.fields(PreCat1Group)] == ["tail", "head"]
    assert [f.name for f in dataclasses.fields(PreCat2Group)] == ["c1", "c2"]
    ident = cat1_group(identity_hom(d8), identity_hom(d8))
    C = cat2_group(ident, ident)
    assert C.group is ident.group is d8
    assert (C.r1, C.r2) == (ident.range_, ident.range_)


def test_commutation_witness_failure():
    G = catalog.small_group(6, 1)
    # zero and a projection do not give commuting heads on S3: find a real case
    cat1s = all_cat1_groups(G)
    found = None
    for i in range(len(cat1s)):
        for j in range(len(cat1s)):
            if next(cat2._noncommuting(cat1s[i], cat1s[j]), None) is not None:
                found = (cat1s[i], cat1s[j])
                break
        if found:
            break
    assert found is not None
    with pytest.raises(GroupError, match="commutation identity"):
        pre_cat2_group(*found)


def test_enumeration_counts():
    for key, want in (((8, 2), 47), ((4, 2), 36), ((8, 3), 21), ((8, 4), 1),
                      ((6, 2), 10), ((12, 3), 9), ((1, 1), 1)):
        G = catalog.small_group(*key)
        assert len(all_cat2_groups(G)) == want, key


def test_naive_pair_loop_oracle():
    keys = [(6, 1), (8, 2), (8, 3), (8, 5), (9, 2), (12, 4)]
    keys += [k for k in catalog.catalog_keys() if 17 <= k[0] <= 30 and k not in HEAVY_KEYS]
    for key in keys:
        G = catalog.small_group(*key)
        cat1s = all_cat1_groups(G)
        naive = []
        for i in range(len(cat1s)):
            for j in range(i, len(cat1s)):
                if next(cat2._noncommuting(cat1s[i], cat1s[j]), None) is None:
                    naive.append((i, j))
        assert naive == cat2_pair_indices(G), key


def test_representatives_are_the_least_enumerated_members():
    """Each classifier decodes only its representatives; by key they are the
    least member of each family in the full enumeration of their kind."""
    for key in [*LIGHT_KEYS, (27, 5)]:
        G = catalog.small_group(*key)
        for classify, enumeration in ((cat1_isomorphism_classes, all_cat1_groups),
                                      (cat2_isomorphism_classes, all_cat2_groups)):
            cls, every = classify(G), enumeration(G)
            assert len(every) == len(cls.labels), (key, classify.__name__)
            assert ([key_of(rep) for rep in cls.representatives]
                    == [key_of(every[min(f)]) for f in cls.families]), (key, classify.__name__)


def test_classification_stores_least_class_members():
    """Each classifier stores one read-only label array: every label is the
    least position of its class, so it labels itself and lies at or below
    its position, and the leaders are the first members of the families."""
    for key in [*LIGHT_KEYS, (27, 5)]:
        G = catalog.small_group(*key)
        for classify in (cat1_isomorphism_classes, cat2_isomorphism_classes):
            cls = classify(G)
            labels = cls.labels
            assert np.array_equal(labels[labels], labels), (key, classify.__name__)
            assert (labels <= np.arange(len(labels))).all(), (key, classify.__name__)
            assert (cls.leaders.tolist()
                    == [f[0] for f in cls.families]), (key, classify.__name__)
            with pytest.raises(ValueError):
                labels[-1] = 0


def test_table_row_builds_no_family():
    """In a fresh interpreter, the table rows of the light groups and 27/5
    leave both classifications without a families view: the counts are
    the lengths of the label and leader arrays."""
    code = ("from catsq import catalog, tables\n"
            "from catsq.cat1 import cat1_isomorphism_classes\n"
            "from catsq.cat2 import cat2_isomorphism_classes\n"
            "tables.build_table(heavy=False)\n"
            "tables.compute_group_data(27, 5)\n"
            "keys = [k for k in catalog.catalog_keys() if k != (16, 14)]\n"
            "print(sum('families' in f(catalog.small_group(*k)).__dict__\n"
            "          for k in keys for f in (cat1_isomorphism_classes, cat2_isomorphism_classes)),\n"
            "      2 * len(keys))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "182"]


def test_classification_counts_and_families():
    G = catalog.small_group(8, 2)
    cls = cat2_isomorphism_classes(G)
    assert len(cls.labels) == 47 and len(cls.families) == 14
    assert sorted(len(f) for f in cls.families) == [1, 1, 1] + [4] * 11
    assert sorted(p for f in cls.families for p in f) == list(range(47))
    # cyclic groups: all classes singletons with the three group quadruples
    c9 = catalog.small_group(9, 1)
    cls = cat2_isomorphism_classes(c9)
    assert len(cls.labels) == 3 and len(cls.families) == 3
    assert all(len(f) == 1 for f in cls.families)
    quads = sorted(rep.size for rep in cls.representatives)
    assert quads == [(9, 1, 1, 1), (9, 1, 9, 1), (9, 9, 9, 9)]


def test_r12_divides_r1_and_r2():
    for key in ((8, 2), (8, 3), (12, 4), (16, 3)):
        G = catalog.small_group(*key)
        for C in all_cat2_groups(G):
            _, r1, r2, r12 = C.size
            assert r1 % r12 == 0 and r2 % r12 == 0


def test_isomorphism_between_family_mates():
    G = catalog.small_group(8, 2)
    structures = all_cat2_groups(G)
    cls = cat2_isomorphism_classes(G)
    fam = next(f for f in cls.families if len(f) == 4)
    m = isomorphism_cat2_groups(structures[fam[0]], structures[fam[1]])
    assert m is not None and is_bijective(m.gamma)
    reps = cls.representatives
    assert isomorphism_cat2_groups(reps[0], reps[1]) is None
    assert isomorphism_cat2_groups(reps[0], reps[0]) is not None


def test_transpose_is_involutive():
    G, C1a, C1b = session_16_3()
    C = cat2_group(C1a, C1b)
    T = type(C)(C.c2, C.c1)
    assert T.size == (16, 4, 2, 1)
    assert key_of(type(T)(T.c2, T.c1)) == key_of(C)
    assert isomorphism_cat2_groups(C, T) is not None


def test_morphism_session_count():
    # zero + order-2 projection on C4 x C2 versus cyclic-kernel projection +
    # identity on D8 admits exactly two morphisms
    c4c2 = catalog.small_group(8, 2)
    x, y = c4c2.generators
    zero = trivial_hom(c4c2, c4c2)
    proj = hom_by_images(c4c2, c4c2, [0, y])
    A = cat2_group(cat1_group(zero, zero), cat1_group(proj, proj))
    d8 = catalog.small_group(8, 3)
    r, s = d8.generators
    proj_s = hom_by_images(d8, d8, [0, s])
    B = cat2_group(cat1_group(proj_s, proj_s), cat1_group(identity_hom(d8), identity_hom(d8)))
    mors = all_cat2_group_morphisms(A, B)
    assert len(mors) == 2
    for m in mors:
        assert m.rho1.source.order == 1  # restriction of the zero range


def test_morphisms_basics(d8):
    triv = catalog.small_group(1, 1)
    ident_triv = cat1_group(identity_hom(triv), identity_hom(triv))
    T = cat2_group(ident_triv, ident_triv)
    ident = cat1_group(identity_hom(d8), identity_hom(d8))
    ident_d8 = cat2_group(ident, ident)
    assert len(all_cat2_group_morphisms(ident_d8, T)) == 1
    self_mors = all_cat2_group_morphisms(ident_d8, ident_d8)
    assert any(m.gamma.mapping == tuple(d8.elements()) for m in self_mors)


def test_diagonal_census_examples():
    assert non_cat1_diagonal_count(catalog.small_group(8, 3)) == 1
    assert non_cat1_diagonal_count(catalog.small_group(8, 2)) == 0
    assert non_cat1_diagonal_count(catalog.small_group(12, 3)) == 0


def oracle_bad_diagonals(G):
    """The bad-diagonal count by the per-representative loop that the array
    probe replaced: one :func:`diagonal_pre_cat1` per class representative."""
    return sum(not diagonal_pre_cat1(rep)[1]
               for rep in cat2_isomorphism_classes(G).representatives)


def oracle_representative_partners(G):
    """Per cat1 class representative r, the structures j that commute with it,
    by the whole-row test the pair scan ran before it compared the generator
    columns only: r o j = j o r on every element, for each of the four
    identities."""
    E, (tails, heads) = _endomorphism_maps(G)[0], _cat1_pairs(G)
    T, H = E[tails], E[heads]
    partners = {}
    for r in (f[0] for f in cat1_isomorphism_classes(G).families):
        t, h = T[r], H[r]
        partners[r] = np.flatnonzero(
            (t[T] == T[:, t]).all(axis=1) & (h[H] == H[:, h]).all(axis=1)
            & (t[H] == H[:, t]).all(axis=1) & (h[T] == T[:, h]).all(axis=1)).tolist()
    return partners


def representative_partners(G):
    """Per cat1 class representative r, the j such that (r, j) or (j, r) is a
    pair code of the scan."""
    i, j = np.divmod(cat2._cat2_codes(G), len(_cat1_pairs(G)[0]))
    return {r: sorted(set(j[i == r].tolist()) | set(i[j == r].tolist()))
            for r in (f[0] for f in cat1_isomorphism_classes(G).families)}


def test_pair_scan_partners_match_the_whole_row_oracle():
    keys = [k for k in catalog.catalog_keys() if k not in HEAVY_KEYS] + [(27, 5)]
    for key in keys:
        G = catalog.small_group(*key)
        assert representative_partners(G) == oracle_representative_partners(G), key


def test_diagonal_probe_matches_the_per_representative_loop():
    """On the catalog groups but 16/14, and on S3 x S3 (order 36): on no
    catalog group does testing [ker t, ker t] = 1 or [ker h, ker h] = 1 in
    place of [ker t, ker h] = 1 change the count, on S3 x S3 either gives 2."""
    keys = [k for k in catalog.catalog_keys() if k not in HEAVY_KEYS] + [(27, 5)]
    for key in keys:
        G = catalog.small_group(*key)
        assert non_cat1_diagonal_count(G) == oracle_bad_diagonals(G), key
    s3 = catalog.small_group(6, 1)
    G = direct_product(s3, s3)
    assert non_cat1_diagonal_count(G) == oracle_bad_diagonals(G) == 1


def test_diagonal_probe_rejects_a_diagonal_that_is_no_pre_cat1(monkeypatch):
    """A pair code whose diagonal fails t o h = h or h o t = t raises, naming
    the line and witness that :func:`pre_cat1_by_endomorphisms` names."""
    G = fresh_copy(catalog.small_group(8, 3))
    cat1s = all_cat1_groups(G)

    def diagonal_error(a, b):
        try:
            pre_cat1_by_endomorphisms(compose(a.tail, b.tail), compose(a.head, b.head))
        except GroupError as exc:
            return str(exc)
        return None

    i, j, message = next((i, j, m) for i in range(len(cat1s)) for j in range(i, len(cat1s))
                         if (m := diagonal_error(cat1s[i], cat1s[j])))
    # the enumeration, corrupted to hold that one pair as its only class
    monkeypatch.setattr(cat2, "_cat2_codes", lambda G: np.array([i * len(cat1s) + j]))
    monkeypatch.setattr(cat2, "cat2_isomorphism_classes",
                        lambda G: Classification(G, np.array([0]), cat2._cat2_structures))
    with pytest.raises(GroupError, match="on the diagonal of cat2 class 1") as caught:
        non_cat1_diagonal_count(G)
    assert str(caught.value).endswith(message.split(": ", 1)[1])


def test_diagonal_reads_the_memoized_cat1_report(monkeypatch):
    """``diagonal_pre_cat1`` reads the memoized cat1 report of its composed
    maps, so a second call on the same structure checks no kernel line."""
    from catsq import cat1

    G = fresh_copy(catalog.small_group(8, 3))
    reps = cat2_isomorphism_classes(G).representatives
    calls, kernel_check = [], cat1._kernel_check
    monkeypatch.setattr(cat1, "_kernel_check",
                        lambda *args: calls.append(args) or kernel_check(*args))
    diagonals, verdicts = set(), []
    for C in reps:
        first, second = diagonal_pre_cat1(C), diagonal_pre_cat1(C)
        assert key_of(first[0]) == key_of(second[0]) and first[1:] == second[1:]
        diagonals.add(key_of(first[0]))
        verdicts.append(first[1])
    assert len(calls) == len(diagonals)
    assert verdicts.count(False) == non_cat1_diagonal_count(G) == 1


def test_diagonal_of_a_parsed_pre_cat2_names_the_failing_line():
    """An uncertified pair, as ``parse_cat2`` returns it, whose diagonal
    fails t o h = h raises the message of
    :func:`pre_cat1_by_endomorphisms` on the composed maps.  Composed maps
    that are no homomorphisms raise on their line of the cat1 report."""
    G = catalog.small_group(4, 2)
    cat1s = all_cat1_groups(G)

    def diagonal_error(a, b):
        try:
            pre_cat1_by_endomorphisms(compose(a.tail, b.tail), compose(a.head, b.head))
        except GroupError as exc:
            return str(exc)
        return None

    a, b, message = next((a, b, m) for a in cat1s for b in cat1s
                         if (m := diagonal_error(a, b)) and "t o h = h" in m)
    P = parse_cat2(emit_cat2(PreCat2Group(a, b), (4, 2)))
    with pytest.raises(GroupError) as caught:
        diagonal_pre_cat1(P)
    assert str(caught.value) == message
    assert message.startswith("pre-cat1 axiom violated: t o h = h fails with witness (")

    # an idempotent map that is no homomorphism passes both pre-cat1 lines
    s3 = catalog.small_group(6, 1)
    x = next(g for g in s3.elements() if s3.element_order(g) == 3)
    f = Homomorphism(s3, s3, tuple(0 if g == x else g for g in s3.elements()))
    ident = identity_hom(s3)
    P = parse_cat2(emit_cat2(PreCat2Group(PreCat1Group(f, f), PreCat1Group(ident, ident)),
                             (6, 1)))
    with pytest.raises(GroupError,
                       match=r"^pre-cat1 axiom violated: t is a homomorphism fails with witness"):
        diagonal_pre_cat1(P)


def test_pre_cat2_accepts_pre_cat1_pairs():
    # the zero pre-cat1 on Q8 commutes with itself but fails eq-style cat1
    from catsq.cat1 import is_cat1_group

    q8 = catalog.small_group(8, 4)
    z = trivial_hom(q8, q8)
    pre = pre_cat1_by_endomorphisms(z, z)
    assert not is_cat1_group(pre).ok
    P = pre_cat2_group(pre, pre)
    assert P.size == (8, 1, 1, 1)
    with pytest.raises(GroupError, match="not a cat1-group"):
        cat2_group(pre, pre)


def test_is_cat2_group_report():
    names = [f"structure {n}: {c}" for n in (1, 2)
             for c in ("t is a homomorphism", "h is a homomorphism",
                       "t o h = h", "h o t = t", "[ker t, ker h] = 1")]
    names.append("commutation identities")
    for key in ((8, 3), (16, 11)):
        for C in all_cat2_groups(catalog.small_group(*key)):
            report = is_cat2_group(C)
            assert report.ok, key
            assert [c.name for c in report.checks] == names
    # a pair of cat1 structures that do not commute fails only commutation,
    # with the witness of the per-element oracle
    cat1s = all_cat1_groups(catalog.small_group(6, 1))
    c1, c2 = next((a, b) for a in cat1s for b in cat1s
                  if _first_noncommuting(a, b) is not None)
    bad = failures(is_cat2_group(PreCat2Group(c1, c2)))
    assert [(c.name, c.witness) for c in bad] == [
        ("commutation identities", _first_noncommuting(c1, c2))]


def _first_noncommuting(c1, c2):
    """(identity, x) for the first of the four commutation identities that
    fails and its least failing element x, by applying the maps one element
    at a time; None if all four hold."""
    (t1, h1), (t2, h2) = (c1.tail, c1.head), (c2.tail, c2.head)
    for name, a, b in (("t1 o t2 = t2 o t1", t1, t2), ("h1 o h2 = h2 o h1", h1, h2),
                       ("t1 o h2 = h2 o t1", t1, h2), ("t2 o h1 = h1 o t2", t2, h1)):
        for x in c1.group.elements():
            if a(b(x)) != b(a(x)):
                return name, x
    return None
