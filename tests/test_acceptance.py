"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints one ``criterion N (...): PASS/FAIL`` line (visible with
``pytest -s``).  Criteria 2 is the full-tier table check and runs under the
``heavy`` marker, as do the 16/14 portions of criteria 6 and 7 (the heavy
part of criterion 7 also checks the 27/5 pair scan against the naive loop,
the partner lists of both heavy groups' cat1 representatives against the
whole-row test of ``tests/test_cat2.py``, the End(G) kernel and Aut(G)
generators of both heavy groups against the per-tuple closure of
``tests/test_groups.py``, their cat1 orbit maps and cat1 and cat2 families
against the union-find oracle of ``tests/test_orbits.py``, and the 16/14
diagonal probe against the per-representative loop of ``tests/test_cat2.py``).

The embedded reference data is asserted verbatim except at a few entries that
are provably wrong.  Those are named in ``TABLE_ERRATA`` and
``DIAGONAL_ERRATA`` as (stated, true) pairs, and each test that uses them also
asserts that the reference disagrees with the computation at exactly those
keys and proves every true value by a route independent of the classifier:

- 16/14: ie = 802 by the closed formula for idempotent matrices over GF(2),
  cat1 = 10,882 by the naive pair loop, and 55 cat2 classes by closing each
  class representative under all 20,160 automorphisms (criterion 2);
- 27/5: 23 cat2 classes by closing each representative under all 11,232
  automorphisms (criterion 2), so the grand total is 1,009, not 1,000;
- 16/11: 5 classes with a non-cat1 diagonal, not 6, by closing all 649 cat2
  pairs under all 64 automorphisms and testing each diagonal's kernels
  directly (criterion 4), so the census total is 12, not 13.
"""

import functools
import itertools

import numpy as np
import pytest

from catsq import catalog, cat2
from catsq.groups import (
    _endomorphism_maps,
    automorphism_generators,
    automorphism_group,
    group_from_permutation_generators,
    idempotent_endomorphisms,
    identity_hom,
    isomorphism_between,
    subgroup_generated,
)
from catsq.cat1 import _cat1_pairs, all_cat1_groups, cat1_isomorphism_classes
from catsq.cat2 import (
    all_cat2_groups,
    cat2_group,
    cat2_isomorphism_classes,
    cat2_pair_indices,
    diagonal_pre_cat1,
    non_cat1_diagonal_count,
)
from catsq.tables import HEAVY_KEYS, expected_bad_diagonals, expected_counts
from catsq.xsq import (
    cat2_of_crossed_square,
    crossed_square_by_normal_subgroups,
    crossed_square_of_cat2,
    is_crossed_square,
)
from constructions import (all_cat2_group_morphisms, all_homomorphisms, automorphism_xmod,
                           cat1_group, cat1_of_xmod, conjugation_xmod, failures, key_of,
                           trivial_hom, xmod_of_cat1)
from test_cat2 import oracle_bad_diagonals, oracle_representative_partners, representative_partners
from test_groups import (end_map_tuples, fresh_copy, hom_by_images, normal_subgroups,
                         oracle_aut_generators, oracle_end_maps)
from test_orbits import oracle_problems


# Reference entries that are provably wrong, key -> (stated, true).
TABLE_ERRATA = {
    (16, 14): ((382, 4162, 9, 298483, 53), (802, 10882, 9, 298483, 55)),
    (27, 5): ((236, 2108, 6, 24222, 16), (236, 2108, 6, 24222, 23)),
}
DIAGONAL_ERRATA = {(16, 11): (6, 5)}

# |Aut(G)| for the groups whose errata are proved by orbit closure:
# C2 x D8, C2^4 (GL(4,2)) and C3^3 (GL(3,3)).
AUT_ORDERS = {(16, 11): 64, (16, 14): 20160, (27, 5): 11232}


def _verdict(num: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num} ({name}): {status}")
    assert not problems, f"criterion {num} ({name}):\n  " + "\n  ".join(problems[:20])


def _computed_counts(order, gid):
    G = catalog.small_group(order, gid)
    return (len(idempotent_endomorphisms(G)),
            len(all_cat1_groups(G)),
            len(cat1_isomorphism_classes(G).families),
            len(cat2_pair_indices(G)),
            len(cat2_isomorphism_classes(G).families))


def _errata_problems(computed, reference, errata, what):
    """Compare computed values with the reference corrected by ``errata``.

    Also reports an erratum whose stated value is not the reference's, and a
    disagreement between reference and computation at a key no erratum names.
    """
    problems = []
    for (order, gid), got in computed.items():
        stated = reference(order, gid)
        named, want = errata.get((order, gid), (stated, stated))
        if named != stated:
            problems.append(f"{order}/{gid}: erratum names {named}, reference is {stated}")
        if got != want:
            problems.append(f"{order}/{gid}: computed {got} {what}, expected {want}")
    disagree = {key for key, got in computed.items() if got != reference(*key)}
    if disagree != set(errata):
        problems.append(f"reference disagrees at {sorted(disagree)}, "
                        f"errata name {sorted(errata)}")
    return problems


def _aut_orbit_closure(key):
    """The map sending a cat2 index pair to its orbit under all of Aut(G).

    Every automorphism is applied to the pair directly, so the orbit needs no
    generating set, union-find or classifier from the library; sorting each
    image pair realizes the orientation swap.  Also returns the problems
    found with the automorphism list itself.
    """
    G = catalog.small_group(*key)
    auts = automorphism_group(G)
    problems = []
    if len(auts) != AUT_ORDERS[key] or len({a.mapping for a in auts}) != len(auts):
        problems.append(f"{key[0]}/{key[1]}: {len(auts)} automorphisms, "
                        f"expected {AUT_ORDERS[key]} distinct ones")
    A = np.array([a.mapping for a in auts], dtype=np.int16)
    A_inv = np.argsort(A, axis=1)
    cat1s = all_cat1_groups(G)
    TH = np.array([c.tail.mapping + c.head.mapping for c in cat1s], dtype=np.int16)
    n = G.order
    position = {row.tobytes(): pos for pos, row in enumerate(TH)}

    @functools.cache
    def images(i):
        # position of a o (t, h) o a^-1 in the cat1 list, for every a
        conj = np.hstack([np.take_along_axis(A, m[A_inv], axis=1)
                          for m in (TH[i, :n], TH[i, n:])])
        return np.array([position[row.tobytes()] for row in conj])

    def orbit(pair):
        a, b = images(pair[0]), images(pair[1])
        return frozenset(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))

    return orbit, problems


def _family_sets(pairs, families):
    return [frozenset(pairs[pos] for pos in fam) for fam in families]


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@functools.cache
def _naive_cat1_keys_16_14():
    """Cat1 structures on C2^4 by the naive loop over pairs of idempotents."""
    G = catalog.small_group(16, 14)
    ies = idempotent_endomorphisms(G)
    rng = range(G.order)
    naive1 = []
    for t in ies:
        tm = t.mapping
        for h in ies:
            hm = h.mapping
            if (all(tm[hm[x]] == hm[x] for x in rng)
                    and all(hm[tm[x]] == tm[x] for x in rng)):
                naive1.append((tm, hm))  # abelian: kernels always commute
    return naive1


def _prove_table_errata():
    """Independent routes to every true value in ``TABLE_ERRATA``."""
    problems = []
    ie, c1 = TABLE_ERRATA[(16, 14)][1][:2]
    # an idempotent on GF(2)^4 is an image of rank k plus a complement
    closed_form = sum(_gaussian_binomial(4, k, 2) * 2 ** (k * (4 - k))
                      for k in range(5))
    if closed_form != ie:
        problems.append(f"16/14: closed-form idempotent count {closed_form}, "
                        f"erratum says {ie}")
    naive = len(_naive_cat1_keys_16_14())
    if naive != c1:
        problems.append(f"16/14: naive loop finds {naive} cat1 structures, "
                        f"erratum says {c1}")
    for key, (_, true) in TABLE_ERRATA.items():
        G = catalog.small_group(*key)
        name = f"{key[0]}/{key[1]}"
        pairs = cat2_pair_indices(G)
        families = cat2_isomorphism_classes(G).families
        orbit, aut_problems = _aut_orbit_closure(key)
        problems += aut_problems
        if len(families) != true[4]:
            problems.append(f"{name}: {len(families)} cat2 classes, erratum says {true[4]}")
        for fam, members in zip(families, _family_sets(pairs, families)):
            if orbit(pairs[fam[0]]) != members:
                problems.append(f"{name}: the family of position {fam[0]} "
                                f"is not its Aut(G) orbit")
    return problems


def _prove_diagonal_erratum_16_11():
    """Orbit closure on 16/11 and a direct kernel test of each diagonal."""
    key = (16, 11)
    G = catalog.small_group(*key)
    cat1s = all_cat1_groups(G)
    pairs = cat2_pair_indices(G)
    orbit, problems = _aut_orbit_closure(key)
    if len(pairs) != 649:
        problems.append(f"16/11: {len(pairs)} cat2 pairs, expected 649")
    orbits = {orbit(p) for p in pairs}
    families = _family_sets(pairs, cat2_isomorphism_classes(G).families)
    if len(orbits) != 29 or orbits != set(families):
        problems.append(f"16/11: {len(orbits)} Aut(G) orbits, which differ "
                        f"from the {len(families)} families")

    def kernels_clash(pair):
        (t1, h1), (t2, h2) = key_of(cat1s[pair[0]]), key_of(cat1s[pair[1]])
        kt = [x for x in G.elements() if t1[t2[x]] == 0]
        kh = [x for x in G.elements() if h1[h2[x]] == 0]
        return any(G.mul(a, b) != G.mul(b, a) for a in kt for b in kh)

    verdicts = [{kernels_clash(p) for p in orb} for orb in orbits]
    if any(len(v) != 1 for v in verdicts):
        problems.append("16/11: the diagonal verdict varies within an orbit")
    bad = sum(True in v for v in verdicts)
    if bad != DIAGONAL_ERRATA[key][1]:
        problems.append(f"16/11: {bad} orbits with a non-cat1 diagonal, "
                        f"erratum says {DIAGONAL_ERRATA[key][1]}")
    return problems


def test_criterion_1_table_fast_tier():
    """Non-cyclic groups of order <= 16 except 16/14, plus all cyclic <= 30."""
    problems = []
    for order, gid in catalog.catalog_keys():
        cyclic = catalog.is_cyclic_key(order, gid)
        if (order, gid) in HEAVY_KEYS or (order > 16 and not cyclic):
            continue
        got = _computed_counts(order, gid)
        want = expected_counts(order, gid)
        if got != want:
            problems.append(f"{order}/{gid}: computed {got}, stated {want}")
    for key, want in (((8, 3), (10, 9, 3, 21, 6)),
                      ((8, 2), (10, 18, 6, 47, 14)),
                      ((8, 5), (58, 226, 6, 1711, 23))):
        if _computed_counts(*key) != want:
            problems.append(f"pinned row {key} mismatch")
    _verdict(1, "table reproduction, fast tier", problems)


@pytest.mark.heavy
def test_criterion_2_table_full_tier():
    """All 92 rows against the reference corrected by ``TABLE_ERRATA``.

    The reference differs from the computed table at 16/14 and 27/5 only, and
    the corrected grand total of cat2 classes is 1,009 (1,000 as stated); the
    true values are proved by ``_prove_table_errata``.
    """
    table = {key: _computed_counts(*key) for key in catalog.catalog_keys()}
    problems = _errata_problems(table, expected_counts, TABLE_ERRATA, "counts")
    total = sum(counts[4] for counts in table.values())
    if total != 1009:
        problems.append(f"grand total of cat2 classes computed {total}, expected 1009")
    problems += _prove_table_errata()
    _verdict(2, "table reproduction, full tier", problems)


def test_criterion_3_cyclic_closed_forms():
    """Cyclic groups with m = 1..4 distinct prime factors: (2^m, ..., f(m))."""
    problems = []
    witnesses = {1: catalog.small_group(16, 1), 2: catalog.small_group(6, 2),
                 3: catalog.small_group(30, 4)}
    witnesses[4] = group_from_permutation_generators(
        [[tuple(range(1, 211))]], "C210")
    f = {1: 3, 2: 10, 3: 36, 4: 136}
    for m, G in witnesses.items():
        k = 2 ** m
        ie = len(idempotent_endomorphisms(G))
        c1 = all_cat1_groups(G)
        cls1 = cat1_isomorphism_classes(G)
        pairs = cat2_pair_indices(G)
        cls2 = cat2_isomorphism_classes(G)
        got = (ie, len(c1), len(cls1.families), len(pairs), len(cls2.families))
        want = (k, k, k, f[m], f[m])
        if got != want:
            problems.append(f"m={m} ({G.label}): computed {got}, stated {want}")
        if any(len(fam) != 1 for fam in cls2.families):
            problems.append(f"m={m}: a cat2 class is not a singleton")
        if any(len(fam) != 1 for fam in cls1.families):
            problems.append(f"m={m}: a cat1 class is not a singleton")
    _verdict(3, "cyclic closed forms", problems)


def test_criterion_4_diagonal_census():
    """The reference 1/1/1/1/3/6 census, corrected by ``DIAGONAL_ERRATA``.

    The reference differs from the computed census at 16/11 only, where 5
    classes (not 6) have a diagonal that is not a cat1-group, so the total is
    12 (13 as stated); ``_prove_diagonal_erratum_16_11`` proves the 5.
    """
    census = {}
    for order, gid in catalog.catalog_keys():
        if (order, gid) in HEAVY_KEYS:
            # both heavy groups are abelian, so every diagonal is a cat1-group
            assert catalog.small_group(order, gid).is_abelian()
            continue
        census[(order, gid)] = non_cat1_diagonal_count(catalog.small_group(order, gid))
    assert len(census) == 90
    problems = _errata_problems(census, expected_bad_diagonals, DIAGONAL_ERRATA,
                                "bad classes")
    total = sum(census.values())
    if total != 12:
        problems.append(f"total bad-diagonal classes computed {total}, expected 12")
    problems += _prove_diagonal_erratum_16_11()
    _verdict(4, "diagonal census", problems)


def test_criterion_5_session_checks():
    problems = []

    # stored cat1 structures for A4: ``There are 2 cat1-structures``
    a4 = catalog.small_group(12, 3)
    cls = cat1_isomorphism_classes(a4)
    if len(cls.families) != 2:
        problems.append(f"A4 has {len(cls.families)} cat1 classes, stated 2")
    if len(cls.labels) != 5:
        problems.append(f"A4 has {len(cls.labels)} cat1 structures, table says 5")

    # the order-16 cat2 with size [16, 2, 4, 1] and a pre-cat1 diagonal
    G = catalog.small_group(16, 3)
    ga, gb, gc = G.generators
    C2ab = cat2_group(cat1_group(*[hom_by_images(G, G, [0, 0, gc])] * 2),
                      cat1_group(*[hom_by_images(G, G, [ga, 0, 0])] * 2))
    if C2ab.size != (16, 2, 4, 1):
        problems.append(f"session cat2 size {C2ab.size}, stated (16, 2, 4, 1)")
    if diagonal_pre_cat1(C2ab)[1]:
        problems.append("session cat2 diagonal unexpectedly is a cat1-group")

    # its crossed square has corner types [[2,1],[2,1],[4,1],[1,1]]
    X = crossed_square_of_cat2(C2ab)
    quad = [list(catalog.identify_group(g)) for g in
            (X.up_left, X.up_right, X.down_left, X.down_right)]
    if quad != [[2, 1], [2, 1], [4, 1], [1, 1]]:
        problems.append(f"corner identification {quad}")

    # exactly two morphisms between the two session cat2-groups
    c4c2 = catalog.small_group(8, 2)
    y = c4c2.generators[1]
    zero = trivial_hom(c4c2, c4c2)
    A = cat2_group(cat1_group(zero, zero),
                   cat1_group(*[hom_by_images(c4c2, c4c2, [0, y])] * 2))
    d8 = catalog.small_group(8, 3)
    s = d8.generators[1]
    B = cat2_group(cat1_group(*[hom_by_images(d8, d8, [0, s])] * 2),
                   cat1_group(identity_hom(d8), identity_hom(d8)))
    n = len(all_cat2_group_morphisms(A, B))
    if n != 2:
        problems.append(f"{n} morphisms between the session cat2-groups, stated 2")

    # family-size multiset for C4 x C2
    sizes = sorted(len(f) for f in cat2_isomorphism_classes(c4c2).families)
    if sizes != [1, 1, 1] + [4] * 11:
        problems.append(f"family sizes {sizes}")

    _verdict(5, "session-level checks", problems)


def _conjugation_xmods_up_to(bound):
    for order, gid in catalog.catalog_keys():
        P = catalog.small_group(order, gid)
        for N in normal_subgroups(P):
            if N.order * P.order <= bound:
                yield conjugation_xmod(N, P)


def test_criterion_6_round_trips_fast():
    problems = []

    # crossed module <-> cat1 round trip preserves source/range types
    count = 0
    for X in _conjugation_xmods_up_to(200):
        back = xmod_of_cat1(cat1_of_xmod(X))
        if not (isomorphism_between(back.source, X.source) is not None
                and isomorphism_between(back.range_, X.range_) is not None):
            problems.append(f"conjugation round trip failed on {X!r}")
        count += 1
    assert count > 200  # the sweep really covers the catalog
    for key in ((2, 1), (4, 1), (4, 2), (6, 1)):
        X = automorphism_xmod(catalog.small_group(*key))
        if X.source.order * X.range_.order <= 200:
            back = xmod_of_cat1(cat1_of_xmod(X))
            if not (isomorphism_between(back.source, X.source) is not None
                    and isomorphism_between(back.range_, X.range_) is not None):
                problems.append(f"automorphism round trip failed on {key}")

    # every cat2 on groups of order <= 16 (heavy row excluded here)
    # converts to a structure passing all five axioms
    for order, gid in catalog.catalog_keys():
        if order > 16 or (order, gid) in HEAVY_KEYS:
            continue
        G = catalog.small_group(order, gid)
        for C in all_cat2_groups(G):
            rep = is_crossed_square(crossed_square_of_cat2(C))
            if not rep.ok:
                problems.append(f"conversion of a cat2 on {order}/{gid} failed: "
                                f"{failures(rep)[0].name}")
                break

    # crossed square -> cat2 -> crossed square preserves corner types (<= 12)
    for order, gid in catalog.catalog_keys():
        if order > 12:
            continue
        G = catalog.small_group(order, gid)
        for C in all_cat2_groups(G):
            X = crossed_square_of_cat2(C)
            X2 = crossed_square_of_cat2(cat2_of_crossed_square(X))
            for g1, g2 in ((X.up_left, X2.up_left), (X.up_right, X2.up_right),
                           (X.down_left, X2.down_left), (X.down_right, X2.down_right)):
                if catalog.identify_group(g1) != catalog.identify_group(g2):
                    problems.append(f"corner type changed on {order}/{gid}")
                    break

    # the inclusion square over D20 produces a valid cat2 on 10,000 elements
    d20 = catalog.small_group(20, 4)
    p1 = d20.generators[0]
    p1sq = d20.mul(p1, p1)
    d10a = subgroup_generated(d20, [p1sq, d20.generators[1]])
    d10b = subgroup_generated(d20, [p1sq, d20.mul(p1, d20.generators[1])])
    c5d = subgroup_generated(d20, [p1sq])
    XS1 = crossed_square_by_normal_subgroups(c5d, d10a, d10b, d20)
    C = cat2_of_crossed_square(XS1)
    if C.group.order != 10_000:
        problems.append(f"cat2 of the D20 square has order {C.group.order}")

    _verdict(6, "equivalence round trips", problems)


@pytest.mark.heavy
def test_criterion_6_conversion_sweep_16_14():
    problems = []
    G = catalog.small_group(16, 14)
    for pos, C in enumerate(all_cat2_groups(G)):
        rep = is_crossed_square(crossed_square_of_cat2(C))
        if not rep.ok:
            problems.append(f"conversion {pos} failed: {failures(rep)[0].name}")
            break
    _verdict(6, "conversion sweep on 16/14", problems)


def _exhaustive_homs(G, H):
    """All-maps filter, run as position-wise DFS with consistency pruning."""
    n = G.order
    out = []
    f = [-1] * n
    prods_to = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prods_to[G.mul(i, j)].append((i, j))

    def consistent(k):
        for i in range(k + 1):
            for a, b in ((k, i), (i, k)):
                p = G.mul(a, b)
                if p <= k and H.mul(f[a], f[b]) != f[p]:
                    return False
        for i, j in prods_to[k]:
            if i < k and j < k and H.mul(f[i], f[j]) != f[k]:
                return False
        return True

    def rec(k):
        if k == n:
            out.append(tuple(f))
            return
        for v in range(H.order):
            f[k] = v
            if consistent(k):
                rec(k + 1)
        f[k] = -1

    rec(0)
    return sorted(out)


def test_criterion_7_oracle_equivalence_fast():
    problems = []

    # homomorphism enumeration against the exhaustive all-maps filter
    keys = [(o, i) for (o, i) in catalog.catalog_keys() if o <= 8]
    for ka in keys:
        for kb in keys:
            G, H = catalog.small_group(*ka), catalog.small_group(*kb)
            got = [h.mapping for h in all_homomorphisms(G, H)]
            want = _exhaustive_homs(G, H)
            if got != want:
                problems.append(f"hom enumeration differs for {ka} -> {kb}")
            if H.order ** G.order <= 20_000:
                literal = sorted(
                    m for m in itertools.product(range(H.order), repeat=G.order)
                    if all(m[G.mul(x, y)] == H.mul(m[x], m[y])
                           for x in G.elements() for y in G.elements()))
                if got != literal:
                    problems.append(f"literal filter differs for {ka} -> {kb}")

    # the cat1 enumeration and its tail|head array against the naive loop
    # over pairs of idempotents on every light group, and the cat2
    # enumeration against its naive loop up to order 16.  The loop also
    # counts the same-image pairs that fail only the kernel axiom.
    kernel_rejects = {}
    for order, gid in catalog.catalog_keys():
        if (order, gid) in HEAVY_KEYS:
            continue
        G = catalog.small_group(order, gid)
        ies = idempotent_endomorphisms(G)
        naive1, rejects = [], 0
        for t in ies:
            for h in ies:
                tm, hm = t.mapping, h.mapping
                if (all(tm[hm[x]] == hm[x] for x in G.elements())
                        and all(hm[tm[x]] == tm[x] for x in G.elements())):
                    kt = [x for x in G.elements() if tm[x] == 0]
                    kh = [x for x in G.elements() if hm[x] == 0]
                    if all(G.mul(a, b) == G.mul(b, a) for a in kt for b in kh):
                        naive1.append((tm, hm))
                    else:
                        rejects += 1
        kernel_rejects[(order, gid)] = rejects
        cat1s = all_cat1_groups(G)
        if naive1 != [key_of(c) for c in cat1s]:
            problems.append(f"cat1 naive loop differs on {order}/{gid}")
        E, (tails, heads) = _endomorphism_maps(G)[0], _cat1_pairs(G)
        if (E[tails].tolist() != [list(c.tail.mapping) for c in cat1s]
                or E[heads].tolist() != [list(c.head.mapping) for c in cat1s]):
            problems.append(f"cat1 index pairs differ from the structures on {order}/{gid}")
        if order > 16:
            continue
        naive2 = [(i, j) for i in range(len(cat1s)) for j in range(i, len(cat1s))
                  if next(cat2._noncommuting(cat1s[i], cat1s[j]), None) is None]
        if naive2 != cat2_pair_indices(G):
            problems.append(f"cat2 naive loop differs on {order}/{gid}")
    seen = {k: kernel_rejects[k] for k in ((24, 14), (27, 3), (28, 3))}
    if seen != {(24, 14): 461, (27, 3): 73, (28, 3): 47}:
        problems.append(f"same-image pairs failing the kernel axiom: {seen}")

    _verdict(7, "oracle equivalence", problems)


@pytest.mark.heavy
def test_criterion_7_oracle_equivalence_16_14():
    problems = []
    G = catalog.small_group(16, 14)
    if _naive_cat1_keys_16_14() != [key_of(c) for c in all_cat1_groups(G)]:
        problems.append("cat1 naive loop differs on 16/14")
    # the array diagonal probe against the per-representative loop
    if non_cat1_diagonal_count(G) != oracle_bad_diagonals(G):
        problems.append("diagonal probe differs from the per-representative loop on 16/14")
    for key in ((16, 14), (27, 5)):
        G = catalog.small_group(*key)
        cat1s = all_cat1_groups(G)
        naive2 = [(i, j) for i in range(len(cat1s)) for j in range(i, len(cat1s))
                  if next(cat2._noncommuting(cat1s[i], cat1s[j]), None) is None]
        if naive2 != cat2_pair_indices(G):
            problems.append(f"cat2 naive loop differs on {key[0]}/{key[1]}")
        # the generator-column partner lists against the whole-row test
        if representative_partners(G) != oracle_representative_partners(G):
            problems.append(f"pair-scan partners differ from the whole-row test "
                            f"on {key[0]}/{key[1]}")
        # the batched End(G) kernel and Aut(G) closure against the
        # per-tuple closure, on a copy with an empty cache
        F = fresh_copy(G)
        end_maps = oracle_end_maps(F)
        if end_map_tuples(F) != end_maps:
            problems.append(f"End(G) kernel differs on {key[0]}/{key[1]}")
        if (list(map(tuple, automorphism_generators(F).tolist()))
                != oracle_aut_generators(F, end_maps[1])):
            problems.append(f"Aut(G) generators differ on {key[0]}/{key[1]}")
        # the array orbit maps and families against the per-structure
        # conjugation and union-find they replaced
        problems += oracle_problems(G, f"{key[0]}/{key[1]}")
    _verdict(7, "oracle equivalence on 16/14 and 27/5", problems)
