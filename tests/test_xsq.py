import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

from catsq import catalog, cli, xsq
from catsq.groups import (
    DENSE_CAP,
    GroupAction,
    GroupError,
    Subgroup,
    TooLargeError,
    group_from_permutation_generators,
    identity_hom,
    intersection,
    subgroup_generated,
    trivial_action,
    trivial_hom,
)
from catsq.cat1 import cat1_group, pre_cat1_by_endomorphisms
from catsq.cat2 import (
    all_cat2_groups,
    cat2_group,
    is_cat2_group,
    pre_cat2_group,
)
from catsq.serialize import emit_cat2, emit_xsq, parse_cat2, parse_xsq
from catsq.xmod import automorphism_xmod, is_action, is_homomorphism
from catsq.xsq import (
    CrossedSquare,
    ValidCrossedSquare,
    actor_crossed_square,
    cat2_of_crossed_square,
    crossed_square,
    crossed_square_by_normal_subgroups,
    crossed_square_of_cat2,
    direct_product_xsq,
    is_crossed_square,
    transpose_xsq,
    trivial_action_crossed_square,
)
from test_groups import hom_by_images, normal_subgroups, verify_group_axioms


@pytest.fixture(scope="module")
def xs1(d20):
    p1 = d20.generators[0]
    p1sq = d20.mul(p1, p1)
    p12 = d20.mul(p1, d20.generators[1])
    d10a = subgroup_generated(d20, [p1sq, d20.generators[1]])
    d10b = subgroup_generated(d20, [p1sq, p12])
    c5d = subgroup_generated(d20, [p1sq])
    return crossed_square_by_normal_subgroups(c5d, d10a, d10b, d20)


@pytest.fixture(scope="module")
def c2ab():
    G = catalog.small_group(16, 3)
    ga, gb, gc = G.generators
    t1a = hom_by_images(G, G, [0, 0, gc])
    t1b = hom_by_images(G, G, [ga, 0, 0])
    return cat2_group(cat1_group(t1a, t1a), cat1_group(t1b, t1b))


@pytest.fixture(scope="module")
def c2_7_square():
    """C2 -> C2^7 (twice) -> C2 with trivial actions and zero boundaries:
    each axiom-2 tuple set has 128^3 tuples."""
    big = group_from_permutation_generators(
        [[(2 * i + 1, 2 * i + 2)] for i in range(7)], "C2^7")
    c2 = catalog.small_group(2, 1)
    return trivial_action_crossed_square(c2, big, big, c2,
                                         trivial_action(c2, big), trivial_action(c2, big))


def _fields(X, **changes):
    """The field values of ``X`` by name, some replaced."""
    return {**{f.name: getattr(X, f.name) for f in fields(X)}, **changes}


def test_inclusion_square_xs1(xs1):
    assert xs1.corner_orders() == (5, 10, 10, 20)
    assert is_crossed_square(xs1).ok
    # every tuple set of the checker has at most 20 * 10 * 10 tuples
    assert isinstance(xs1, ValidCrossedSquare)


def test_inclusion_square_on_d8(d8):
    a, b = d8.generators
    c = d8.comm(a, b)
    L = subgroup_generated(d8, [c])
    M = subgroup_generated(d8, [a, c])
    N = subgroup_generated(d8, [b, c])
    X = crossed_square_by_normal_subgroups(L, M, N, d8)
    assert X.corner_orders() == (2, 4, 4, 8)


def test_inclusion_square_trivial(d8):
    t = Subgroup(d8, (0,))
    X = crossed_square_by_normal_subgroups(t, t, t, d8)
    assert X.corner_orders() == (1, 1, 1, 8)


def test_inclusion_square_rejects_wrong_intersection(d8):
    t = Subgroup(d8, (0,))
    whole = Subgroup(d8, tuple(d8.elements()))
    with pytest.raises(GroupError, match="intersection"):
        crossed_square_by_normal_subgroups(t, whole, whole, d8)


def test_broken_pairing_fails_axiom3(xs1):
    bad = CrossedSquare(
        xs1.up_left, xs1.up_right, xs1.down_left, xs1.down_right,
        xs1.kappa, xs1.lambda_, xs1.mu, xs1.nu,
        xs1.act_l, xs1.act_m, xs1.act_n,
        ((0,) * xs1.down_left.order,) * xs1.up_right.order)
    rep = is_crossed_square(bad)
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert "axiom3:kappa" in names or "axiom3:lambda" in names
    first = rep.failures()[0]
    assert first.witness is not None
    # a raw square carries no certificate, so the reverse functor checks it
    with pytest.raises(GroupError, match="not a crossed square"):
        cat2_of_crossed_square(bad)


def test_actor_squares():
    X = actor_crossed_square(catalog.small_group(2, 1))
    assert X.corner_orders() == (2, 1, 1, 1)
    X = actor_crossed_square(catalog.small_group(6, 1))
    assert X.corner_orders() == (6, 6, 6, 6)
    assert len(set(X.kappa.mapping)) == 6  # bijective edges
    X = actor_crossed_square(catalog.small_group(4, 2))
    assert X.corner_orders() == (4, 1, 1, 6)


def test_aut_tables_above_the_dense_cap_are_refused():
    # |Aut(C3^3)| = |GL(3, 3)| = 11,232: no dense table of it is built
    G = catalog.small_group(27, 5)
    for build in (actor_crossed_square, automorphism_xmod):
        with pytest.raises(TooLargeError, match=f"order 11232, above the dense cap {DENSE_CAP}"):
            build(G)


def test_trivial_action_squares():
    c1 = catalog.small_group(1, 1)
    c2 = catalog.small_group(2, 1)
    c3 = catalog.small_group(3, 1)
    k4 = catalog.small_group(4, 2)
    X = trivial_action_crossed_square(c2, c1, c1, c1,
                                      trivial_action(c1, c1), trivial_action(c1, c1))
    assert is_crossed_square(X).ok
    inv3 = GroupAction(c2, c3, ((0, 1, 2), (0, 2, 1)))
    X = trivial_action_crossed_square(k4, c3, c3, c2, inv3, inv3)
    assert is_crossed_square(X).ok
    s3 = catalog.small_group(6, 1)
    with pytest.raises(GroupError, match="abelian"):
        trivial_action_crossed_square(s3, c1, c1, c1,
                                      trivial_action(c1, c1), trivial_action(c1, c1))


@pytest.fixture(scope="module")
def xs1_squared(xs1):
    return direct_product_xsq(xs1, xs1)


def test_direct_product(xs1, xs1_squared):
    P = xs1_squared
    assert P.corner_orders() == (25, 100, 100, 400)
    # built unchecked from certified factors; the axiom checker is the oracle
    assert isinstance(P, ValidCrossedSquare)
    assert is_crossed_square(P).ok
    zero = ((0,) * xs1.down_left.order,) * xs1.up_right.order
    bad = CrossedSquare(**_fields(xs1, pairing=zero))
    with pytest.raises(GroupError, match="not a crossed square"):
        direct_product_xsq(xs1, bad)


def test_transpose_is_certified_without_a_recheck(xs1, xs1_squared):
    for X in (xs1, xs1_squared):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(xsq, "is_crossed_square", None)  # a re-check would fail
            T = transpose_xsq(X)
        assert isinstance(T, ValidCrossedSquare)
        assert is_crossed_square(T).ok  # the axiom checker is the oracle
    zero = ((0,) * xs1.down_left.order,) * xs1.up_right.order
    bad = CrossedSquare(**_fields(xs1, pairing=zero))
    with pytest.raises(GroupError, match="not a crossed square"):
        transpose_xsq(bad)


def test_transpose(xs1, d8):
    T = transpose_xsq(xs1)
    assert T.corner_orders() == (5, 10, 10, 20)
    TT = transpose_xsq(T)
    assert TT.pairing == xs1.pairing and TT.kappa.mapping == xs1.kappa.mapping
    # transposing an inclusion square equals swapping M and N
    a, b = d8.generators
    c = d8.comm(a, b)
    L = subgroup_generated(d8, [c])
    M = subgroup_generated(d8, [a, c])
    N = subgroup_generated(d8, [b, c])
    X = crossed_square_by_normal_subgroups(L, M, N, d8)
    Y = crossed_square_by_normal_subgroups(L, N, M, d8)
    T = transpose_xsq(X)
    assert T.pairing == Y.pairing
    assert T.kappa.mapping == Y.kappa.mapping and T.nu.mapping == Y.nu.mapping


def test_crossed_square_of_cat2_session(c2ab):
    X = crossed_square_of_cat2(c2ab)
    quad = [catalog.identify_group(g) for g in
            (X.up_left, X.up_right, X.down_left, X.down_right)]
    assert quad == [(2, 1), (2, 1), (4, 1), (1, 1)]


def test_crossed_square_of_cat2_identity():
    G = catalog.small_group(8, 3)
    ident = cat1_group(identity_hom(G), identity_hom(G))
    C = cat2_group(ident, ident)
    X = crossed_square_of_cat2(C)
    assert X.corner_orders() == (1, 1, 1, 8)


def test_crossed_square_of_ex_d8(d8):
    a, b = d8.generators
    ta = hom_by_images(d8, d8, [a, 0])
    tb = hom_by_images(d8, d8, [0, b])
    C = cat2_group(cat1_group(ta, ta), cat1_group(tb, tb))
    X = crossed_square_of_cat2(C)
    assert X.corner_orders() == (2, 2, 2, 1)
    # pairing sends (a, b) to the commutator c
    assert X.pairing[1][1] == 1


def test_conversion_sweep_small():
    for key in ((4, 2), (6, 1), (8, 2), (8, 3), (12, 3)):
        G = catalog.small_group(*key)
        for C in all_cat2_groups(G):
            assert is_crossed_square(crossed_square_of_cat2(C)).ok


CONVERT_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "convert.txt"


def test_convert_outputs_match_the_benchmark_golden():
    """parse -> convert -> emit on every cat2 structure of the groups of
    order <= 8, forward from its cat2 text and back from its crossed square
    text: each output's 16-hex sha256 is its line of the benchmark golden."""
    golden = {}
    for line in CONVERT_GOLDEN.read_text().splitlines():
        rid, _, value = line.rpartition(" ")
        if rid[:4] in ("fwd ", "rev ") and int(rid[4:].split("/")[0]) <= 8:
            golden[rid] = value
    got = {}
    for order, gid in catalog.catalog_keys():
        if order > 8:
            continue
        for pos, C in enumerate(all_cat2_groups(catalog.small_group(order, gid))):
            forward = emit_xsq(crossed_square_of_cat2(parse_cat2(emit_cat2(C, (order, gid)))))
            reverse = emit_cat2(cat2_of_crossed_square(parse_xsq(emit_xsq(
                crossed_square_of_cat2(C)))))
            for kind, out in (("fwd", forward), ("rev", reverse)):
                got[f"{kind} {order}/{gid}/{pos}"] = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert len(got) > 100 and got == golden


def test_cat2_of_crossed_square_order_10000(xs1):
    C = cat2_of_crossed_square(xs1)
    assert C.group.order == 10_000
    assert C.group.realization == "structural"
    assert C.size == (10_000, 200, 200, 20)


def test_cat2_of_trivial_square():
    c1 = catalog.small_group(1, 1)
    X = trivial_action_crossed_square(c1, c1, c1, c1,
                                      trivial_action(c1, c1), trivial_action(c1, c1))
    C = cat2_of_crossed_square(X)
    assert C.group.order == 1


def test_round_trip_preserves_corner_types(c2ab):
    X = crossed_square_of_cat2(c2ab)
    X2 = crossed_square_of_cat2(cat2_of_crossed_square(X))
    for g1, g2 in ((X.up_left, X2.up_left), (X.up_right, X2.up_right),
                   (X.down_left, X2.down_left), (X.down_right, X2.down_right)):
        assert catalog.identify_group(g1) == catalog.identify_group(g2)


def test_transpose_of_conversion_matches_swapped_cat2(c2ab):
    direct = transpose_xsq(crossed_square_of_cat2(c2ab))
    swapped = crossed_square_of_cat2(type(c2ab)(c2ab.c2, c2ab.c1))
    assert direct.pairing == swapped.pairing
    assert direct.kappa.mapping == swapped.kappa.mapping
    assert direct.mu.mapping == swapped.mu.mapping


def test_large_square_is_checked_on_every_tuple(c2_7_square):
    assert is_crossed_square(c2_7_square).ok
    assert isinstance(c2_7_square, ValidCrossedSquare)


def test_one_wrong_pairing_entry_in_a_large_square_is_found(c2_7_square, tmp_path, capsys):
    pairing = [list(row) for row in c2_7_square.pairing]
    pairing[24][14] = 1
    values = _fields(c2_7_square, pairing=pairing)
    with pytest.raises(GroupError, match="not a crossed square: axiom2:left"):
        crossed_square(**values)
    raw = CrossedSquare(**values)
    failures = {c.name: c.witness for c in is_crossed_square(raw).failures()}
    assert failures == {"axiom2:left": (1, 24, 14), "axiom2:right": (24, 1, 5)}
    f = tmp_path / "bad.xsq"
    f.write_text(emit_xsq(raw))
    assert cli.main(["check", str(f)]) == 1
    out = capsys.readouterr().out
    assert "axiom2:left: FAIL witness (1, 24, 14)" in out
    assert "axiom2:right: FAIL witness (24, 1, 5)" in out


def test_inclusion_square_property_sweep():
    """Axioms hold for every normal pair drawn from small catalog groups."""
    for order, gid in catalog.catalog_keys():
        if order > 12:
            continue
        P = catalog.small_group(order, gid)
        normals = normal_subgroups(P)
        for M in normals:
            for N in normals:
                L = intersection(M, N)
                X = crossed_square_by_normal_subgroups(L, M, N, P)
                assert is_crossed_square(X).ok


def test_raw_square_converts_like_its_certified_twin(d8):
    a, b = d8.generators
    c = d8.comm(a, b)
    X = crossed_square_by_normal_subgroups(subgroup_generated(d8, [c]),
                                           subgroup_generated(d8, [a, c]),
                                           subgroup_generated(d8, [b, c]), d8)
    assert isinstance(X, ValidCrossedSquare)
    raw = CrossedSquare(**_fields(X))
    C, R = cat2_of_crossed_square(X), cat2_of_crossed_square(raw)
    assert C.group.table == R.group.table
    assert C.key() == R.key()


def test_raw_square_is_checked_without_a_copy(d8, monkeypatch):
    # the reverse functor checks a raw square as it is given: no second
    # square object is constructed before the check
    whole = Subgroup(d8, tuple(d8.elements()))
    raw = CrossedSquare(**_fields(crossed_square_by_normal_subgroups(whole, whole, whole, d8)))
    built, post_init = [], CrossedSquare.__post_init__
    monkeypatch.setattr(CrossedSquare, "__post_init__",
                        lambda self: built.append(type(self)) or post_init(self))
    checked = []
    monkeypatch.setattr(xsq, "is_crossed_square",
                        lambda Y: checked.append(Y) or is_crossed_square(Y))
    cat2_of_crossed_square(raw)
    assert built == [] and checked == [raw] and checked[0] is raw


def test_crossed_square_of_pre_cat2_checks_the_kernel_axiom():
    q8 = catalog.small_group(8, 4)
    pre = pre_cat1_by_endomorphisms(trivial_hom(q8, q8), trivial_hom(q8, q8))
    with pytest.raises(GroupError, match=r"\[ker t, ker h\] = 1"):
        crossed_square_of_cat2(pre_cat2_group(pre, pre))


@pytest.fixture(scope="module")
def forward_squares():
    """(order, cat2, its crossed square) for every cat2 structure on the
    catalog groups of order <= 16 except 16/14."""
    out = []
    for order, gid in catalog.catalog_keys():
        if order > 16 or (order, gid) == (16, 14):
            continue
        for C in all_cat2_groups(catalog.small_group(order, gid)):
            out.append((order, C, crossed_square_of_cat2(C)))
    return out


def test_forward_functor_maps_and_actions_pass_the_checking_constructors(forward_squares):
    """The functor builds its output with the plain constructors;
    :func:`is_homomorphism` and :func:`is_action` are the oracle for the
    boundary maps and actions (the five axioms are the acceptance sweep's)."""
    assert len(forward_squares) == 6198
    for _, _, X in forward_squares:
        assert isinstance(X, ValidCrossedSquare)
        for f in (X.kappa, X.lambda_, X.mu, X.nu):
            assert is_homomorphism(f).ok
        for act in (X.act_l, X.act_m, X.act_n):
            assert is_action(act).ok


def _check_cat2(C):
    assert is_cat2_group(C).ok
    for c in (C.c1, C.c2):
        for f in (c.tail, c.head):
            assert is_homomorphism(f).ok
    G = C.group
    if G.realization == "dense":
        verify_group_axioms(G)
    else:
        assert is_action(G.action).ok


def test_reverse_functor_output_passes_the_checks(forward_squares, xs1):
    squares = [X for order, _, X in forward_squares if order <= 12]
    assert len(squares) == 2175
    c1 = catalog.small_group(1, 1)
    squares.append(trivial_action_crossed_square(c1, c1, c1, c1,
                                                 trivial_action(c1, c1),
                                                 trivial_action(c1, c1)))
    for X in squares:
        _check_cat2(cat2_of_crossed_square(X))
    big = cat2_of_crossed_square(xs1)
    assert big.group.realization == "structural"
    _check_cat2(big)
