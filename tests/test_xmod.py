import pytest

from catsq import catalog
from catsq.cat1 import PreCat1Group, all_cat1_groups
from catsq.cat2 import all_cat2_groups, cat2_group
from catsq.serialize import parse_cat1
from catsq.xsq import crossed_square
from catsq.groups import (
    DENSE_CAP,
    GroupAction,
    GroupError,
    Homomorphism,
    Subgroup,
    automorphism_group,
    identity_hom,
    subgroup_generated,
)
from catsq.xmod import is_action, is_homomorphism
from constructions import (
    CrossedModule,
    automorphism_group_as_table,
    automorphism_xmod,
    cat1_group,
    cat2_morphism,
    conjugation_xmod,
    crossed_module,
    failures,
    from_general_form,
    general_form,
    is_crossed_module,
    trivial_action,
    trivial_action_crossed_square,
    trivial_hom,
)
from test_groups import hom_by_images


def center_subgroup(G):
    return subgroup_generated(G, [x for x in G.center() if x != 0])


def test_conjugation_xmod(d8, d20):
    X = conjugation_xmod(Subgroup(d8, (0,)), d8)
    assert X.source.order == 1 and is_crossed_module(X).ok
    X = conjugation_xmod(center_subgroup(d8), d8)
    assert (X.source.order, X.range_.order) == (2, 8)
    assert is_crossed_module(X).ok
    p1 = d20.generators[0]
    c5d = subgroup_generated(d20, [d20.mul(p1, p1)])
    X = conjugation_xmod(c5d, d20)
    assert (X.source.order, X.range_.order) == (5, 20)


def test_conjugation_xmod_requires_normal(d8):
    refl = subgroup_generated(d8, [d8.generators[0]])
    with pytest.raises(GroupError, match="not normal"):
        conjugation_xmod(refl, d8)


def test_automorphism_xmod():
    X = automorphism_xmod(catalog.small_group(2, 1))
    assert X.range_.order == 1  # Aut(C2) is trivial, boundary is zero
    X = automorphism_xmod(catalog.small_group(4, 1))
    assert X.range_.order == 2
    assert set(X.boundary.mapping) == {0}  # inner automorphisms trivial
    X = automorphism_xmod(catalog.small_group(6, 1))
    assert X.range_.order == 6
    assert len(set(X.boundary.mapping)) == 6  # Inn(S3) = Aut(S3)


def test_automorphism_xmod_boundary_is_conjugation():
    """On every catalog group with |Aut(G)| <= DENSE_CAP, the boundary sends
    s to the position of conjugation by s among the automorphism maps,
    found here by looking the conjugation map up."""
    checked = 0
    for key in catalog.catalog_keys():
        G = catalog.small_group(*key)
        if len(automorphism_group(G)) > DENSE_CAP:
            continue
        maps = automorphism_group_as_table(G)[1]
        pos = {m: i for i, m in enumerate(maps)}
        oracle = tuple(pos[tuple(G.conj(s, x) for x in G.elements())] for s in G.elements())
        assert automorphism_xmod(G).boundary.mapping == oracle, key
        checked += 1
    assert checked == 90


def test_peiffer_failure_has_witness():
    s3 = catalog.small_group(6, 1)
    triv = catalog.small_group(1, 1)
    bad = CrossedModule(s3, triv, trivial_hom(s3, triv), trivial_action(triv, s3))
    rep = is_crossed_module(bad)
    assert not rep.ok
    fail = failures(rep)[0]
    assert fail.name == "peiffer"
    s1, s2 = fail.witness
    assert s3.conj(s2, s1) != s1
    with pytest.raises(GroupError, match="peiffer"):
        crossed_module(s3, triv, trivial_hom(s3, triv), trivial_action(triv, s3))


def test_abelian_central_image_data_is_accepted(d8):
    # zero-ish boundary with central image and trivial action passes as data
    c2 = catalog.small_group(2, 1)
    z = [x for x in d8.center() if x != 0][0]
    boundary = hom_by_images(c2, d8, [z])
    X = CrossedModule(c2, d8, boundary, trivial_action(d8, c2))
    assert is_crossed_module(X).ok


def test_certifying_factories_name_the_failing_map_line():
    """Every factory that takes maps or actions from callers or files
    requires their lines, and raises naming the first failing line with the
    witness of :func:`is_homomorphism` or :func:`is_action`."""
    s3, c1, c2, c5 = (catalog.small_group(*k) for k in ((6, 1), (1, 1), (2, 1), (5, 1)))
    bad = Homomorphism(s3, s3, (0, 1, 1, 0, 0, 0))  # t(2 * 3) = 0, t(2) t(3) = 1
    ident = identity_hom(s3)
    w = is_homomorphism(bad).witness
    assert w == (2, 3)
    # C2 on C5 with the generator swapping 1 and 2: no automorphism of C5
    bad_act = GroupAction(c2, c5, ((0, 1, 2, 3, 4), (0, 2, 1, 3, 4)))
    assert is_action(bad_act).witness == (1, 1, 1)
    assert is_action(trivial_action(c2, c5)).ok and is_homomorphism(ident).ok

    gf = general_form(next(C for C in all_cat1_groups(s3) if C.range_.order == 2))
    c3 = s3.element_orders().index(3)
    bad_e = Homomorphism(gf.embedding.source, s3, (0, c3))  # e(1)^2 != e(1 * 1) = 0
    Y = conjugation_xmod(subgroup_generated(s3, [c3]), s3)
    bad_sigma = Homomorphism(Y.source, Y.source, (0, 1, 1))
    square = trivial_action_crossed_square(c5, c1, c1, c2, trivial_action(c2, c1),
                                           trivial_action(c2, c1))
    A = all_cat2_groups(s3)[0]
    # the parser checks shapes only; the factory certifies what it read
    parsed = parse_cat1("catsq 1 cat1\ngroup key 6 1\nt 0 1 1 0 0 0\nh 0 1 2 3 4 5\nend\n")
    cases = [
        (lambda: cat1_group(bad, ident),
         f"not a cat1-group: t is a homomorphism fails with witness {w}"),
        (lambda: cat1_group(parsed.tail, parsed.head),
         f"not a cat1-group: t is a homomorphism fails with witness {w}"),
        (lambda: cat1_group(ident, bad),
         f"not a cat1-group: h is a homomorphism fails with witness {w}"),
        (lambda: from_general_form(bad_e, gf.tail, gf.head),
         "not a cat1-group: e is a homomorphism fails with witness "
         f"{is_homomorphism(bad_e).witness}"),
        (lambda: cat2_group(PreCat1Group(bad, ident), A.c1),
         f"structure 1: t is a homomorphism fails with witness {w}"),
        (lambda: cat2_morphism(A, A, bad),
         f"not a cat2 morphism: gamma is a homomorphism fails with witness {w}"),
        (lambda: crossed_module(c5, c2, trivial_hom(c5, c2), bad_act),
         "not a crossed module: action is an action fails with witness (1, 1, 1)"),
        (lambda: crossed_module(Y.source, Y.source, bad_sigma, trivial_action(Y.source, Y.source)),
         "not a crossed module: boundary is a homomorphism fails with witness "
         f"{is_homomorphism(bad_sigma).witness}"),
        (lambda: crossed_square(square.up_left, square.up_right, square.down_left,
                                square.down_right, square.kappa, square.lambda_, square.mu,
                                square.nu, bad_act, square.act_m, square.act_n, square.pairing),
         "not a crossed square: actl is an action fails with witness (1, 1, 1)"),
    ]
    for build, message in cases:
        with pytest.raises(GroupError) as exc:
            build()
        assert message in str(exc.value)


def test_constructors_reject_values_outside_the_groups():
    """A report can only index maps and actions whose values are elements,
    so the constructors reject any other value and name it; is_homomorphism
    and is_action never see one."""
    c2, c3 = catalog.small_group(2, 1), catalog.small_group(3, 1)
    with pytest.raises(GroupError, match=r"image 5 lies outside 0\.\.1"):
        is_homomorphism(Homomorphism(c2, c2, (0, 5)))
    with pytest.raises(GroupError, match=r"image -1 lies outside 0\.\.2"):
        Homomorphism(c3, c3, (0, -1, 1))
    with pytest.raises(GroupError, match="permutations of the space: row 1 has 7"):
        is_action(GroupAction(c2, c3, ((0, 1, 2), (0, 1, 7))))
    with pytest.raises(GroupError, match="permutations of the space: row 1 misses 2"):
        GroupAction(c2, c3, ((0, 1, 2), (0, 1, 1)))
    with pytest.raises(GroupError, match="permutations of the space: row 1 has length 2, not 3"):
        GroupAction(c2, c3, ((0, 1, 2), (0, 1)))
    assert is_homomorphism(Homomorphism(c2, c3, (0, 0))).ok
    assert is_action(GroupAction(c2, c3, ((0, 1, 2), (0, 2, 1)))).ok
