"""Constructions and oracles that only the tests use.

The package keeps what its commands and its benchmark reach.  The functions
here build test inputs (crossed modules, the actor and trivial-action
crossed squares, direct products and transposes, the embedding form of a
cat1-group) or check the package by a second route (the certifying
factories of cat1-groups and crossed modules, the list of all
homomorphisms, the Aut(G) table, cat2 morphisms and isomorphisms), or
read what only assertions read (the key of a structure, the failing lines
of a report, the corner orders of a square, the bijective and idempotent
tests of a map).  They are the package's former code, moved unchanged,
except that methods became functions and that they call the package's
private helpers through their module, as
``groups._endomorphism_maps``, so that a test which patches a module
attribute reaches these functions too.  pytest does not collect this
module, since its name does not start with ``test_``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from catsq import cat1, cat2, groups, xmod, xsq
from catsq.groups import (
    DENSE_CAP,
    DenseGroup,
    GroupAction,
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    TooLargeError,
    automorphism_generators,
    compose,
    conjugation_action,
    inclusion_hom,
    kernel_of,
    require_dense,
    restrict_hom,
    semidirect_product,
    sub_conjugation_action,
    subgroup_generated,
)
from catsq.xmod import AxiomCheck, ValidityReport
from catsq.cat1 import Cat1Group, PreCat1Group
from catsq.cat2 import PreCat2Group
from catsq.xsq import CrossedSquare, ValidCrossedSquare, crossed_square


# -- groups -------------------------------------------------------------------


def commutator_subgroup(G: GroupTable, A: Subgroup, B: Subgroup) -> Subgroup:
    comms = {G.comm(a, b) for a in A.members for b in B.members}
    return subgroup_generated(G, comms)


def trivial_hom(G: GroupTable, H: GroupTable) -> Homomorphism:
    return Homomorphism(G, H, (0,) * G.order)


def is_bijective(f: Homomorphism) -> bool:
    return len(set(f.mapping)) == f.source.order == f.target.order


def is_idempotent(f: Homomorphism) -> bool:
    if f.source is not f.target:
        return False
    m = f.mapping
    return all(m[v] == v for v in m)


def all_homomorphisms(G: GroupTable, H: GroupTable) -> list[Homomorphism]:
    """Complete duplicate-free list, lexicographic on the mapping arrays."""
    require_dense(G), require_dense(H)
    maps = sorted(tuple(row) for M in groups._hom_blocks(G, H, groups._hom_candidates(G, H))
                  for row in M.tolist())
    return [Homomorphism(G, H, m) for m in maps]


@groups._memo
def automorphism_group_as_table(G: GroupTable) -> tuple[DenseGroup, tuple[tuple[int, ...], ...]]:
    """Aut(G) as a dense group under composition, plus its element maps.

    Element k of the returned group is the k-th automorphism in canonical
    (lexicographic) order; the identity map sorts first, so index 0 is the
    group identity.  Raises :class:`TooLargeError` above :data:`DENSE_CAP`
    automorphisms, before any table is built.  Only the products a o g by
    the :func:`automorphism_generators` g are found, for all a at once, by
    :func:`_code_positions` on whole rows; :func:`_table_from_right` fills
    the rest of the table from them.
    """
    require_dense(G)
    A = groups._endomorphism_maps(G)[1]
    if len(A) > DENSE_CAP:
        raise TooLargeError(f"Aut({G.label}) has order {len(A)}, above the dense cap {DENSE_CAP}")
    gens = automorphism_generators(G)
    right = np.empty((len(A), len(gens)), dtype=np.intp)
    for e, g in enumerate(gens):
        right[:, e] = groups._code_positions(A, A[:, g], "composing automorphisms left Aut(G)")
    label = f"Aut({G.label})"
    return (DenseGroup(groups._table_from_right(right.tolist(), label), label, check=False),
            tuple(map(tuple, A.tolist())))


def inner_automorphism_indices(G: GroupTable) -> tuple[int, ...]:
    """Positions of the conjugation maps inside :func:`automorphism_group`."""
    require_dense(G)
    return tuple(sorted(set(_inner_automorphisms(G))))


@groups._memo
def _inner_automorphisms(G: GroupTable) -> tuple[int, ...]:
    """Entry g: the row of conjugation by g in the automorphism array."""
    where = {m: i for i, m in enumerate(map(tuple, groups._endomorphism_maps(G)[1].tolist()))}
    return tuple(where[tuple(G.conj(g, x) for x in G.elements())] for g in G.elements())


def trivial_action(actor: GroupTable, space: GroupTable) -> GroupAction:
    ident = tuple(space.elements())
    return GroupAction(actor, space, (ident,) * actor.order)


def direct_product(A: GroupTable, B: GroupTable,
                   label: Optional[str] = None) -> GroupTable:
    """A x B on the pair indices a * |B| + b: :func:`semidirect_product`
    with the trivial action, realized the same way."""
    return semidirect_product(A, B, trivial_action(B, A), label or f"({A.label} x {B.label})")


def product_hom(f1: Homomorphism, f2: Homomorphism, source: GroupTable,
                target: GroupTable) -> Homomorphism:
    """f1 x f2 : (x1, x2) -> (f1(x1), f2(x2)) from ``source``, the
    :func:`direct_product` of the factor sources, to ``target``, that of the
    factor targets.  A product of homomorphisms is one."""
    n2 = f2.target.order
    if (source.order, target.order) != (f1.source.order * f2.source.order, f1.target.order * n2):
        raise GroupError("source and target must be the products of the factors' groups")
    return Homomorphism(source, target, tuple(a * n2 + b for a in f1.mapping for b in f2.mapping))


def product_action(a1: GroupAction, a2: GroupAction, actor: GroupTable,
                   space: GroupTable) -> GroupAction:
    """(p1, p2) |> (x1, x2) = (p1 |> x1, p2 |> x2) of ``actor`` on ``space``,
    the :func:`direct_product` of the factor actors and of the factor spaces.
    A product of actions is one."""
    n2 = a2.space.order
    if ((actor.order, space.order)
            != (a1.actor.order * a2.actor.order, a1.space.order * n2)):
        raise GroupError("actor and space must be the products of the factors' groups")
    return GroupAction(actor, space, tuple(
        tuple(x * n2 + y for x in q1 for y in q2) for q1 in a1.perms for q2 in a2.perms))


# -- reports and crossed modules -----------------------------------------------


def failures(report: ValidityReport) -> tuple[AxiomCheck, ...]:
    return tuple(c for c in report.checks if not c.ok)


@dataclass(frozen=True)
class CrossedModule:
    """Boundary ``S -> R`` with an action of R on S; :func:`is_crossed_module`
    reports the axioms."""

    source: GroupTable
    range_: GroupTable
    boundary: Homomorphism
    action: GroupAction

    def __post_init__(self) -> None:
        if self.boundary.source is not self.source or self.boundary.target is not self.range_:
            raise GroupError("boundary must map the source to the range")
        if self.action.actor is not self.range_ or self.action.space is not self.source:
            raise GroupError("the action must be of the range on the source")

    def __repr__(self) -> str:  # pragma: no cover
        return f"[{self.source.label}->{self.range_.label}]"


def is_crossed_module(X: CrossedModule) -> ValidityReport:
    """Per-axiom report: the boundary and action lines, then equivariance and
    the Peiffer identity, exhaustively."""
    lines = xmod._map_lines([("boundary", X.boundary)], [("action", X.action)])
    return ValidityReport(lines + xmod._xmod_axioms(X.source, X.range_, X.boundary.mapping,
                                                    X.action.perms))


def crossed_module(source: GroupTable, range_: GroupTable, boundary: Homomorphism,
                   action: GroupAction) -> CrossedModule:
    X = CrossedModule(source, range_, boundary, action)
    xmod._require(is_crossed_module(X).checks, "not a crossed module")
    return X


def conjugation_xmod(N: Subgroup, R: GroupTable) -> CrossedModule:
    """Inclusion of a normal subgroup with the conjugation action."""
    if N.parent is not R:
        raise GroupError("the subgroup must live inside the given range group")
    act = conjugation_action(R, N)  # raises naming a witness if not normal
    return crossed_module(act.space, R, inclusion_hom(N), act)


def automorphism_xmod(S: GroupTable) -> CrossedModule:
    """S -> Aut(S) sending s to conjugation by s, acting by application."""
    A, maps = automorphism_group_as_table(S)
    boundary = Homomorphism(S, A, _inner_automorphisms(S))
    return crossed_module(S, A, boundary, GroupAction(A, S, maps))


# -- cat1-groups --------------------------------------------------------------


def pre_cat1_by_endomorphisms(t: Homomorphism, h: Homomorphism) -> PreCat1Group:
    """Validated pre-cat1-group from two endomorphisms of one group."""
    C = PreCat1Group(t, h)
    xmod._require(cat1._pre_cat1_checks(t.mapping, h.mapping), "pre-cat1 axiom violated")
    return C


def cat1_group(t: Homomorphism, h: Homomorphism) -> Cat1Group:
    """Certified cat1-group; raises :class:`GroupError` naming the first
    failing line of :func:`is_cat1_group` and its witness.  The report is
    the memoized one, so certifying the same maps again checks nothing."""
    C = Cat1Group(t, h)
    xmod._require(cat1._cat1_report(C.group, t, h).checks, "not a cat1-group")
    return C


@dataclass(frozen=True)
class Cat1GeneralForm:
    """(e; t, h : G -> R) with R standalone and e an embedding into G."""

    embedding: Homomorphism
    tail: Homomorphism
    head: Homomorphism


def from_general_form(e: Homomorphism, t: Homomorphism, h: Homomorphism) -> Cat1Group:
    """Convert the embedding form into an endomorphism-form cat1-group.

    The embedding e must pass its line "e is a homomorphism".  As e is
    injective, :func:`cat1_group` on (e o t, e o h) then checks t and h and
    the general axioms t o e o h = h and h o e o t = t, with their witnesses.
    """
    R, G = e.source, e.target
    if t.source is not G or h.source is not G or t.target is not R or h.target is not R:
        raise GroupError("tail and head must map G onto the embedded range")
    if len(set(e.mapping)) != R.order:
        raise GroupError("the range embedding must be injective")
    xmod._require(xmod._map_lines([("e", e)]), "not a cat1-group")
    if len(set(t.mapping)) != R.order or len(set(h.mapping)) != R.order:
        raise GroupError("tail and head must be surjections onto the range")
    return cat1_group(compose(e, t), compose(e, h))


def general_form(C: Cat1Group) -> Cat1GeneralForm:
    """The embedding-form view of a cat1-group (range as a standalone group)."""
    R, pos = groups._subgroup_group(C.group, C.range_.members)
    e = inclusion_hom(C.range_)
    t = Homomorphism(C.group, R, tuple(pos[v] for v in C.tail.mapping))
    h = Homomorphism(C.group, R, tuple(pos[v] for v in C.head.mapping))
    return Cat1GeneralForm(e, t, h)


def xmod_of_cat1(C: PreCat1Group) -> CrossedModule:
    """S = ker t, R = im t, boundary h|S, action by conjugation in G."""
    G = C.group
    ker = kernel_of(C.tail)
    rng = C.range_
    boundary = restrict_hom(C.head, ker, rng)
    action = sub_conjugation_action(G, rng, ker)
    return crossed_module(action.space, action.actor, boundary, action)


def cat1_of_xmod(X: CrossedModule) -> Cat1Group:
    """G = S x| R with t(s,r) = (1,r) and h(s,r) = (1, (ds) r)."""
    S, R = X.source, X.range_
    G = semidirect_product(S, R, X.action, label=f"{S.label} x| {R.label}")
    rn = R.order
    bm = X.boundary.mapping
    tmap = tuple(x % rn for x in G.elements())
    hmap = tuple(R.mul(bm[x // rn], x % rn) for x in G.elements())
    return cat1_group(Homomorphism(G, G, tmap), Homomorphism(G, G, hmap))


def _intertwines(f: Sequence[int], a: Sequence[int], b: Sequence[int]) -> bool:
    # f o a = b o f on the source elements
    return all(f[a[x]] == b[f[x]] for x in range(len(f)))


# -- cat2-groups --------------------------------------------------------------


def key_of(C: PreCat1Group | PreCat2Group) -> tuple:
    """The tail and head maps of a pre-cat1-group, or of both structures of
    a pre-cat2-group, as one hashable tuple."""
    if isinstance(C, PreCat2Group):
        return (key_of(C.c1), key_of(C.c2))
    return (C.tail.mapping, C.head.mapping)


def pre_cat2_group(c1: PreCat1Group, c2: PreCat1Group) -> PreCat2Group:
    C = PreCat2Group(c1, c2)
    xmod._require((cat2._commutation_check(c1, c2),), "commutation identity violated")
    return C


@dataclass(frozen=True)
class Cat2Morphism:
    source: PreCat2Group
    target: PreCat2Group
    gamma: Homomorphism
    rho1: Homomorphism
    rho2: Homomorphism
    swapped: bool = False  # gamma matches the target with orientation swapped


def _cat2_intertwines(gm, A: PreCat2Group, c1: PreCat1Group, c2: PreCat1Group) -> bool:
    return (_intertwines(gm, A.c1.tail.mapping, c1.tail.mapping)
            and _intertwines(gm, A.c1.head.mapping, c1.head.mapping)
            and _intertwines(gm, A.c2.tail.mapping, c2.tail.mapping)
            and _intertwines(gm, A.c2.head.mapping, c2.head.mapping))


def cat2_morphism(A: PreCat2Group, B: PreCat2Group, gamma: Homomorphism,
                  swapped: bool = False) -> Cat2Morphism:
    """Certified morphism: gamma must pass "gamma is a homomorphism" and
    intertwine the four structure maps; rho1 and rho2 are its restrictions."""
    xmod._require(xmod._map_lines([("gamma", gamma)]), "not a cat2 morphism")
    tgt = (B.c2, B.c1) if swapped else (B.c1, B.c2)
    if not _cat2_intertwines(gamma.mapping, A, *tgt):
        raise GroupError("gamma does not intertwine the four structure maps")
    rho1 = restrict_hom(gamma, A.r1, tgt[0].range_)
    rho2 = restrict_hom(gamma, A.r2, tgt[1].range_)
    return Cat2Morphism(A, B, gamma, rho1, rho2, swapped)


def all_cat2_group_morphisms(A: PreCat2Group, B: PreCat2Group) -> list[Cat2Morphism]:
    """All morphisms with the stored orientations matched componentwise."""
    out = []
    for f in all_homomorphisms(A.group, B.group):
        if _cat2_intertwines(f.mapping, A, B.c1, B.c2):
            out.append(cat2_morphism(A, B, f))
    return out


def isomorphism_cat2_groups(A: PreCat2Group, B: PreCat2Group) -> Optional[Cat2Morphism]:
    """A bijective morphism matching either orientation of B, or None."""
    for mapping in groups._iter_isomorphism_maps(A.group, B.group):
        for swapped in (False, True):
            tgt = (B.c2, B.c1) if swapped else (B.c1, B.c2)
            if _cat2_intertwines(mapping, A, *tgt):
                gamma = Homomorphism(A.group, B.group, mapping)
                return cat2_morphism(A, B, gamma, swapped)
    return None


# -- crossed squares ----------------------------------------------------------


def corner_orders(X: CrossedSquare) -> tuple[int, int, int, int]:
    return (X.up_left.order, X.up_right.order, X.down_left.order, X.down_right.order)


def actor_crossed_square(M: GroupTable) -> CrossedSquare:
    """The square M -> Inn M (twice) -> Aut M with commutator pairing."""
    A, maps = automorphism_group_as_table(M)
    inner = Subgroup(A, inner_automorphism_indices(M))
    Ig, ipos = groups._subgroup_group(A, inner.members)
    alpha = Homomorphism(M, Ig, tuple(ipos[a] for a in _inner_automorphisms(M)))
    iota = inclusion_hom(inner)
    act_l = GroupAction(A, M, maps)
    act_inn = conjugation_action(A, inner)
    # the commutator pairing must not depend on the chosen preimages
    pre: dict[int, list[int]] = {}
    for m in M.elements():
        pre.setdefault(alpha.mapping[m], []).append(m)
    pairing_rows = []
    for i in range(Ig.order):
        row = []
        for j in range(Ig.order):
            vals = {M.comm(m, m2) for m in pre[i] for m2 in pre[j]}
            if len(vals) != 1:
                raise GroupError(
                    f"commutator pairing ill-defined on inner classes ({i}, {j})")
            row.append(vals.pop())
        pairing_rows.append(tuple(row))
    return crossed_square(M, Ig, Ig, A, alpha, alpha, iota, iota,
                          act_l, act_inn, act_inn, tuple(pairing_rows))


def trivial_action_crossed_square(A: GroupTable, M: GroupTable, N: GroupTable,
                                  P: GroupTable, act_m: GroupAction,
                                  act_n: GroupAction) -> CrossedSquare:
    """Zero boundaries over P-modules, with P acting trivially on A."""
    for g, what in ((A, "up-left"), (M, "up-right"), (N, "down-left")):
        if not g.is_abelian():
            raise GroupError(f"the {what} corner must be abelian")
    pairing = ((0,) * N.order,) * M.order
    return crossed_square(
        A, M, N, P,
        trivial_hom(A, M), trivial_hom(A, N), trivial_hom(M, P), trivial_hom(N, P),
        trivial_action(P, A), act_m, act_n, pairing,
    )


def direct_product_xsq(X1: CrossedSquare, X2: CrossedSquare) -> ValidCrossedSquare:
    """Componentwise product of two crossed squares.

    A factor that is not a :class:`ValidCrossedSquare` is checked first by
    :func:`_certify`.  A product of crossed squares is one, so the
    product is certified without running the checker.
    """
    xsq._certify(X1)
    xsq._certify(X2)
    L = direct_product(X1.up_left, X2.up_left)
    M = direct_product(X1.up_right, X2.up_right)
    N = direct_product(X1.down_left, X2.down_left)
    P = direct_product(X1.down_right, X2.down_right)
    l2 = X2.up_left.order
    # the pairing of (m1, m2) and (n1, n2) is (m1 |x| n1, m2 |x| n2)
    pairing = tuple(tuple(a * l2 + b for a in row1 for b in row2)
                    for row1 in X1.pairing for row2 in X2.pairing)
    return ValidCrossedSquare(
        L, M, N, P,
        product_hom(X1.kappa, X2.kappa, L, M), product_hom(X1.lambda_, X2.lambda_, L, N),
        product_hom(X1.mu, X2.mu, M, P), product_hom(X1.nu, X2.nu, N, P),
        product_action(X1.act_l, X2.act_l, P, L), product_action(X1.act_m, X2.act_m, P, M),
        product_action(X1.act_n, X2.act_n, P, N), pairing)


def transpose_xsq(X: CrossedSquare) -> ValidCrossedSquare:
    """Swap M and N; the new pairing is (n, m) -> (m |x| n)^-1.

    An input that is not a :class:`ValidCrossedSquare` is checked first by
    :func:`_certify`.  The transpose of a crossed square is one, so
    the result is certified without running the checker.
    """
    xsq._certify(X)
    L = X.up_left
    pairing = tuple(
        tuple(L.inv(X.pairing[m][n]) for m in range(X.up_right.order))
        for n in range(X.down_left.order)
    )
    return ValidCrossedSquare(L, X.down_left, X.up_right, X.down_right,
                              X.lambda_, X.kappa, X.nu, X.mu,
                              X.act_l, X.act_n, X.act_m, pairing)
