"""Crossed squares: the five axioms, standard constructions, transposition,
and the equivalence with cat2-groups in both directions.

A square holds four groups L (up-left), M (up-right), N (down-left),
P (down-right), boundaries kappa: L->M, lambda: L->N, mu: M->P, nu: N->P,
actions of P on L, M, N, and a crossed pairing M x N -> L stored as a dense
table.  M acts on N and L through mu, N acts on M and L through nu; no
independent action is stored.  The axiom checker tests every tuple of the
tuple sets of up to three corners: |M|^2|N| + |M||N|^2 + |P||M||N| tuple
tests for axioms 2 and 5, and fewer for axioms 3 and 4.

Values and dataclasses check shapes; reports and certifying factories check
axioms.  :class:`CrossedSquare` checks that its maps, actions and pairing
fit its corners.  :func:`is_crossed_square` reports the seven map and action
lines (kappa, lambda, mu, nu, actl, actm, actn), then the axioms.  Data is
validated where it enters: :func:`crossed_square` (and every construction
built on it) requires every line and returns a :class:`ValidCrossedSquare`.
The two equivalence functors rely on the theorem XSq ~ Cat2 instead of
checking their output: :func:`crossed_square_of_cat2` certifies an input
that is not a :class:`Cat2Group` by :func:`cat2_group` and returns a
certified square, and
:func:`cat2_of_crossed_square` checks an input that is not certified and
then builds the cat2-group directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    GroupAction,
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    _inner_automorphisms,
    _subgroup_group,
    action_by_hom,
    automorphism_group_as_table,
    compose,
    conjugation_action,
    direct_product,
    identity_hom,
    inclusion_hom,
    inner_automorphism_indices,
    intersection,
    kernel_of,
    product_action,
    product_hom,
    restrict_hom,
    semidirect_product,
    sub_conjugation_action,
    trivial_action,
    trivial_hom,
)
from .xmod import CrossedModule, ValidityReport, _line, _map_lines, _require, _xmod_axioms
from .cat1 import Cat1Group
from .cat2 import Cat2Group, PreCat2Group, cat2_group


@dataclass(frozen=True)
class CrossedSquare:
    """Crossed square data; validate with :func:`is_crossed_square`."""

    up_left: GroupTable     # L
    up_right: GroupTable    # M
    down_left: GroupTable   # N
    down_right: GroupTable  # P
    kappa: Homomorphism     # L -> M
    lambda_: Homomorphism   # L -> N
    mu: Homomorphism        # M -> P
    nu: Homomorphism        # N -> P
    act_l: GroupAction
    act_m: GroupAction
    act_n: GroupAction
    pairing: tuple[tuple[int, ...], ...]  # |M| x |N| table of L indices

    def __post_init__(self) -> None:
        L, M, N, P = self.up_left, self.up_right, self.down_left, self.down_right
        pairs = (
            (self.kappa, L, M), (self.lambda_, L, N), (self.mu, M, P), (self.nu, N, P),
        )
        for f, src, tgt in pairs:
            if f.source is not src or f.target is not tgt:
                raise GroupError("a boundary map does not match its corners")
        for act, space in ((self.act_l, L), (self.act_m, M), (self.act_n, N)):
            if act.actor is not P or act.space is not space:
                raise GroupError("each action must be of P on the matching corner")
        object.__setattr__(self, "pairing", tuple(tuple(r) for r in self.pairing))
        if len(self.pairing) != M.order or any(len(r) != N.order for r in self.pairing):
            raise GroupError("the pairing table must be |M| x |N|")

    def pair(self, m: int, n: int) -> int:
        return self.pairing[m][n]

    @property
    def diagonal(self) -> Homomorphism:
        return compose(self.mu, self.kappa)

    def corner_orders(self) -> tuple[int, int, int, int]:
        return (self.up_left.order, self.up_right.order,
                self.down_left.order, self.down_right.order)

    def __repr__(self) -> str:  # pragma: no cover
        return ("[{} -> {}; {} -> {}]".format(
            self.up_left.label, self.up_right.label,
            self.down_left.label, self.down_right.label))


class ValidCrossedSquare(CrossedSquare):
    """A crossed square whose axioms were all checked, the image of a
    cat2-group, or the product or transpose of such squares; build it
    through :func:`crossed_square`, :func:`crossed_square_of_cat2`,
    :func:`direct_product_xsq` or :func:`transpose_xsq`, never directly."""


# -- axiom checking ------------------------------------------------------------


def is_crossed_square(X: CrossedSquare) -> ValidityReport:
    """Per-axiom report, after one line per map and action; an axiom's
    witness is the first failing tuple in product order.  The five
    ``axiom1:*`` edge lines check equivariance and Peiffer only, since their
    maps and actions are the seven checked first or built from them."""
    L, M, N, P = X.up_left, X.up_right, X.down_left, X.down_right
    kap, lam, mu, nu = (X.kappa.mapping, X.lambda_.mapping,
                        X.mu.mapping, X.nu.mapping)
    al, am, an = X.act_l.perms, X.act_m.perms, X.act_n.perms
    pairing = X.pairing
    Ls, Ms, Ns, Ps = L.elements(), M.elements(), N.elements(), P.elements()
    checks = list(_map_lines(
        [("kappa", X.kappa), ("lambda", X.lambda_), ("mu", X.mu), ("nu", X.nu)],
        [("actl", X.act_l), ("actm", X.act_m), ("actn", X.act_n)]))
    checks.append(_line("square-commutes", ((l,) for l in Ls if mu[kap[l]] != nu[lam[l]])))

    edges = (
        ("axiom1:kappa", CrossedModule(L, M, X.kappa, action_by_hom(X.mu, X.act_l))),
        ("axiom1:lambda", CrossedModule(L, N, X.lambda_, action_by_hom(X.nu, X.act_l))),
        ("axiom1:mu", CrossedModule(M, P, X.mu, X.act_m)),
        ("axiom1:nu", CrossedModule(N, P, X.nu, X.act_n)),
        ("axiom1:pi", CrossedModule(L, P, X.diagonal, X.act_l)),
    )
    checks += [_line(name, ((c.name,) + c.witness for c in _xmod_axioms(xm) if not c.ok))
               for name, xm in edges]
    checks += [
        _line("axiom1:kappa-equivariant", ((p, l) for p in Ps for l in Ls
                                           if kap[al[p][l]] != am[p][kap[l]])),
        _line("axiom1:lambda-equivariant", ((p, l) for p in Ps for l in Ls
                                            if lam[al[p][l]] != an[p][lam[l]])),
        _line("axiom2:left", (
            (m, m2, n) for m in Ms for m2 in Ms for n in Ns
            if pairing[M.mul(m, m2)][n] != L.mul(pairing[am[mu[m]][m2]][an[mu[m]][n]],
                                                 pairing[m][n]))),
        _line("axiom2:right", (
            (m, n, n2) for m in Ms for n in Ns for n2 in Ns
            if pairing[m][N.mul(n, n2)] != L.mul(pairing[m][n],
                                                 pairing[am[nu[n]][m]][an[nu[n]][n2]]))),
        _line("axiom3:kappa", ((m, n) for m in Ms for n in Ns
                               if kap[pairing[m][n]] != M.mul(m, M.inv(am[nu[n]][m])))),
        _line("axiom3:lambda", ((m, n) for m in Ms for n in Ns
                                if lam[pairing[m][n]] != N.mul(an[mu[m]][n], N.inv(n)))),
        _line("axiom4:kappa", ((l, n) for l in Ls for n in Ns
                               if pairing[kap[l]][n] != L.mul(l, L.inv(al[nu[n]][l])))),
        _line("axiom4:lambda", ((m, l) for m in Ms for l in Ls
                                if pairing[m][lam[l]] != L.mul(al[mu[m]][l], L.inv(l)))),
        _line("axiom5", ((p, m, n) for p in Ps for m in Ms for n in Ns
                         if al[p][pairing[m][n]] != pairing[am[p][m]][an[p][n]])),
    ]
    return ValidityReport(tuple(checks))


def crossed_square(*args, **kwargs) -> ValidCrossedSquare:
    """Crossed square checked on every tuple; raises :class:`GroupError`
    naming the first failing axiom and its witness."""
    X = ValidCrossedSquare(*args, **kwargs)
    _require(is_crossed_square(X).checks, "not a crossed square")
    return X


def _certify(X: CrossedSquare) -> None:
    """Raise as :func:`crossed_square` does, unless ``X`` is certified or
    passes every line of :func:`is_crossed_square` as it is given."""
    if not isinstance(X, ValidCrossedSquare):
        _require(is_crossed_square(X).checks, "not a crossed square")


# -- standard constructions -----------------------------------------------------


def crossed_square_by_normal_subgroups(L: Subgroup, M: Subgroup, N: Subgroup,
                                       P: GroupTable) -> CrossedSquare:
    """Inclusion square of two normal subgroups with commutator pairing."""
    if not (L.parent is P and M.parent is P and N.parent is P):
        raise GroupError("all three subgroups must live in P")
    if L.members != intersection(M, N).members:
        raise GroupError("the up-left corner must be the intersection of M and N")
    act_m = conjugation_action(P, M)   # raises with witness when not normal
    act_n = conjugation_action(P, N)
    act_l = conjugation_action(P, L)
    lpos = _subgroup_group(P, L.members)[1]
    pairing = tuple(
        tuple(lpos[P.comm(m, n)] for n in N.members) for m in M.members
    )
    ident = identity_hom(P)
    return crossed_square(
        act_l.space, act_m.space, act_n.space, P,
        restrict_hom(ident, L, M), restrict_hom(ident, L, N),
        inclusion_hom(M), inclusion_hom(N),
        act_l, act_m, act_n, pairing,
    )


def actor_crossed_square(M: GroupTable) -> CrossedSquare:
    """The square M -> Inn M (twice) -> Aut M with commutator pairing."""
    A, maps = automorphism_group_as_table(M)
    inner = Subgroup(A, inner_automorphism_indices(M))
    Ig, ipos = _subgroup_group(A, inner.members)
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
    _certify(X1)
    _certify(X2)
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
    _certify(X)
    L = X.up_left
    pairing = tuple(
        tuple(L.inv(X.pairing[m][n]) for m in range(X.up_right.order))
        for n in range(X.down_left.order)
    )
    return ValidCrossedSquare(L, X.down_left, X.up_right, X.down_right,
                              X.lambda_, X.kappa, X.nu, X.mu,
                              X.act_l, X.act_n, X.act_m, pairing)


# -- the equivalence with cat2-groups -------------------------------------------


def crossed_square_of_cat2(C: PreCat2Group) -> ValidCrossedSquare:
    """Kernel/image corner square with restricted heads and commutator pairing.

    A :class:`Cat2Group` input is trusted; any other input is certified by
    :func:`cat2_group` first.  The result is a crossed square by the
    equivalence XSq ~ Cat2, so it is certified without running the checker.
    """
    if not isinstance(C, Cat2Group):
        C = cat2_group(C.c1, C.c2)
    G = C.group
    kt1 = kernel_of(C.c1.tail)
    kt2 = kernel_of(C.c2.tail)
    it1 = C.c1.range_
    it2 = C.c2.range_
    Lsub = intersection(kt1, kt2)
    Msub = intersection(it1, kt2)
    Nsub = intersection(kt1, it2)
    Psub = intersection(it1, it2)
    kappa = restrict_hom(C.c1.head, Lsub, Msub)
    lam = restrict_hom(C.c2.head, Lsub, Nsub)
    mu = restrict_hom(C.c2.head, Msub, Psub)
    nu = restrict_hom(C.c1.head, Nsub, Psub)
    act_l = sub_conjugation_action(G, Psub, Lsub)
    act_m = sub_conjugation_action(G, Psub, Msub)
    act_n = sub_conjugation_action(G, Psub, Nsub)
    # t1 fixes m and kills n, t2 the reverse, so [m, n] lies in ker t1 and ker t2
    lpos = _subgroup_group(G, Lsub.members)[1]
    pairing = tuple(
        tuple(lpos[G.comm(m, n)] for n in Nsub.members) for m in Msub.members
    )
    return ValidCrossedSquare(act_l.space, act_m.space, act_n.space, act_l.actor,
                              kappa, lam, mu, nu, act_l, act_m, act_n, pairing)


def cat2_of_crossed_square(X: CrossedSquare) -> Cat2Group:
    """(L x| N) x| (M x| P) with the induced tail/head endomorphism pairs.

    A :class:`ValidCrossedSquare` input is trusted; any other square is
    checked first by :func:`_certify`, which raises
    :class:`GroupError` naming the failing line.  The result is a
    cat2-group by the equivalence XSq ~ Cat2, so its maps, the action of
    M x| P on L x| N and the cat1 and cat2 structures are built with the
    plain constructors and certified without running a checker.
    """
    _certify(X)
    L, M, N, P = X.up_left, X.up_right, X.down_left, X.down_right
    kap, lam, mu, nu = (X.kappa.mapping, X.lambda_.mapping,
                        X.mu.mapping, X.nu.mapping)
    al, an = X.act_l.perms, X.act_n.perms

    LN = semidirect_product(L, N, action_by_hom(X.nu, X.act_l),
                            label=f"{L.label} x| {N.label}")
    MP = semidirect_product(M, P, X.act_m, label=f"{M.label} x| {P.label}")

    n_ord, p_ord = N.order, P.order
    perms = []
    for m in M.elements():
        am_l = al[mu[m]]
        row_m = X.pairing[m]
        for p in P.elements():
            ap_l, ap_n = al[p], an[p]
            perm = [0] * LN.order
            for l in L.elements():
                ml = am_l[ap_l[l]]
                base = l * n_ord
                for n in N.elements():
                    pn = ap_n[n]
                    perm[base + n] = L.mul(ml, row_m[pn]) * n_ord + pn
            perms.append(tuple(perm))
    bigact = GroupAction(MP, LN, perms)

    G = semidirect_product(LN, MP, bigact, label=f"({LN.label}) x| ({MP.label})")

    rn = MP.order
    t1m, h1m, t2m, h2m = [], [], [], []
    for x in G.elements():
        ln, mp = divmod(x, rn)
        l, n = divmod(ln, n_ord)
        m, p = divmod(mp, p_ord)
        t1m.append(mp)
        h1m.append(MP.mul(kap[l] * p_ord + nu[n], mp))
        t2m.append(n * rn + p)
        h2m.append(N.mul(lam[l], n) * rn + P.mul(mu[m], p))
    t1, h1, t2, h2 = (Homomorphism(G, G, m) for m in (t1m, h1m, t2m, h2m))
    return Cat2Group(Cat1Group(t1, h1), Cat1Group(t2, h2))
