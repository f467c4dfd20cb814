"""Crossed squares: the five axioms, the square of two normal subgroups, and
the equivalence with cat2-groups in both directions.

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
validated where it enters: :func:`crossed_square` (and
:func:`crossed_square_by_normal_subgroups`, built on it) requires every line
and returns a :class:`ValidCrossedSquare`.
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
    _subgroup_group,
    action_by_hom,
    compose,
    conjugation_action,
    identity_hom,
    inclusion_hom,
    intersection,
    kernel_of,
    restrict_hom,
    semidirect_product,
    sub_conjugation_action,
)
from .xmod import ValidityReport, _line, _map_lines, _require, _xmod_axioms
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

    @property
    def diagonal(self) -> Homomorphism:
        return compose(self.mu, self.kappa)

    def __repr__(self) -> str:  # pragma: no cover
        return ("[{} -> {}; {} -> {}]".format(
            self.up_left.label, self.up_right.label,
            self.down_left.label, self.down_right.label))


class ValidCrossedSquare(CrossedSquare):
    """A crossed square whose axioms were all checked, or the image of a
    cat2-group: built by :func:`crossed_square` or
    :func:`crossed_square_of_cat2`, or from such squares by a construction
    whose output is a crossed square by theorem."""


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
        ("axiom1:kappa", L, M, kap, [al[v] for v in mu]),
        ("axiom1:lambda", L, N, lam, [al[v] for v in nu]),
        ("axiom1:mu", M, P, mu, am),
        ("axiom1:nu", N, P, nu, an),
        ("axiom1:pi", L, P, X.diagonal.mapping, al),
    )
    checks += [_line(name, ((c.name,) + c.witness for c in _xmod_axioms(*edge) if not c.ok))
               for name, *edge in edges]
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


# -- the square of two normal subgroups ----------------------------------------


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
