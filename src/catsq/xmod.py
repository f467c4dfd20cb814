"""Crossed modules of groups: the two axioms, standard constructions, morphisms.

A crossed module is a boundary S -> R together with an explicit action of R on
S satisfying equivariance and the Peiffer identity.

This module holds the package's one check mechanism.  Values and dataclasses
check shapes; reports and certifying factories check axioms.  A report
(``is_crossed_module``, ``is_cat1_group``, ``is_cat2_group``,
``is_crossed_square``) is a :class:`ValidityReport` of :class:`AxiomCheck`
lines, starting with one line per map and action from :func:`is_homomorphism`
and :func:`is_action`.  A certifying factory raises through :func:`_require`
with the name and witness of the first failing line.  ``is_cat1_group`` is
memoized on its group, keyed on both maps, and ``cat1_group`` raises from
that memoized report; the other reports are computed on each call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .groups import (
    GroupAction,
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    _inner_automorphisms,
    automorphism_group_as_table,
    conjugation_action,
    direct_product,
    inclusion_hom,
    kernel_of,
    product_action,
    product_hom,
    trivial_hom,
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _require(checks: Iterable[AxiomCheck], what: str) -> None:
    """Raise with the name and witness of the first failing check."""
    for c in checks:
        if not c.ok:
            raise GroupError(f"{what}: {c.name} fails with witness {c.witness}")


def _line(name: str, failures: Iterator[tuple]) -> AxiomCheck:
    """The line ``name``: it fails with the first of ``failures``, if any."""
    w = next(failures, None)
    return _passing(name, True) if w is None else AxiomCheck(name, False, w)


_passing = functools.cache(AxiomCheck)  # a passing line has no witness: one per name


def is_homomorphism(f: Homomorphism) -> AxiomCheck:
    """f(g x) = f(g) f(x) for every generator g of the source and every x,
    which pins every product; the witness is the first failing (g, x)."""
    src, tgt, m = f.source, f.target, f.mapping
    for g in src.generators:
        fg = m[g]
        for x in src.elements():
            if m[src.mul(g, x)] != tgt.mul(fg, m[x]):
                return AxiomCheck("homomorphism", False, (g, x))
    return AxiomCheck("homomorphism", True)


def is_action(a: GroupAction) -> AxiomCheck:
    """Each generator g of the actor acts by an automorphism, and
    g |> (q |> x) = (g q) |> x for every actor element q, which pins every
    value.  The witness is the first failing (g, x, y) with
    g |> (x y) != (g |> x)(g |> y), or (g, q)."""
    P, S, perms = a.actor, a.space, a.perms
    for g in P.generators or tuple(P.elements()):
        pg = perms[g]
        for x in S.elements():
            gx = pg[x]
            for y in S.elements():
                if pg[S.mul(x, y)] != S.mul(gx, pg[y]):
                    return AxiomCheck("action", False, (g, x, y))
        for q in P.elements():
            if perms[P.mul(g, q)] != tuple(pg[v] for v in perms[q]):
                return AxiomCheck("action", False, (g, q))
    return AxiomCheck("action", True)


def _map_lines(maps: Iterable[tuple[str, Homomorphism]],
               actions: Iterable[tuple[str, GroupAction]] = ()) -> tuple[AxiomCheck, ...]:
    """The report lines "<name> is a homomorphism" and "<name> is an action"
    of named maps and actions, with the witnesses of :func:`is_homomorphism`
    and :func:`is_action`."""
    named = ([(f"{n} is a homomorphism", is_homomorphism(f)) for n, f in maps]
             + [(f"{n} is an action", is_action(a)) for n, a in actions])
    return tuple(AxiomCheck(name, c.ok, c.witness) for name, c in named)


@dataclass(frozen=True)
class CrossedModule:
    """Boundary ``S -> R`` with an action of R on S (axioms via factories)."""

    source: GroupTable
    range_: GroupTable
    boundary: Homomorphism
    action: GroupAction

    def __post_init__(self) -> None:
        if self.boundary.source is not self.source or self.boundary.target is not self.range_:
            raise GroupError("boundary must map the source to the range")
        if self.action.actor is not self.range_ or self.action.space is not self.source:
            raise GroupError("the action must be of the range on the source")

    def act(self, r: int, s: int) -> int:
        return self.action.perms[r][s]

    def __repr__(self) -> str:  # pragma: no cover
        return f"[{self.source.label}->{self.range_.label}]"


def is_crossed_module(X: CrossedModule) -> ValidityReport:
    """Per-axiom report: the boundary and action lines, then equivariance and
    the Peiffer identity, exhaustively."""
    lines = _map_lines([("boundary", X.boundary)], [("action", X.action)])
    return ValidityReport(lines + _xmod_axioms(X))


def _xmod_axioms(X: CrossedModule) -> tuple[AxiomCheck, AxiomCheck]:
    """Equivariance and the Peiffer identity, with a witness when they fail."""
    S, R, b, act = X.source, X.range_, X.boundary.mapping, X.action.perms
    Ss = S.elements()
    return (_line("equivariance", ((r, s) for r in R.elements() for s in Ss
                                   if b[act[r][s]] != R.conj(r, b[s]))),
            _line("peiffer", ((s1, s2) for s2 in Ss for s1 in Ss
                              if act[b[s2]][s1] != S.conj(s2, s1))))


def crossed_module(source: GroupTable, range_: GroupTable, boundary: Homomorphism,
                   action: GroupAction) -> CrossedModule:
    X = CrossedModule(source, range_, boundary, action)
    _require(is_crossed_module(X).checks, "not a crossed module")
    return X


# -- standard constructions ---------------------------------------------------


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


def zero_boundary_xmod(M: GroupTable, P: GroupTable, act: GroupAction) -> CrossedModule:
    """Trivial boundary over an abelian module."""
    if not M.is_abelian():
        raise GroupError("a zero-boundary crossed module needs an abelian source")
    if act.actor is not P or act.space is not M:
        raise GroupError("the action must be of P on M")
    return crossed_module(M, P, trivial_hom(M, P), act)


def central_extension_xmod(f: Homomorphism) -> CrossedModule:
    """Surjection with central kernel; r acts by conjugation with its least
    preimage.  The kernel is central, so any other preimage gives the same
    action."""
    S, R = f.source, f.target
    if len(set(f.mapping)) != R.order:
        raise GroupError("central extension boundary must be surjective")
    centre = set(S.center())
    for k in kernel_of(f).members:
        if k not in centre:
            raise GroupError(f"kernel element {k} is not central in the source")
    picks: dict[int, int] = {}
    for x in S.elements():
        picks.setdefault(f.mapping[x], x)
    perms = tuple(
        tuple(S.conj(picks[r], s) for s in S.elements()) for r in R.elements()
    )
    return crossed_module(S, R, f, GroupAction(R, S, perms))


def direct_product_xmod(X1: CrossedModule, X2: CrossedModule) -> CrossedModule:
    """Componentwise product, checked by :func:`crossed_module`."""
    S = direct_product(X1.source, X2.source)
    R = direct_product(X1.range_, X2.range_)
    return crossed_module(S, R, product_hom(X1.boundary, X2.boundary, S, R),
                          product_action(X1.action, X2.action, R, S))


# -- morphisms ----------------------------------------------------------------


@dataclass(frozen=True)
class XModMorphism:
    source: CrossedModule
    target: CrossedModule
    sigma: Homomorphism
    rho: Homomorphism

    def __post_init__(self) -> None:
        if self.sigma.source is not self.source.source or self.sigma.target is not self.target.source:
            raise GroupError("sigma must map source groups")
        if self.rho.source is not self.source.range_ or self.rho.target is not self.target.range_:
            raise GroupError("rho must map range groups")


def is_xmod_morphism(m: XModMorphism) -> ValidityReport:
    """Per-axiom report: the sigma and rho lines, then the boundary square
    and the compatibility of the actions."""
    X1, X2 = m.source, m.target
    sig, rho = m.sigma.mapping, m.rho.mapping
    b1, b2 = X1.boundary.mapping, X2.boundary.mapping
    a1, a2, Ss = X1.action.perms, X2.action.perms, X1.source.elements()
    return ValidityReport(_map_lines([("sigma", m.sigma), ("rho", m.rho)]) + (
        _line("boundary-square", ((s,) for s in Ss if b2[sig[s]] != rho[b1[s]])),
        _line("action-compatibility", ((r, s) for r in X1.range_.elements() for s in Ss
                                       if sig[a1[r][s]] != a2[rho[r]][sig[s]]))))


def xmod_morphism(source: CrossedModule, target: CrossedModule,
                  sigma: Homomorphism, rho: Homomorphism) -> XModMorphism:
    m = XModMorphism(source, target, sigma, rho)
    _require(is_xmod_morphism(m).checks, "not a crossed module morphism")
    return m
