"""Crossed modules of groups: the two axioms, standard constructions, morphisms.

A crossed module is a boundary S -> R together with an explicit action of R on
S satisfying equivariance and the Peiffer identity.  The dataclasses here only
check shapes; the factory functions validate the axioms exhaustively and raise
with a witness, while :func:`is_crossed_module` produces a per-axiom report
for arbitrary candidate data.  :class:`ValidityReport` is the package's one
axiom-report type (``is_crossed_module``, ``is_cat1_group``, ``is_cat2_group``,
``is_crossed_square``); factories raise through :func:`_require`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .groups import (
    GroupAction,
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
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
    """Per-axiom report: equivariance and the Peiffer identity, exhaustively."""
    S, R, b, act = X.source, X.range_, X.boundary.mapping, X.action.perms
    equiv = AxiomCheck("equivariance", True)
    for r in R.elements():
        pr = act[r]
        for s in S.elements():
            if b[pr[s]] != R.conj(r, b[s]):
                equiv = AxiomCheck("equivariance", False, (r, s))
                break
        if not equiv.ok:
            break
    peiffer = AxiomCheck("peiffer", True)
    for s2 in S.elements():
        pb = act[b[s2]]
        for s1 in S.elements():
            if pb[s1] != S.conj(s2, s1):
                peiffer = AxiomCheck("peiffer", False, (s1, s2))
                break
        if not peiffer.ok:
            break
    return ValidityReport((equiv, peiffer))


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
    pos = {m: i for i, m in enumerate(maps)}
    boundary = Homomorphism(S, A, tuple(
        pos[tuple(S.conj(s, x) for x in S.elements())] for s in S.elements()
    ))
    action = GroupAction(A, S, maps)
    return crossed_module(S, A, boundary, action)


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
    """Componentwise product; the product map and action are built unchecked,
    and the crossed-module axioms are checked on them."""
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
    X1, X2 = m.source, m.target
    sig, rho = m.sigma.mapping, m.rho.mapping
    b1, b2 = X1.boundary.mapping, X2.boundary.mapping
    square = AxiomCheck("boundary-square", True)
    for s in X1.source.elements():
        if b2[sig[s]] != rho[b1[s]]:
            square = AxiomCheck("boundary-square", False, (s,))
            break
    equivar = AxiomCheck("action-compatibility", True)
    for r in X1.range_.elements():
        p1 = X1.action.perms[r]
        p2 = X2.action.perms[rho[r]]
        for s in X1.source.elements():
            if sig[p1[s]] != p2[sig[s]]:
                equivar = AxiomCheck("action-compatibility", False, (r, s))
                break
        if not equivar.ok:
            break
    return ValidityReport((square, equivar))


def xmod_morphism(source: CrossedModule, target: CrossedModule,
                  sigma: Homomorphism, rho: Homomorphism) -> XModMorphism:
    m = XModMorphism(source, target, sigma, rho)
    _require(is_xmod_morphism(m).checks, "not a crossed module morphism")
    return m
