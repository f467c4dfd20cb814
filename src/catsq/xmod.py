"""The package's one check mechanism, and the crossed-module axioms.

A crossed module is a boundary S -> R together with an explicit action of R on
S satisfying equivariance and the Peiffer identity.  :func:`_xmod_axioms`
reports both for a boundary mapping and the rows of an action, which
``is_crossed_square`` reads off the five edges of a square; the package keeps
no crossed-module value.

Values and dataclasses check shapes; reports and certifying factories check
axioms.  A report (``is_cat1_group``, ``is_cat2_group``,
``is_crossed_square``) is a :class:`ValidityReport` of :class:`AxiomCheck`
lines, starting with one line per map and action from :func:`is_homomorphism`
and :func:`is_action`.  A certifying factory (``cat2_group``,
``crossed_square``) raises through :func:`_require` with the name and
witness of the first failing line.  ``is_cat1_group`` is memoized on its
group, keyed on both maps; the other reports are computed on each call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .groups import GroupAction, GroupError, GroupTable, Homomorphism


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


def _xmod_axioms(S: GroupTable, R: GroupTable, b: Sequence[int],
                 act: Sequence[Sequence[int]]) -> tuple[AxiomCheck, AxiomCheck]:
    """Equivariance and the Peiffer identity of the boundary ``b: S -> R``
    with R acting on S by the rows ``act``, with a witness when they fail."""
    Ss = S.elements()
    return (_line("equivariance", ((r, s) for r in R.elements() for s in Ss
                                   if b[act[r][s]] != R.conj(r, b[s]))),
            _line("peiffer", ((s1, s2) for s2 in Ss for s1 in Ss
                              if act[b[s2]][s1] != S.conj(s2, s1))))
