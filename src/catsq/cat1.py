"""Cat1-group structures: axioms, enumeration and classification.

A structure is a pair of endomorphisms (t, h) of one group with t o h = h,
h o t = t and [ker t, ker h] = 1 (the identities force im t = im h), each
reported with a witness by :func:`is_cat1_group` after the lines that t and
h are homomorphisms; the report is memoized on the group and keyed on both
maps, so a process checks each structure once.  A structure stores only its
maps and reads G and im t off them.  Enumeration pairs the rows of the
sorted idempotent array E of the End(G) pass with array tests of both axioms
at once, and lists ordered pairs in lexicographic order of their concatenated
map arrays; the index pair (tails, heads) into E is the one array form of the
structures, whose maps are E[tails] and E[heads].
Classification conjugates E by each Aut(G) generator; the lookup
:func:`_code_positions` of ``groups`` matches the conjugates to E on whole
rows and then finds the pair codes that the induced permutation of E moves,
one permutation of the k positions per generator.  The orbit routine
:func:`_orbit_labels` of ``groups`` (min-label propagation with pointer
jumping) turns such permutations into one label array, each position's least
orbit member, for the cat2 classes too; that array is the stored form of a
:class:`Classification`, whose leaders and families are views built on read.
The objects at given positions are built on read by
:func:`_cat1_structures`, the decoder of :func:`all_cat1_groups` and of the
cat1 :class:`Classification`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .groups import (
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    _endomorphism_maps,
    _code_positions,
    _memo,
    _np_table,
    _orbit_labels,
    automorphism_generators,
    image_of,
    kernel_of,
    require_dense,
)
from .xmod import AxiomCheck, ValidityReport, _line, _map_lines


@dataclass(frozen=True)
class PreCat1Group:
    """(G; t, h) with t o h = h and h o t = t, which :func:`is_cat1_group` reports.
    Only the maps are stored: G is their group and R = im t is built on read."""

    tail: Homomorphism
    head: Homomorphism

    def __post_init__(self) -> None:
        G, t, h = self.tail.source, self.tail, self.head
        if t.target is not G or h.source is not G or h.target is not G:
            raise GroupError("tail and head must be endomorphisms of one group")

    @property
    def group(self) -> GroupTable:
        return self.tail.source

    @cached_property
    def range_(self) -> Subgroup:
        return image_of(self.tail)

    def __repr__(self) -> str:  # pragma: no cover
        return f"[{self.group.label} => |R|={self.range_.order}]"


class Cat1Group(PreCat1Group):
    """A pre-cat1-group that also satisfies [ker t, ker h] = 1."""


def _pre_cat1_checks(t: Sequence[int], h: Sequence[int]) -> tuple[AxiomCheck, AxiomCheck]:
    """t o h = h and h o t = t, each with the first element x where it fails."""
    return (_line("t o h = h", ((x,) for x, hx in enumerate(h) if t[hx] != hx)),
            _line("h o t = t", ((x,) for x, tx in enumerate(t) if h[tx] != tx)))


def _kernel_check(G: GroupTable, t: Homomorphism, h: Homomorphism) -> AxiomCheck:
    """[ker t, ker h] = 1 in G, with the first noncommuting kernel pair on
    failure."""
    kh = kernel_of(h).members
    return _line("[ker t, ker h] = 1", ((a, b) for a in kernel_of(t).members
                                        for b in kh if G.mul(a, b) != G.mul(b, a)))


def is_cat1_group(C: PreCat1Group) -> ValidityReport:
    """Per-axiom report: the t and h lines, then t o h = h, h o t = t and
    [ker t, ker h] = 1.  Memoized on ``C.group`` and keyed on both maps,
    their source and target groups included, so a process checks each
    structure once; the report is immutable and shared."""
    return _cat1_report(C.group, C.tail, C.head)


@_memo
def _cat1_report(G: GroupTable, t: Homomorphism, h: Homomorphism) -> ValidityReport:
    lines = _map_lines([("t", t), ("h", h)])
    checks = _pre_cat1_checks(t.mapping, h.mapping)
    return ValidityReport(lines + checks + (_kernel_check(G, t, h),))


# -- enumeration and classification -------------------------------------------


def _bit_codes(B: np.ndarray) -> np.ndarray:
    """Each row of the boolean array ``B`` as int64 bit codes, 64 columns
    to a word, so equal rows have equal codes at any order."""
    codes = np.zeros((len(B), -(-B.shape[1] // 64) * 8), dtype=np.uint8)
    codes[:, :-(-B.shape[1] // 8)] = np.packbits(B, axis=1)
    return codes.view(np.int64)


def _kernel_clash(G: GroupTable, ker: np.ndarray) -> np.ndarray:
    """Per row of the boolean membership array ``ker`` of kernels in G, the
    elements that fail to commute with some element of that kernel, as a
    boolean row: [K, L] = 1 exactly when L misses them.  The product of
    boolean arrays runs in numpy's own loop, not in BLAS."""
    T = _np_table(G)
    return ker @ (T != T.T)


@_memo
def _cat1_pairs(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Rows (tails, heads) of the idempotent array of every cat1 structure,
    in lexicographic order of (tail, head); read-only intp arrays.

    An idempotent fixes exactly its image, so t o h = h and h o t = t hold
    for a pair of idempotents precisely when their fixed-point sets are
    equal, and so their :func:`_bit_codes`.  ``np.nonzero`` of that m x m
    equality lists the pairs in C order, which is lexicographic because the
    idempotent array is.  [ker t, ker h] = 1 is then tested on those pairs
    only: ker h must miss the :func:`_kernel_clash` of ker t.  Every test is
    on integers and booleans, so no BLAS product runs.
    """
    I = _endomorphism_maps(G)[0]
    fixed = _bit_codes(I == np.arange(G.order))
    tails, heads = np.nonzero((fixed[:, None] == fixed).all(axis=2))
    ker = I == 0
    ok = ~(_kernel_clash(G, ker)[tails] & ker[heads]).any(axis=1)
    return tails[ok], heads[ok]


def _cat1_structures(G: GroupTable, positions) -> list[Cat1Group]:
    """The cat1 structures at ``positions`` (a numpy index) of the
    enumeration: the idempotent rows of their index pairs of
    :func:`_cat1_pairs`, each row built once."""
    tails, heads = (a[positions].tolist() for a in _cat1_pairs(G))
    E = _endomorphism_maps(G)[0]
    homs = {i: Homomorphism(G, G, E[i].tolist()) for i in {*tails, *heads}}
    return [Cat1Group(homs[i], homs[j]) for i, j in zip(tails, heads)]


def all_cat1_groups(G: GroupTable) -> list[Cat1Group]:
    """Every cat1 structure (t, h) on G, ordered pairs, lexicographic order."""
    require_dense(G)
    return _cat1_structures(G, slice(None))


@dataclass(frozen=True, eq=False)
class Classification:
    """The Aut(G)-classes of one kind of structure on ``group``: labels[p] is
    the least position in the class of position p, and ``leaders`` are those
    least positions, ascending.  ``decode(group, positions)`` builds that
    kind's structures, so only the representatives, at the leaders, are built."""

    group: GroupTable
    labels: np.ndarray  # read-only; len(labels) is the structure count
    decode: Callable[[GroupTable, np.ndarray], list]

    @cached_property
    def leaders(self) -> np.ndarray:
        return np.flatnonzero(self.labels == np.arange(len(self.labels)))

    @cached_property
    def families(self) -> tuple[tuple[int, ...], ...]:
        """The positions of each class, ascending, in the order of ``leaders``."""
        order = np.argsort(self.labels, kind="stable")
        cuts = np.flatnonzero(np.diff(self.labels[order])) + 1
        return tuple(tuple(f.tolist()) for f in np.split(order, cuts)) if len(order) else ()

    @cached_property
    def representatives(self) -> tuple:
        return tuple(self.decode(self.group, self.leaders))


@_memo
def cat1_structure_orbit_maps(G: GroupTable) -> np.ndarray:
    """Row r: the cat1 positions permuted by the r-th Aut(G) generator.

    The generator a sends (t, h) to (a t a^-1, a h a^-1), so it acts through
    the idempotents: the m rows of E are conjugated at once and matched to
    E by :func:`_code_positions` on whole rows, so a map that is no
    automorphism cannot pass on some columns alone.  The induced permutation
    s of E sends the pair code i*m + j of each structure to s[i]*m + s[j],
    which the same lookup finds.  Read-only result.
    """
    E = _endomorphism_maps(G)[0]
    m = len(E)
    tails, heads = _cat1_pairs(G)
    codes = tails * m + heads
    gens = automorphism_generators(G)
    sigmas = np.empty((len(gens), len(tails)), dtype=np.intp)
    broken = "conjugating a cat1 structure left the enumeration; the Aut action is broken"
    for r, a in enumerate(gens):
        conj = a[E[:, np.argsort(a)]]
        s = _code_positions(E, conj, broken)  # row i of conj is row s[i] of E
        sigmas[r] = _code_positions(codes, s[tails] * m + s[heads], broken)
    return sigmas


@_memo
def cat1_isomorphism_classes(G: GroupTable) -> Classification:
    """Aut(G)-orbits of cat1 structures, labelled from the orbit maps and
    memoized; the cat2 pair scan takes its orbit representatives from the
    leaders of the same labels."""
    require_dense(G)
    k = len(_cat1_pairs(G)[0])
    return Classification(G, _orbit_labels(k, cat1_structure_orbit_maps(G)), _cat1_structures)
