"""Cat1-group structures: axioms, enumeration, classification, and the
equivalence with crossed modules.

A structure is a pair of endomorphisms (t, h) of one group with t o h = h,
h o t = t and [ker t, ker h] = 1 (the identities force im t = im h), each
reported with a witness by :func:`is_cat1_group` after the lines that t and
h are homomorphisms; the report is memoized on the group and keyed on both
maps, so a process checks each structure once, and the certifying factory
:func:`cat1_group` raises with its first failing line.  A structure stores
only its maps and reads G and im t off them.  The endomorphism form is
canonical; the embedding form (e; t, h : G -> R) is a view converted on
input and output, with R indexed as ``groups`` decides once.  Enumeration
pairs the rows of the sorted idempotent array E of the End(G) pass with
array tests of both axioms at once, and lists ordered pairs in lexicographic
order of their concatenated map arrays; the index pair (tails, heads) into E
is the one array form of the structures, whose maps are E[tails] and E[heads].
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
    _subgroup_group,
    automorphism_generators,
    all_homomorphisms,
    compose,
    image_of,
    inclusion_hom,
    kernel_of,
    require_dense,
    restrict_hom,
    semidirect_product,
    sub_conjugation_action,
)
from .xmod import (AxiomCheck, CrossedModule, ValidityReport, _line, _map_lines, _require,
                   crossed_module)


@dataclass(frozen=True)
class PreCat1Group:
    """(G; t, h) with t o h = h and h o t = t; build via the factories.
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

    def key(self) -> tuple:
        return (self.tail.mapping, self.head.mapping)

    def __repr__(self) -> str:  # pragma: no cover
        return f"[{self.group.label} => |R|={self.range_.order}]"


class Cat1Group(PreCat1Group):
    """A pre-cat1-group that also satisfies [ker t, ker h] = 1."""


def _pre_cat1_checks(t: Sequence[int], h: Sequence[int]) -> tuple[AxiomCheck, AxiomCheck]:
    """t o h = h and h o t = t, each with the first element x where it fails."""
    return (_line("t o h = h", ((x,) for x, hx in enumerate(h) if t[hx] != hx)),
            _line("h o t = t", ((x,) for x, tx in enumerate(t) if h[tx] != tx)))


def pre_cat1_by_endomorphisms(t: Homomorphism, h: Homomorphism) -> PreCat1Group:
    """Validated pre-cat1-group from two endomorphisms of one group."""
    C = PreCat1Group(t, h)
    _require(_pre_cat1_checks(t.mapping, h.mapping), "pre-cat1 axiom violated")
    return C


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


def cat1_group(t: Homomorphism, h: Homomorphism) -> Cat1Group:
    """Certified cat1-group; raises :class:`GroupError` naming the first
    failing line of :func:`is_cat1_group` and its witness.  The report is
    the memoized one, so certifying the same maps again checks nothing."""
    C = Cat1Group(t, h)
    _require(_cat1_report(C.group, t, h).checks, "not a cat1-group")
    return C


# -- the embedding (general) form ---------------------------------------------


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
    _require(_map_lines([("e", e)]), "not a cat1-group")
    if len(set(t.mapping)) != R.order or len(set(h.mapping)) != R.order:
        raise GroupError("tail and head must be surjections onto the range")
    return cat1_group(compose(e, t), compose(e, h))


def general_form(C: Cat1Group) -> Cat1GeneralForm:
    """The embedding-form view of a cat1-group (range as a standalone group)."""
    R, pos = _subgroup_group(C.group, C.range_.members)
    e = inclusion_hom(C.range_)
    t = Homomorphism(C.group, R, tuple(pos[v] for v in C.tail.mapping))
    h = Homomorphism(C.group, R, tuple(pos[v] for v in C.head.mapping))
    return Cat1GeneralForm(e, t, h)


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


# -- the equivalence with crossed modules --------------------------------------


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


# -- morphisms -----------------------------------------------------------------


@dataclass(frozen=True)
class Cat1Morphism:
    source: PreCat1Group
    target: PreCat1Group
    hom: Homomorphism


def _intertwines(f: Sequence[int], a: Sequence[int], b: Sequence[int]) -> bool:
    # f o a = b o f on the source elements
    return all(f[a[x]] == b[f[x]] for x in range(len(f)))


def is_cat1_morphism(C1: PreCat1Group, C2: PreCat1Group, f: Homomorphism) -> bool:
    return (_intertwines(f.mapping, C1.tail.mapping, C2.tail.mapping)
            and _intertwines(f.mapping, C1.head.mapping, C2.head.mapping))


def all_cat1_morphisms(C1: PreCat1Group, C2: PreCat1Group) -> list[Cat1Morphism]:
    out = []
    for f in all_homomorphisms(C1.group, C2.group):
        if is_cat1_morphism(C1, C2, f):
            out.append(Cat1Morphism(C1, C2, f))
    return out
