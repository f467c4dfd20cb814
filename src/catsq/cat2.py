"""Cat2-group structures and cat^n generalities.

A cat2-group is an unordered pair of cat1 structures on one group whose four
maps commute pairwise.  It stores the pair alone, in the caller's orientation,
and refuses structures on two groups at construction; the enumeration emits
each pair once, lexicographically smaller structure first.
:func:`is_cat2_group` reports each structure's cat1 lines, then the
commutation identities; :func:`cat2_group` checks commutation, and the cat1
lines only of a structure that is not already a :class:`Cat1Group`.
The pair scan tests one cat1 structure per Aut(G) orbit against all
structures, comparing composed endomorphisms on the generator columns only,
and carries the partner lists along all orbits at once, one breadth-first
level at a time.  Isomorphism classification computes orbits under Aut(G)
combined with the orientation swap: each Aut(G) generator permutes the
sorted pair codes, found by the one lookup of ``groups``, and the class
labels come from the orbit routine of ``groups`` that also labels the cat1
classes and closes the Aut(G) generators.
:func:`_cat2_structures` decodes positions into structures for
:func:`all_cat2_groups` and the representatives; the diagonal probe of
:func:`non_cat1_diagonal_count` tests the structures at all class leaders in
one array pass.  The single-structure form, :func:`diagonal_pre_cat1`, reads
the memoized cat1 report of the composed maps, the one that
:func:`is_cat1_group` and :func:`cat1_group` read, so a process checks each
diagonal once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .groups import (
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    _code_positions,
    _endomorphism_maps,
    _memo,
    _orbit_labels,
    all_homomorphisms,
    compose,
    image_of,
    require_dense,
    restrict_hom,
    _iter_isomorphism_maps,
)
from .cat1 import (
    Cat1Group,
    Classification,
    PreCat1Group,
    _cat1_pairs,
    _cat1_report,
    _cat1_structures,
    _intertwines,
    _noncommuting_mask,
    cat1_isomorphism_classes,
    cat1_structure_orbit_maps,
    is_cat1_group,
)
from .xmod import AxiomCheck, ValidityReport, _line, _map_lines, _require


@dataclass(frozen=True)
class PreCat2Group:
    """Two commuting pre-cat1 structures on one group.

    The pair is semantically unordered; the stored orientation is the one the
    structure was built with (the enumeration emits the lexicographically
    canonical orientation), and classification identifies transposes.  Only
    the two structures are stored; the group is theirs.
    """

    c1: PreCat1Group
    c2: PreCat1Group

    def __post_init__(self) -> None:
        if self.c1.group is not self.c2.group:
            raise GroupError("both structures must live on the same group")

    @property
    def group(self) -> GroupTable:
        return self.c1.group

    @property
    def r1(self) -> Subgroup:
        return self.c1.range_

    @property
    def r2(self) -> Subgroup:
        return self.c2.range_

    @cached_property
    def r12(self) -> Subgroup:
        return image_of(compose(self.c1.tail, self.c2.tail))

    @cached_property
    def size(self) -> tuple[int, int, int, int]:
        return (self.group.order, self.r1.order, self.r2.order, self.r12.order)

    def key(self) -> tuple:
        return (self.c1.key(), self.c2.key())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<cat2 on {self.group.label} size {list(self.size)}>"


class Cat2Group(PreCat2Group):
    """Both generating structures are cat1-groups."""


def _noncommuting(c1: PreCat1Group, c2: PreCat1Group) -> Iterator[tuple[str, int]]:
    """Each violated commutation identity, as (name, element), in order."""
    t1, h1 = c1.tail.mapping, c1.head.mapping
    t2, h2 = c2.tail.mapping, c2.head.mapping
    return ((name, x) for name, a, b in (("t1 o t2 = t2 o t1", t1, t2),
                                         ("h1 o h2 = h2 o h1", h1, h2),
                                         ("t1 o h2 = h2 o t1", t1, h2),
                                         ("t2 o h1 = h1 o t2", t2, h1))
            for x in range(len(a)) if a[b[x]] != b[a[x]])


def _commutation_check(c1: PreCat1Group, c2: PreCat1Group) -> AxiomCheck:
    return _line("commutation identities", _noncommuting(c1, c2))


def is_cat2_group(C: PreCat2Group) -> ValidityReport:
    """Per-axiom report: each structure's cat1 lines, then commutation."""
    checks = [replace(k, name=f"structure {n}: {k.name}")
              for n, c in ((1, C.c1), (2, C.c2)) for k in is_cat1_group(c).checks]
    checks.append(_commutation_check(C.c1, C.c2))
    return ValidityReport(tuple(checks))


def pre_cat2_group(c1: PreCat1Group, c2: PreCat1Group) -> PreCat2Group:
    C = PreCat2Group(c1, c2)
    _require((_commutation_check(c1, c2),), "commutation identity violated")
    return C


def cat2_group(c1: PreCat1Group, c2: PreCat1Group) -> Cat2Group:
    """Certified cat2-group; raises naming the first failing line of
    :func:`is_cat2_group` and its witness.  A :class:`Cat1Group` input is
    certified already, so only the other inputs' lines are checked."""
    for n, c in ((1, c1), (2, c2)):
        if not isinstance(c, Cat1Group):
            _require(is_cat1_group(c).checks,
                     f"a generating structure is not a cat1-group: structure {n}")
    C = Cat2Group(c1, c2)
    _require((_commutation_check(c1, c2),), "commutation identity violated")
    return C


def diagonal_pre_cat1(C: PreCat2Group) -> tuple[PreCat1Group, bool, Optional[tuple]]:
    """The diagonal (t1 o t2, h1 o h2) with its cat1 verdict and witness.

    The verdict is the kernel line of the memoized cat1 report of the
    composed maps.  A failing earlier line raises ``pre-cat1 axiom
    violated`` with its name and witness: t o h = h or h o t = t, or, for
    an uncertified pair, a composed map that is no homomorphism."""
    t = compose(C.c1.tail, C.c2.tail)
    h = compose(C.c1.head, C.c2.head)
    *lines, kernels = _cat1_report(C.group, t, h).checks
    _require(lines, "pre-cat1 axiom violated")
    return PreCat1Group(t, h), kernels.ok, kernels.witness


# -- enumeration ---------------------------------------------------------------


@_memo
def _cat2_codes(G: GroupTable) -> np.ndarray:
    """The sorted codes i*k + j of the index pairs (i <= j) of commuting cat1
    structures, k being the cat1 count; the pair scan on E[tails], E[heads].

    Commutation is invariant under Aut(G), so only the least structure of
    each cat1 orbit is tested against all k structures.  Each identity, such
    as t o T[j] = T[j] o t, is compared on the columns ``G.generators`` only:
    the rows of E are endomorphisms certified by the End(G) pass, so both
    sides are, and ``groups._cayley_tree`` has proved that ``G.generators``
    generate G.  The partner lists are then carried breadth-first along all
    orbits at once by the generator permutations of
    :func:`cat1_structure_orbit_maps` (orbit-stabilizer transport), one level
    at a time: each structure first reached as sigma(x) takes the partners
    of x, moved by sigma, in one gather per level.
    """
    E = _endomorphism_maps(G)[0]
    tails, heads = _cat1_pairs(G)
    k = len(tails)
    T, H = E[tails], E[heads]
    gens = list(G.generators)
    Tg, Hg = T[:, gens], H[:, gens]
    sigmas = cat1_structure_orbit_maps(G)
    level = cat1_isomorphism_classes(G).leaders
    partners = []
    for t, h in zip(T[level], H[level]):
        # row j compares (representative) o (structure j) with the reverse
        tg, hg = t[gens], h[gens]
        partners.append(np.flatnonzero(
            (t[Tg] == T[:, tg]).all(axis=1) & (h[Hg] == H[:, hg]).all(axis=1)
            & (t[Hg] == H[:, tg]).all(axis=1) & (h[Tg] == T[:, hg]).all(axis=1)))
    deg = np.array([len(p) for p in partners])
    I, J = [np.repeat(level, deg)], [np.concatenate(partners)]
    seen = np.zeros(k, dtype=bool)
    seen[level] = True
    while level.size:
        img, first = np.unique(sigmas[:, level], return_index=True)
        fresh = ~seen[img]
        level, (via, src) = img[fresh], np.divmod(first[fresh], len(level))
        seen[level] = True
        # the partner lists of the sources, back to back, then moved along
        starts = (np.cumsum(deg) - deg)[src]
        deg = deg[src]
        back = J[-1][np.repeat(starts - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())]
        I.append(np.repeat(level, deg))
        J.append(sigmas[np.repeat(via, deg), back])
    i, j = np.concatenate(I), np.concatenate(J)
    return np.sort((i * k + j)[i <= j])


def _cat1_positions(G: GroupTable, positions) -> tuple[np.ndarray, np.ndarray]:
    """The cat1 positions (i, j) of the cat2 structures at ``positions`` (a
    numpy index) of the enumeration, decoded from their pair codes."""
    return np.divmod(_cat2_codes(G)[positions], len(_cat1_pairs(G)[0]))


def cat2_pair_indices(G: GroupTable) -> list[tuple[int, int]]:
    """Index pairs (i <= j) of commuting cat1 structures, canonical order:
    the pair codes of :func:`_cat2_codes`, decoded."""
    return list(zip(*(a.tolist() for a in _cat1_positions(G, slice(None)))))


def _cat2_structures(G: GroupTable, positions) -> list[Cat2Group]:
    """The cat2 structures at ``positions`` of the enumeration, built from
    only the cat1 structures that they pair."""
    i, j = _cat1_positions(G, positions)
    used = np.zeros(len(_cat1_pairs(G)[0]), dtype=bool)
    used[i] = True
    used[j] = True
    cat1s = _cat1_structures(G, np.flatnonzero(used))
    rank = np.cumsum(used) - 1  # the index into cat1s of each used position
    return [Cat2Group(cat1s[a], cat1s[b])
            for a, b in zip(rank[i].tolist(), rank[j].tolist())]


def all_cat2_groups(G: GroupTable) -> list[Cat2Group]:
    """All unordered pairs {C1, C2} of cat1 structures passing commutation."""
    require_dense(G)
    return _cat2_structures(G, slice(None))


# -- classification ------------------------------------------------------------


@_memo
def cat2_isomorphism_classes(G: GroupTable) -> Classification:
    """Orbits of Aut(G) x orientation-swap on the cat2 enumeration; memoized.

    Stored pairs are already swap-canonical, so each generator of Aut(G)
    maps the sorted pair codes i*k + j to the codes of the conjugated and
    re-sorted pairs; :func:`_code_positions` turns them into a permutation
    of positions, and :func:`_orbit_labels` labels each position by the
    least position of its class.
    """
    require_dense(G)
    codes = _cat2_codes(G)
    k = len(_cat1_pairs(G)[0])
    I, J = np.divmod(codes, k)
    perms = []
    for sigma in cat1_structure_orbit_maps(G):
        a, b = sigma[I], sigma[J]
        perms.append(_code_positions(
            codes, np.minimum(a, b) * k + np.maximum(a, b),
            "Aut(G) moved a cat2 structure outside the enumeration"))
    return Classification(G, _orbit_labels(len(codes), perms), _cat2_structures)


def non_cat1_diagonal_count(G: GroupTable) -> int:
    """Number of cat2 isomorphism classes whose diagonal is not a cat1-group.

    One array pass over the class leaders: their tail and head rows
    are gathered from the idempotent array by pair code, giving t = t1 o t2
    and h = h1 o h2 for all of them at once.  Every diagonal must be a
    pre-cat1 structure (t o h = h and h o t = t), or :class:`GroupError`
    names the first failing representative.  The diagonal fails [ker t, ker h] = 1 exactly when
    ker t x ker h meets the non-commuting mask NC, counted by the diagonal
    of ``ker_t @ NC @ ker_h.T`` (exact in float32).  The single-structure
    form is :func:`diagonal_pre_cat1`.
    """
    E = _endomorphism_maps(G)[0]
    tails, heads = _cat1_pairs(G)
    i, j = _cat1_positions(G, cat2_isomorphism_classes(G).leaders)
    rows = np.arange(len(i))[:, None]
    t = E[tails[i][:, None], E[tails[j]]]  # t1(t2(x)) at column x
    h = E[heads[i][:, None], E[heads[j]]]
    wrong = np.stack((t[rows, h] != h, h[rows, t] != t), axis=1)
    if wrong.any():
        r, line, x = np.argwhere(wrong)[0].tolist()  # first class, line, element
        raise GroupError(f"pre-cat1 axiom violated on the diagonal of cat2 class {r + 1}: "
                         f"{('t o h = h', 'h o t = t')[line]} fails with witness ({x},)")
    ker_t, ker_h = ((m == 0).astype(np.float32) for m in (t, h))
    return int(np.count_nonzero((ker_t @ _noncommuting_mask(G) * ker_h).any(axis=1)))


# -- morphisms -----------------------------------------------------------------


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
    _require(_map_lines([("gamma", gamma)]), "not a cat2 morphism")
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
    for mapping in _iter_isomorphism_maps(A.group, B.group):
        for swapped in (False, True):
            tgt = (B.c2, B.c1) if swapped else (B.c1, B.c2)
            if _cat2_intertwines(mapping, A, *tgt):
                gamma = Homomorphism(A.group, B.group, mapping)
                return cat2_morphism(A, B, gamma, swapped)
    return None


# -- cat^n ---------------------------------------------------------------------


@dataclass(frozen=True)
class CatNGroup:
    """A group with n pairwise-independent cat1 structures, stored alone."""

    structures: tuple[Cat1Group, ...]

    def __post_init__(self) -> None:
        if not self.structures:
            raise GroupError("a cat^n-group needs at least one structure")
        if any(c.group is not self.group for c in self.structures):
            raise GroupError("all structures must live on the same group")

    @property
    def group(self) -> GroupTable:
        return self.structures[0].group

    @property
    def higher_dimension(self) -> int:
        return len(self.structures) + 1

    def face(self, i: int, j: int) -> Cat2Group:
        """The cat2-group on structures i and j (1-based)."""
        return cat2_group(self.structures[i - 1], self.structures[j - 1])

    def front(self) -> Cat2Group:
        return self.face(1, 2)


def catn_group(structures: Sequence[Cat1Group]) -> CatNGroup:
    C = CatNGroup(tuple(structures))
    # swapping the structures permutes the four identities: test i < j only
    for i, a in enumerate(C.structures):
        for j, b in enumerate(C.structures[i + 1:], i + 1):
            _require((_commutation_check(a, b),),
                     f"structures {i + 1} and {j + 1} do not commute")
    return C
