"""Exact arithmetic for small finite groups on dense element indices.

Every group lives on indices ``0..order-1`` with ``0`` the identity.  Small
groups are *dense* (a materialized multiplication table); products above
:data:`DENSE_CAP` stay *structural* and multiply pairs on the fly, a choice
made in one place, :func:`semidirect_product`.  The composition convention
is ``(f o g)(x) = f(g(x))`` everywhere, and the product of two permutations
is their composition as functions.

Every homomorphism search extends generator images through one numpy
kernel, :func:`_hom_blocks`, which checks a block of image tuples at a time
against every edge of the right Cayley graph, in int16 for every target of
order up to 181.  The tables of permutation groups and of dense products
are filled along a spanning tree of the same graph (:func:`_spanning_tree`).
Every checked table passes Light's test, and its stated generators must
generate it.

One rule holds in every module: values and dataclasses check shapes, and
reports and certifying factories check axioms.  :class:`Homomorphism` and
:class:`GroupAction` check lengths, permutations and the identity; their
properties are the report lines :func:`catsq.xmod.is_homomorphism` and
:func:`catsq.xmod.is_action`.

Every per-group stage in the package is memoized on its group by one
decorator, :func:`_memo`, as GAP stores an attribute: a stored array is
read-only, and object lists are built from the arrays on each call.

Aut(G) acts through one lookup, :func:`_code_positions`, which finds moved
codes or rows among sorted ones and checks that they are a permutation of
them, and one orbit routine, :func:`_orbit_labels`; the generator closure
and the cat1 and cat2 classifiers share them.  The closure codes each
automorphism by its index in the End(G) enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

DENSE_CAP = 2000

Perm = tuple  # permutation as an image tuple


class GroupError(ValueError):
    """Malformed group-theoretic data."""


class TooLargeError(GroupError):
    """A construction exceeded the configured materialization cap."""


def _memo(fn):
    """Memoize ``fn`` in the ``_cache`` of its first argument, a group.

    The key is ``fn.__name__``, or ``(fn.__name__, *rest)`` when there are
    further arguments.  The stored value is shared, so an ndarray, alone or
    directly inside a returned tuple, is made read-only once; no stage
    returns a list.
    """
    name, missing = fn.__name__, object()

    @functools.wraps(fn)
    def memoized(G, *rest):
        key = (name, *rest) if rest else name
        value = G._cache.get(key, missing)
        if value is missing:
            value = G._cache[key] = fn(G, *rest)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        return value
    return memoized


# ---------------------------------------------------------------------------
# permutations


def perm_from_cycles(cycles: Sequence[Sequence[int]]) -> Perm:
    """Expand 1-based disjoint cycles into a 0-based image tuple."""
    top = 0
    for cyc in cycles:
        for pt in cyc:
            if pt < 1:
                raise GroupError(f"cycle point {pt} is not a positive integer")
            top = max(top, pt)
    images, seen = list(range(top)), set()
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise GroupError(f"cycle {cyc} repeats a point")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in seen:
                raise GroupError(f"cycles are not disjoint at point {a}")
            seen.add(a)
            images[a - 1] = b - 1
    return tuple(images)


def cycles_of_perm(perm: Perm) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`perm_from_cycles` (1-based, fixed points dropped)."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = perm[x]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def _pcompose(p: Perm, q: Perm) -> Perm:
    # (p o q)(i) = p(q(i))
    return tuple(p[i] for i in q)


# ---------------------------------------------------------------------------
# group tables


class GroupTable:
    """A finite group on indices 0..order-1 with identity at index 0."""

    order: int
    label: str
    generators: tuple[int, ...]

    def __init__(self) -> None:
        self._cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    @property
    def realization(self) -> str:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, x: int) -> int:
        return self.mul(g, self.mul(x, self.inv(g)))

    def comm(self, a: int, b: int) -> int:
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def element_order(self, x: int) -> int:
        n = 1
        y = x
        while y != 0:
            y = self.mul(y, x)
            n += 1
        return n

    @_memo
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(x) for x in self.elements())

    @_memo
    def is_abelian(self) -> bool:
        gens = self.generators or tuple(self.elements())
        return all(self.mul(g, x) == self.mul(x, g) for g in gens for x in self.elements())

    @_memo
    def center(self) -> tuple[int, ...]:
        gens = self.generators or tuple(self.elements())
        return tuple(x for x in self.elements()
                     if all(self.mul(g, x) == self.mul(x, g) for g in gens))

    @_memo
    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariant: order stats, abelianness, centre size."""
        hist: dict[int, int] = {}
        for o in self.element_orders():
            hist[o] = hist.get(o, 0) + 1
        return (self.order, tuple(sorted(hist.items())), self.is_abelian(), len(self.center()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.label!r} order {self.order}>"


class DenseGroup(GroupTable):
    """Group with a fully materialized multiplication table."""

    def __init__(self, table: Sequence[Sequence[int]], label: str,
                 generators: Sequence[int] = (), check: bool = True) -> None:
        super().__init__()
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.label = label
        if check:
            _check_table(self.table)
            for g in generators:
                if not 0 <= g < self.order:
                    raise GroupError(f"generator {g} lies outside 0..{self.order - 1}")
        self.inv_table = tuple(row.index(0) for row in self.table)
        gens = tuple(dict.fromkeys(g for g in generators if g != 0))
        if not gens:
            gens = _greedy_generators(self.table)
        elif check:  # raises unless the generators reach every element
            _spanning_tree([[row[g] for g in gens] for row in self.table], label)
        self.generators = gens

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    @property
    def realization(self) -> str:
        return "dense"


def _check_table(table: tuple[tuple[int, ...], ...]) -> None:
    """Raise :class:`GroupError` unless ``table`` is a group with identity 0.

    Associativity is Light's test: (a b) c = a (b c) for every generator a
    of :func:`_greedy_generators` and all b, c.  The test is complete, since
    the left factors that pass it are closed under products and the greedy
    generators reach every element by products; it costs |gens| n^2 lookups.
    """
    n = len(table)
    if not n:
        raise GroupError("a group table needs at least the identity")
    rng = range(n)
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupError(f"row {i} has length {len(row)}, expected {n}")
        if any(v < 0 or v >= n for v in row):
            raise GroupError(f"row {i} has entries outside 0..{n - 1}")
    for x in rng:
        if table[0][x] != x or table[x][0] != x:
            raise GroupError(f"element 0 is not a two-sided identity at {x}")
    for row in table:
        if 0 not in row:
            raise GroupError("an element has no right inverse")
    for a in _greedy_generators(table):
        row_a = table[a]
        for b in rng:
            row_ab, row_b = table[row_a[b]], table[b]
            for c in rng:
                if row_ab[c] != row_a[row_b[c]]:
                    raise GroupError(f"associativity fails at ({a}, {b}, {c})")


def _greedy_generators(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(table)
    gens: list[int] = []
    known = {0}
    for x in range(1, n):
        if x in known:
            continue
        gens.append(x)
        frontier = [x]
        while frontier:
            nxt = []
            for a in frontier:
                if a not in known:
                    known.add(a)
                for g in gens:
                    for b in (table[a][g], table[g][a]):
                        if b not in known:
                            known.add(b)
                            nxt.append(b)
            frontier = nxt
        if len(known) == n:
            break
    return tuple(gens)


class SemidirectGroup(GroupTable):
    """Structural semidirect product S x| R on pair indices s * |R| + r."""

    def __init__(self, s_group: GroupTable, r_group: GroupTable,
                 action: "GroupAction", label: Optional[str] = None) -> None:
        super().__init__()
        if action.actor is not r_group or action.space is not s_group:
            raise GroupError("action must be of the range factor on the normal factor")
        self.s_group = s_group
        self.r_group = r_group
        self.action = action
        self._rn = r_group.order
        self.order = s_group.order * r_group.order
        self.label = label or f"({s_group.label} x| {r_group.label})"
        self.generators = tuple(s * self._rn for s in s_group.generators) + r_group.generators

    def mul(self, a: int, b: int) -> int:
        rn = self._rn
        s1, r1 = divmod(a, rn)
        s2, r2 = divmod(b, rn)
        return self.s_group.mul(s1, self.action.perms[r1][s2]) * rn + self.r_group.mul(r1, r2)

    def inv(self, a: int) -> int:
        s, r = divmod(a, self._rn)
        ri = self.r_group.inv(r)
        return self.s_group.inv(self.action.perms[r][s]) * self._rn + ri

    @property
    def realization(self) -> str:
        return "structural"


def as_dense(G: GroupTable) -> DenseGroup:
    """Materialize the multiplication table of ``G``, with the same indexing
    and generators.

    The table is filled by :func:`_table_from_right` from the n k products
    x * g of every element x by every generator g, so ``G.mul`` runs n k
    times, not n^2.  Raises :class:`GroupError` if the generators of ``G`` do
    not generate it, and :class:`TooLargeError` above :data:`DENSE_CAP`.
    """
    if isinstance(G, DenseGroup):
        return G
    if G.order > DENSE_CAP:
        raise TooLargeError(f"order {G.order} exceeds the dense cap {DENSE_CAP}")
    right = [[G.mul(x, g) for g in G.generators] for x in G.elements()]
    return DenseGroup(_table_from_right(right, G.label), G.label, G.generators, check=False)


def require_dense(G: GroupTable) -> DenseGroup:
    if not isinstance(G, DenseGroup):
        raise GroupError(f"operation needs a dense group, got {G.realization} "
                         f"of order {G.order}; call as_dense first")
    return G


# ---------------------------------------------------------------------------
# permutation group construction


def group_from_permutation_generators(gens: Sequence[Sequence[Sequence[int]]],
                                      label: str) -> DenseGroup:
    """Dense table of the group generated by permutations given as cycle lists.

    Elements are ordered identity first, then by breadth-first closure over
    generator products with a lexicographic tie-break on permutation images.
    The closure raises :class:`TooLargeError` once it passes
    :data:`DENSE_CAP` elements.  The table is filled by
    :func:`_table_from_right` from the products x * g of every element x by
    every generator g, so the build composes n k permutations after the
    closure, not n^2.  The table is then checked by Light's test
    (:func:`_check_table`).
    """
    degree = 1
    gen_perms = []
    for g in gens:
        p = perm_from_cycles(g)
        degree = max(degree, len(p))
        gen_perms.append(p)
    gen_perms = [p + tuple(range(len(p), degree)) for p in gen_perms]

    ident = tuple(range(degree))
    index = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        fresh = set()
        for x in frontier:
            for g in gen_perms:
                y = _pcompose(x, g)
                if y not in index and y not in fresh:
                    fresh.add(y)
        frontier = sorted(fresh)
        for y in frontier:
            index[y] = len(elems)
            elems.append(y)
        if len(elems) > DENSE_CAP:
            raise TooLargeError(
                f"closure of {label!r} is too large to materialize (cap {DENSE_CAP})")

    right = [[index[_pcompose(x, g)] for g in gen_perms] for x in elems]
    gen_idx = [index[p] for p in gen_perms]
    return DenseGroup(_table_from_right(right, label), label, gen_idx)


def _spanning_tree(right: Sequence[Sequence[int]], label: str) -> list[tuple[int, int, int]]:
    """Breadth-first spanning tree of a right Cayley graph, rooted at 0.

    ``right[x][e]`` is x * gens[e].  The tree lists each x != 0 after its
    parent as ``(x, parent, via)``, x = parent * gens[via].
    """
    visit, edge = [0], {0: (0, 0)}
    for x in visit:
        for e, y in enumerate(right[x]):
            if y not in edge:
                edge[y] = (x, e)
                visit.append(y)
    if len(visit) != len(right):
        raise GroupError(f"the generators of {label!r} reach only "
                         f"{len(visit)} of its {len(right)} elements")
    return [(y, *edge[y]) for y in visit[1:]]


def _table_from_right(right: Sequence[Sequence[int]], label: str) -> list[tuple[int, ...]]:
    """The multiplication table of a group from its products by generators.

    ``right[x][e]`` is x * gens[e] for generators ``gens`` of the group.  If
    y = parent * gens[e], then x * y = (x * parent) * gens[e], so column y is
    column ``parent`` pushed through ``right[.][e]``.  The columns are filled
    along :func:`_spanning_tree`, with n^2 list lookups and no multiplication.
    """
    by_gen = list(zip(*right))
    # every column starts as the identity's; the tree overwrites all but column 0
    cols: list = [range(len(right))] * len(right)
    for y, parent, via in _spanning_tree(right, label):
        step = by_gen[via]
        cols[y] = [step[x] for x in cols[parent]]
    return list(zip(*cols))


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True, slots=True)
class Subgroup:
    parent: GroupTable
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members or self.members[0] != 0:
            raise GroupError("a subgroup must contain the identity")
        if list(self.members) != sorted(set(self.members)):
            raise GroupError("subgroup members must be sorted and distinct")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Subgroup of {self.parent.label!r} order {self.order}>"


def subgroup_generated(G: GroupTable, seed: Iterable[int]) -> Subgroup:
    members = {0}
    seed = [s for s in seed]
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in seed:
                y = G.mul(x, s)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(G, tuple(sorted(members)))


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    if A.parent is not B.parent:
        raise GroupError("subgroup intersection needs a common parent")
    bs = set(B.members)
    return Subgroup(A.parent, tuple(m for m in A.members if m in bs))


def normality_witness(G: GroupTable, S: Subgroup) -> Optional[tuple[int, int]]:
    """Return a pair (g, s) with g s g^-1 outside S, or None if S is normal."""
    mem = set(S.members)
    gens = G.generators or tuple(G.elements())
    for g in gens:
        for s in S.members:
            if G.conj(g, s) not in mem:
                return (g, s)
    return None


@_memo
def _subgroup_group(G: GroupTable, members: tuple[int, ...]) -> tuple[DenseGroup, Mapping[int, int]]:
    """The group of ``members`` and the read-only position of each member in
    it, in member order: the one place that indexes a subgroup."""
    pos = {m: i for i, m in enumerate(members)}
    try:
        table = [[pos[G.mul(a, b)] for b in members] for a in members]
    except KeyError:
        raise GroupError("member set is not closed under multiplication") from None
    return DenseGroup(table, f"{G.label}|{len(members)}", check=False), MappingProxyType(pos)


def inclusion_hom(S: Subgroup) -> "Homomorphism":
    return Homomorphism(_subgroup_group(S.parent, S.members)[0], S.parent, S.members)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    """A map ``source -> target`` as its image tuple; the constructor checks
    the shape and that every image is an element of ``target``,
    :func:`catsq.xmod.is_homomorphism` the homomorphism property."""

    source: GroupTable
    target: GroupTable
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        m = self.mapping
        if len(m) != self.source.order:
            raise GroupError("mapping length must equal the source order")
        if m and m[0] != 0:
            raise GroupError("a homomorphism must send identity to identity")
        if m and not 0 <= min(m) <= max(m) < self.target.order:
            bad = next(v for v in m if not 0 <= v < self.target.order)
            raise GroupError(f"image {bad} lies outside 0..{self.target.order - 1}")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Hom {self.source.label!r}->{self.target.label!r} {list(self.mapping)}>"


def identity_hom(G: GroupTable) -> Homomorphism:
    return Homomorphism(G, G, tuple(G.elements()))


def compose(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    """(f o g)(x) = f(g(x)); g.target must be f.source.

    When ``f`` and ``g`` are homomorphisms, so is the result.
    """
    if g.target is not f.source:
        raise GroupError("composition needs g.target is f.source")
    return Homomorphism(g.source, f.target, tuple(f.mapping[v] for v in g.mapping))


def kernel_of(f: Homomorphism) -> Subgroup:
    return Subgroup(f.source, tuple(x for x in f.source.elements() if f.mapping[x] == 0))


def image_of(f: Homomorphism) -> Subgroup:
    return Subgroup(f.target, tuple(sorted(set(f.mapping))))


def restrict_hom(f: Homomorphism, sub: Subgroup, target_sub: Subgroup) -> Homomorphism:
    """Restrict ``f`` to a subgroup of its source, landing in a target subgroup.

    Raises unless ``f`` maps ``sub`` into ``target_sub``.  When ``f`` is a
    homomorphism, so is the result.
    """
    if sub.parent is not f.source or target_sub.parent is not f.target:
        raise GroupError("restriction subgroups must live in f's source/target")
    S = _subgroup_group(f.source, sub.members)[0]
    T, pos = _subgroup_group(f.target, target_sub.members)
    try:
        mapping = tuple(pos[f.mapping[m]] for m in sub.members)
    except KeyError:
        raise GroupError("f does not map the subgroup into the stated target") from None
    return Homomorphism(S, T, mapping)


# Generator-image tuples checked per numpy block by :func:`_hom_blocks`.
_BLOCK_ROWS = 1024


@_memo
def _cayley_tree(G: GroupTable) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple, ...]]:
    """Breadth-first spanning tree of the right Cayley graph of ``G``.

    Returns ``(tree, edges)``.  ``tree`` lists each ``x != 0`` after its
    parent as ``(x, parent, via)``, x = parent * gens[via].  ``edges[e]`` is
    ``(xs, xs * gens[e])``, where ``xs`` are the x whose edge (x, gens[e]) is
    not on the tree, as intp arrays.
    """
    right = [[G.mul(x, g) for g in G.generators] for x in G.elements()]
    tree = tuple(_spanning_tree(right, G.label))
    right = np.array(right, dtype=np.intp)
    off_tree = np.ones(right.shape, dtype=bool)
    for _, parent, via in tree:
        off_tree[parent, via] = False
    edges = tuple((xs, right[xs, e]) for e, xs in enumerate(map(np.flatnonzero, off_tree.T)))
    return tree, edges


@_memo
def _np_table(H: GroupTable) -> np.ndarray:
    """The multiplication table of a dense ``H`` as a read-only array, in the
    smallest signed dtype that holds the flat index |H|^2 - 1: int16 up to
    |H| = 181, which covers every catalog group, and intp above."""
    return np.array(require_dense(H).table, dtype=np.int16 if H.order ** 2 <= 2 ** 15 else np.intp)


def _hom_blocks(G: GroupTable, H: GroupTable,
                cands: Sequence[Sequence[int]]) -> Iterator[np.ndarray]:
    """The homomorphisms G -> H with generator images drawn from ``cands``.

    ``cands[e]`` lists the allowed images of ``G.generators[e]``.  Image
    tuples are taken in ``itertools.product`` order, ``_BLOCK_ROWS`` at a
    time, and each block yields the mapping arrays of its homomorphisms as
    rows, in that order.  A block is held as (order x rows), one map per
    column, so each step f(y) = f(parent) f(via) along :func:`_cayley_tree`
    writes one contiguous row.  The tree edges hold by construction; a map
    is kept only if every other right Cayley edge (x, g) has
    ``f(x g) = f(x) f(g)``.  The candidates, images and blocks take the
    dtype of :func:`_np_table`, which holds every flat index a * |H| + b,
    so the blocks of a catalog group are int16 and the yielded rows too.
    The gathers call ``take``, which converts int16 indices at a smaller
    fixed cost per call than ``T[...]`` does.
    """
    tree, edges = _cayley_tree(G)
    T = _np_table(H).ravel()  # read flat: H[a, b] = T[a * |H| + b]
    cands = [np.asarray(c, dtype=T.dtype) for c in cands]
    total = math.prod(len(c) for c in cands)
    for start in range(0, total, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, total - start)
        # mixed-radix digits of start + 0..rows-1, the last generator fastest
        images = np.empty((len(cands), rows), dtype=T.dtype)
        carry, rest = np.arange(rows), start
        for e in reversed(range(len(cands))):
            rest, low = divmod(rest, len(cands[e]))
            carry, digit = np.divmod(carry + low, len(cands[e]))
            images[e] = cands[e][digit]
        M = np.zeros((G.order, rows), dtype=T.dtype)
        for y, parent, via in tree:
            M[y] = T.take(M[parent] * H.order + images[via])
        ok = np.ones(rows, dtype=bool)
        for e, (xs, ys) in enumerate(edges):
            ok &= (M[ys] == T.take(M[xs] * H.order + images[e])).all(axis=0)
        yield M[:, ok].T


def _order_candidates(G: GroupTable, H: GroupTable, fits) -> list[list[int]]:
    # per generator g, the h in H with fits(order of g, order of h)
    g_orders, h_orders = G.element_orders(), H.element_orders()
    return [[h for h, oh in enumerate(h_orders) if fits(g_orders[g], oh)]
            for g in G.generators]


def _hom_candidates(G: GroupTable, H: GroupTable) -> list[list[int]]:
    """Per generator g of G, the h in H whose order divides that of g: the
    candidates of the End(G) pass and of the codes of the Aut(G) closure."""
    return _order_candidates(G, H, lambda og, oh: og % oh == 0)


@_memo
def _endomorphism_maps(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """One End(G) pass: (idempotent maps, bijective maps), read-only int32
    arrays with one map per row, in lexicographic order.

    Each block of :func:`_hom_blocks` is filtered as it comes, so End(G) is
    never held whole; an endomorphism is bijective exactly when its kernel
    is trivial.  The identity map is in both.  Homomorphisms that agree on
    the generators are equal (:func:`_cayley_tree` has proved that
    ``G.generators`` generate G), so rows are sorted on the columns
    ``0..max(G.generators)`` only (column 0 alone for the trivial group),
    and M o M = M (both sides are endomorphisms) on the generator columns.
    """
    gens = list(G.generators)
    idempotent, bijective = [], []
    for M in _hom_blocks(G, G, _hom_candidates(G, G)):
        Mg = M[:, gens]
        idempotent.append(M[(np.take_along_axis(M, Mg, axis=1) == Mg).all(axis=1)])
        bijective.append(M[(M == 0).sum(axis=1) == 1])
    return tuple(A[np.lexsort(A[:, max(G.generators, default=0)::-1].T)]
                 for A in (np.concatenate(b, dtype=np.int32) for b in (idempotent, bijective)))


def idempotent_endomorphisms(G: GroupTable) -> list[Homomorphism]:
    """All f: G -> G with f o f = f, in canonical (lexicographic) order, from
    the idempotent array of :func:`_endomorphism_maps`.

    Every row of the End(G) pass respects each right Cayley edge: the tree
    edges of :func:`_cayley_tree` by construction, the others by the check
    of :func:`_hom_blocks`.
    """
    require_dense(G)
    return [Homomorphism(G, G, m) for m in _endomorphism_maps(G)[0].tolist()]


def automorphism_group(G: GroupTable) -> list[Homomorphism]:
    """All bijective endomorphisms, lexicographic on mapping arrays, from
    the automorphism array as in :func:`idempotent_endomorphisms`."""
    require_dense(G)
    return [Homomorphism(G, G, m) for m in _endomorphism_maps(G)[1].tolist()]


def _code_positions(codes: np.ndarray, moved: np.ndarray, what: str) -> np.ndarray:
    """The positions of ``moved`` in the sorted, distinct ``codes``: integers
    found by one argsort, or rows in lexicographic order found by one
    lexsort.  Raises :class:`GroupError` with the message ``what`` unless
    ``moved`` is a permutation of ``codes``, compared in full."""
    order = np.argsort(moved) if moved.ndim == 1 else np.lexsort(moved.T[::-1])
    if not np.array_equal(moved[order], codes):
        raise GroupError(what)
    pos = np.empty(len(codes), dtype=np.intp)
    pos[order] = np.arange(len(codes))
    return pos


def _orbit_labels(n: int, perms) -> np.ndarray:
    """The least member of each orbit of ``perms`` on 0..n-1, per member.

    Each position takes the least label of itself and its images p[x], and
    pointer jumping (label[label]) shortens the chains, until a full round
    changes nothing.  A label is always a member of its position's orbit and
    only decreases; at the fixed point it cannot drop along any cycle of any
    p, so it is constant on every orbit: the orbit's least member.
    """
    label = np.arange(n)
    while True:
        old = label
        for p in perms:
            label = np.minimum(label, label[p])
        label = label[label]
        if np.array_equal(label, old):
            break
    label.flags.writeable = False
    return label


@_memo
def automorphism_generators(G: GroupTable) -> np.ndarray:
    """A small generating subset of the automorphism group (greedy closure),
    as read-only rows of the automorphism array of :func:`_endomorphism_maps`.

    Walking the automorphisms in canonical order, each one outside the
    subgroup generated so far becomes a generator.  An automorphism is known
    by its generator images, and (g o x)(gen) = g(x(gen)), so the closure
    codes each one by its index in the End(G) enumeration: the mixed radix
    of its generator images' positions in the :func:`_hom_candidates`, the
    last generator fastest, as :func:`_hom_blocks` counts.  A code is below
    the number of tuples that pass enumerated, so int64 holds it, and an
    image outside its candidates makes the whole code negative.  The codes
    are sorted once, :func:`_code_positions` finds each new generator's
    left products among them, and the subgroup is the :func:`_orbit_labels`
    orbit of the identity.
    """
    require_dense(G)
    A = _endomorphism_maps(G)[1]
    cands = _hom_candidates(G, G)
    total = math.prod(map(len, cands))
    # weight[e |G| + x]: the position of x among the candidates of generator
    # e times the radix of e, or -total for an x outside them
    weight, radix = [], total
    for c in cands:
        radix //= len(c)
        row = [-total] * G.order
        for i, x in enumerate(c):
            row[x] = i * radix
        weight += row
    weight = np.array(weight, dtype=np.int64)
    # at[x, e] = e |G| + x(gen e), so weight[at] holds the digits of x
    at = A[:, G.generators] + np.arange(0, len(cands) * G.order, G.order)
    left = "composing automorphisms left Aut(G)"
    codes = weight[at].sum(axis=1)
    if codes.min() < 0:
        raise GroupError(left)
    weight = weight.reshape(len(cands), G.order)
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    gens, perms = [], []  # positions, and x -> position of (gen o x)
    known = np.arange(len(A)) == 0  # the identity sorts first
    while not known.all():
        a = int(np.argmin(known))
        gens.append(a)
        after_a = weight[:, A[a]].ravel()[at].sum(axis=1)  # the codes of a o x
        perms.append(by_code[_code_positions(sorted_codes, after_a, left)])
        known = _orbit_labels(len(A), perms) == 0
    return A[gens]


# ---------------------------------------------------------------------------
# actions and products


@dataclass(frozen=True)
class GroupAction:
    """A left action of ``actor`` on ``space`` by automorphisms, one
    permutation per actor element; the constructor checks the shape,
    :func:`catsq.xmod.is_action` the action."""

    actor: GroupTable
    space: GroupTable
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))
        P, S = self.actor, self.space
        if len(self.perms) != P.order:
            raise GroupError("need one permutation per actor element")
        ident = tuple(S.elements())
        if self.perms[0] != ident:
            raise GroupError("the identity must act trivially")
        points = set(ident)
        for p in self.perms:
            if len(p) != S.order or set(p) != points:
                extra, missing = set(p) - points, points - set(p)
                what = (f"has length {len(p)}, not {S.order}" if len(p) != S.order
                        else f"has {min(extra)}" if extra else f"misses {min(missing)}")
                raise GroupError("actor images must be permutations of the space: "
                                 f"row {self.perms.index(p)} {what}")


def action_by_hom(f: Homomorphism, base: GroupAction) -> GroupAction:
    """Pull a ``base`` action back along ``f`` into ``f.source``.

    The result is an action when ``f`` passes
    :func:`catsq.xmod.is_homomorphism` and ``base`` passes
    :func:`catsq.xmod.is_action`.
    """
    if f.target is not base.actor:
        raise GroupError("hom target must be the base action's actor")
    return GroupAction(f.source, base.space, tuple(base.perms[v] for v in f.mapping))


def conjugation_action(G: GroupTable, S: Subgroup) -> GroupAction:
    """G acting by conjugation on a normal subgroup, as a standalone group;
    memoized on G by the members of S."""
    if S.parent is not G:
        raise GroupError("the subgroup must live in the acting group")
    return _conjugation_action(G, S.members)


@_memo
def _conjugation_action(G: GroupTable, members: tuple[int, ...]) -> GroupAction:
    bad = normality_witness(G, Subgroup(G, members))
    if bad is not None:
        raise GroupError(
            f"subgroup is not normal: conjugating {bad[1]} by {bad[0]} leaves it")
    H, pos = _subgroup_group(G, members)
    perms = tuple(tuple(pos[G.conj(g, m)] for m in members) for g in G.elements())
    return GroupAction(G, H, perms)


def sub_conjugation_action(G: GroupTable, A: Subgroup, S: Subgroup) -> GroupAction:
    """Subgroup ``A`` of ``G`` conjugating a subgroup ``S`` it normalizes;
    memoized on G by the members of A and S."""
    if A.parent is not G or S.parent is not G:
        raise GroupError("both subgroups must live in G")
    return _sub_conjugation_action(G, A.members, S.members)


@_memo
def _sub_conjugation_action(G: GroupTable, amem: tuple[int, ...],
                            smem: tuple[int, ...]) -> GroupAction:
    Agrp = _subgroup_group(G, amem)[0]
    Sgrp, pos = _subgroup_group(G, smem)
    try:
        perms = tuple(tuple(pos[G.conj(a, m)] for m in smem) for a in amem)
    except KeyError:
        raise GroupError("the first subgroup does not normalize the second") from None
    return GroupAction(Agrp, Sgrp, perms)


def semidirect_product(S: GroupTable, R: GroupTable, act: GroupAction,
                       label: Optional[str] = None) -> GroupTable:
    """S x| R with (s1,r1)(s2,r2) = (s1 * (r1 |> s2), r1 r2), on the pair
    indices s * |R| + r, generated by the generators of S, then of R.

    This is the one place where a product picks its realization: up to
    :data:`DENSE_CAP` the result is dense (:func:`as_dense` of the
    :class:`SemidirectGroup`), above it the structural group itself.  The
    result is a group only when ``act`` passes :func:`catsq.xmod.is_action`.
    """
    G = SemidirectGroup(S, R, act, label)
    return as_dense(G) if G.order <= DENSE_CAP else G


# ---------------------------------------------------------------------------
# isomorphism


def _iter_isomorphism_maps(G: GroupTable, H: GroupTable) -> Iterator[tuple[int, ...]]:
    """Bijective homomorphisms G -> H, lazily, in generator-image product order."""
    if G.order != H.order or G.fingerprint() != H.fingerprint():
        return
    for M in _hom_blocks(G, H, _order_candidates(G, H, lambda og, oh: og == oh)):
        for row in M[(M == 0).sum(axis=1) == 1].tolist():
            yield tuple(row)


def isomorphism_between(G: GroupTable, H: GroupTable) -> Optional[Homomorphism]:
    """A bijective homomorphism G -> H, or None; deterministic choice."""
    require_dense(G), require_dense(H)
    for mapping in _iter_isomorphism_maps(G, H):
        return Homomorphism(G, H, mapping)
    return None

