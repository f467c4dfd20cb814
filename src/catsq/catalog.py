"""Built-in catalog of the 92 isomorphism types of groups of order at most 30.

Entries are keyed ``(order, gid)`` and specified by explicit permutation
generators.  The assembly follows standard constructions (cyclic, dihedral,
dicyclic, abelian products, affine semidirect products, matrix actions); the
idempotent-endomorphism count of every entry doubles as a fingerprint that
pins down the numbering where structure descriptions alone are ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groups import (
    DenseGroup,
    GroupError,
    GroupTable,
    cycles_of_perm,
    group_from_permutation_generators,
    isomorphism_between,
    require_dense,
)


class CatalogKeyError(KeyError, GroupError):
    """Unknown (order, gid) catalog key; a GroupError like other bad input."""

    def __str__(self) -> str:
        return self.args[0] if self.args else "unknown catalog key"


@dataclass(frozen=True)
class CatalogEntry:
    order: int
    gid: int
    name: str
    generators: tuple


# -- generator recipes -------------------------------------------------------


def _cycle(n: int):
    return (tuple(range(1, n + 1)),)


def _refl(n: int):
    return tuple((i, n + 2 - i) for i in range(2, n // 2 + 2) if i < n + 2 - i)


def _dih(n: int):
    return [_cycle(n), _refl(n)]


def _perm_cycles(images: Sequence[int]):
    return cycles_of_perm(tuple(images))


def _dic(n: int):
    """Dicyclic group of order 4n on the points a^i (1..2n), a^i b (2n+1..4n)."""
    two_n = 2 * n
    a = (tuple(range(1, two_n + 1)), tuple(range(two_n + 1, 4 * n + 1)))
    images = list(range(4 * n))
    for i in range(two_n):
        images[i] = two_n + ((-i) % two_n)
        images[two_n + i] = (n - i) % two_n
    return [a, _perm_cycles(images)]


def _aff(m: int, u: int):
    """Multiplication by the unit u on Z_m (point m plays the role of 0)."""
    images = [0] * m
    for v in range(1, m + 1):
        w = (u * v) % m or m
        images[v - 1] = w - 1
    return _perm_cycles(images)


def _mat_perm(a: int, b: int, c: int, d: int, p: int):
    """Action of a GL(2,p) matrix on the nonzero vectors of GF(p)^2."""
    vecs = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    pos = {v: i for i, v in enumerate(vecs)}
    images = [pos[((a * x + b * y) % p, (c * x + d * y) % p)] for x, y in vecs]
    return _perm_cycles(images)


def _heis_perm(kind: str):
    """Affine maps on GF(3)^2 generating the exponent-3 group of order 27."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    pos = {v: i for i, v in enumerate(pts)}
    if kind == "x":
        images = [pos[((x + 1) % 3, y)] for x, y in pts]
    else:
        images = [pos[(x, (y + x) % 3)] for x, y in pts]
    return _perm_cycles(images)


def _gendih9(kind: str):
    """C3 x C3 (translations of GF(3)^2) extended by the inversion."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    pos = {v: i for i, v in enumerate(pts)}
    if kind == "x":
        images = [pos[((x + 1) % 3, y)] for x, y in pts]
    elif kind == "y":
        images = [pos[(x, (y + 1) % 3)] for x, y in pts]
    else:
        images = [pos[((-x) % 3, (-y) % 3)] for x, y in pts]
    return _perm_cycles(images)


def _shifted(gens, off: int):
    return [tuple(tuple(pt + off for pt in cyc) for cyc in g) for g in gens]


def _product(*factors):
    gens = []
    off = 0
    for f in factors:
        degree, f_gens = f
        gens.extend(_shifted(f_gens, off))
        off += degree
    return gens


def _fcyc(n):
    return (n, [_cycle(n)])


def _fdih(n):
    return (n, _dih(n))


_Q8 = _dic(2)
_A4 = [[(1, 2, 3)], [(1, 2), (3, 4)]]
_S4 = [[(1, 2, 3, 4)], [(1, 2)]]

# 16/13 is the central product D8 o C4 = Q8 o C4 (regular representation,
# computed once from the quotient of Q8 x C4 by the diagonal central C2).
_G16_13 = [
    [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16)],
    [(1, 5, 3, 7), (2, 6, 4, 8), (9, 13, 11, 15), (10, 14, 12, 16)],
    [(1, 9, 3, 11), (2, 10, 4, 12), (5, 15, 7, 13), (6, 16, 8, 14)],
]

_RAW: list[tuple[int, int, str, list]] = [
    (1, 1, "I", []),
    (2, 1, "C2", [_cycle(2)]),
    (3, 1, "C3", [_cycle(3)]),
    (4, 1, "C4", [_cycle(4)]),
    (4, 2, "K4", _product(_fcyc(2), _fcyc(2))),
    (5, 1, "C5", [_cycle(5)]),
    (6, 1, "S3", _dih(3)),
    (6, 2, "C6", [_cycle(6)]),
    (7, 1, "C7", [_cycle(7)]),
    (8, 1, "C8", [_cycle(8)]),
    (8, 2, "C4 x C2", _product(_fcyc(4), _fcyc(2))),
    (8, 3, "D8", _dih(4)),
    (8, 4, "Q8", _Q8),
    (8, 5, "C2 x C2 x C2", _product(_fcyc(2), _fcyc(2), _fcyc(2))),
    (9, 1, "C9", [_cycle(9)]),
    (9, 2, "C3 x C3", _product(_fcyc(3), _fcyc(3))),
    (10, 1, "D10", _dih(5)),
    (10, 2, "C10", [_cycle(10)]),
    (11, 1, "C11", [_cycle(11)]),
    (12, 1, "C3 : C4", _dic(3)),
    (12, 2, "C12", [_cycle(12)]),
    (12, 3, "A4", _A4),
    (12, 4, "D12", _dih(6)),
    (12, 5, "C6 x C2", _product(_fcyc(6), _fcyc(2))),
    (13, 1, "C13", [_cycle(13)]),
    (14, 1, "D14", _dih(7)),
    (14, 2, "C14", [_cycle(14)]),
    (15, 1, "C15", [_cycle(15)]),
    (16, 1, "C16", [_cycle(16)]),
    (16, 2, "C4 x C4", _product(_fcyc(4), _fcyc(4))),
    (16, 3, "(C4 x C2) : C2",
     [[(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 5), (2, 6), (3, 7), (4, 8)], [(2, 6), (4, 8)]]),
    (16, 4, "C4 : C4", [[(1, 2, 3, 4)], [(5, 6, 7, 8), (2, 4)]]),
    (16, 5, "C8 x C2", _product(_fcyc(8), _fcyc(2))),
    (16, 6, "C8 : C2", [_cycle(8), _aff(8, 5)]),
    (16, 7, "D16", _dih(8)),
    (16, 8, "QD16", [_cycle(8), _aff(8, 3)]),
    (16, 9, "Q16", _dic(4)),
    (16, 10, "C4 x K4", _product(_fcyc(4), _fcyc(2), _fcyc(2))),
    (16, 11, "C2 x D8", _product(_fdih(4), _fcyc(2))),
    (16, 12, "C2 x Q8", _product((8, _Q8), _fcyc(2))),
    (16, 13, "(C4 x C2) : C2", _G16_13),
    (16, 14, "K4 x K4", _product(_fcyc(2), _fcyc(2), _fcyc(2), _fcyc(2))),
    (17, 1, "C17", [_cycle(17)]),
    (18, 1, "D18", _dih(9)),
    (18, 2, "C18", [_cycle(18)]),
    (18, 3, "C3 x S3", _product(_fcyc(3), _fdih(3))),
    (18, 4, "(C3 x C3) : C2", [_gendih9("x"), _gendih9("y"), _gendih9("inv")]),
    (18, 5, "C6 x C3", _product(_fcyc(6), _fcyc(3))),
    (19, 1, "C19", [_cycle(19)]),
    (20, 1, "Q20", _dic(5)),
    (20, 2, "C20", [_cycle(20)]),
    (20, 3, "C5 : C4", [_cycle(5), _aff(5, 2)]),
    (20, 4, "D20", _dih(10)),
    (20, 5, "C5 x K4", _product(_fcyc(10), _fcyc(2))),
    (21, 1, "C7 : C3", [_cycle(7), _aff(7, 2)]),
    (21, 2, "C21", [_cycle(21)]),
    (22, 1, "D22", _dih(11)),
    (22, 2, "C22", [_cycle(22)]),
    (23, 1, "C23", [_cycle(23)]),
    (24, 1, "C3 : C8", [[(1, 2, 3)], [(4, 5, 6, 7, 8, 9, 10, 11), (2, 3)]]),
    (24, 2, "C24", [_cycle(24)]),
    (24, 3, "SL(2,3)", [_mat_perm(1, 1, 0, 1, 3), _mat_perm(0, 2, 1, 0, 3)]),
    (24, 4, "Q24", _dic(6)),
    (24, 5, "S3 x C4", _product(_fdih(3), _fcyc(4))),
    (24, 6, "D24", _dih(12)),
    (24, 7, "Q12 x C2", _product((12, _dic(3)), _fcyc(2))),
    (24, 8, "C3 : D8", [[(1, 2, 3)], [(4, 5, 6, 7), (2, 3)], [(4, 6)]]),
    (24, 9, "C12 x C2", _product(_fcyc(12), _fcyc(2))),
    (24, 10, "D8 x C3", _product(_fdih(4), _fcyc(3))),
    (24, 11, "Q8 x C3", _product((8, _Q8), _fcyc(3))),
    (24, 12, "S4", _S4),
    (24, 13, "A4 x C2", _product((4, _A4), _fcyc(2))),
    (24, 14, "S3 x K4", _product(_fdih(3), _fcyc(2), _fcyc(2))),
    (24, 15, "C6 x K4", _product(_fcyc(6), _fcyc(2), _fcyc(2))),
    (25, 1, "C25", [_cycle(25)]),
    (25, 2, "C5 x C5", _product(_fcyc(5), _fcyc(5))),
    (26, 1, "D26", _dih(13)),
    (26, 2, "C26", [_cycle(26)]),
    (27, 1, "C27", [_cycle(27)]),
    (27, 2, "C9 x C3", _product(_fcyc(9), _fcyc(3))),
    (27, 3, "(C3 x C3) : C3", [_heis_perm("x"), _heis_perm("shear")]),
    (27, 4, "C9 : C3", [_cycle(9), _aff(9, 4)]),
    (27, 5, "C3 x C3 x C3", _product(_fcyc(3), _fcyc(3), _fcyc(3))),
    (28, 1, "Q28", _dic(7)),
    (28, 2, "C28", [_cycle(28)]),
    (28, 3, "D28", _dih(14)),
    (28, 4, "C7 x K4", _product(_fcyc(14), _fcyc(2))),
    (29, 1, "C29", [_cycle(29)]),
    (30, 1, "S3 x C5", _product(_fdih(3), _fcyc(5))),
    (30, 2, "D10 x C3", _product(_fdih(5), _fcyc(3))),
    (30, 3, "D30", _dih(15)),
    (30, 4, "C30", [_cycle(30)]),
]

_ENTRIES: dict[tuple[int, int], CatalogEntry] = {}
for _o, _i, _name, _gens in _RAW:
    _ENTRIES[(_o, _i)] = CatalogEntry(
        _o, _i, _name, tuple(tuple(tuple(c) for c in g) for g in _gens))

_built: dict[tuple[int, int], DenseGroup] = {}


def catalog_keys() -> list[tuple[int, int]]:
    return sorted(_ENTRIES)


def catalog_entry(order: int, gid: int) -> CatalogEntry:
    try:
        return _ENTRIES[(order, gid)]
    except KeyError:
        valid = [i for (o, i) in _ENTRIES if o == order]
        if valid:
            raise CatalogKeyError(
                f"no group ({order},{gid}); valid ids for order {order}: {sorted(valid)}"
            ) from None
        raise CatalogKeyError(f"no catalog groups of order {order} (range is 1..30)") from None


def groups_of_order(order: int) -> list[CatalogEntry]:
    if not 1 <= order <= 30:
        raise CatalogKeyError(f"order {order} outside the catalog range 1..30")
    return [_ENTRIES[k] for k in sorted(_ENTRIES) if k[0] == order]


def small_group(order: int, gid: int) -> DenseGroup:
    """The dense catalog group for the key (order, gid); cached."""
    key = (order, gid)
    if key not in _built:
        e = catalog_entry(order, gid)
        G = group_from_permutation_generators(e.generators, e.name)
        if G.order != order:
            raise GroupError(
                f"catalog data bug: ({order},{gid}) generated order {G.order}")
        _built[key] = G
    return _built[key]


def is_cyclic_key(order: int, gid: int) -> bool:
    G = small_group(order, gid)
    return max(G.element_orders()) == order


def identify_group(G: GroupTable) -> tuple[int, int]:
    """The catalog key of the unique entry isomorphic to ``G`` (order <= 30)."""
    require_dense(G)
    if G.order > 30:
        raise CatalogKeyError(f"order {G.order} is outside the catalog")
    for entry in groups_of_order(G.order):
        H = small_group(entry.order, entry.gid)
        if H.fingerprint() == G.fingerprint() and isomorphism_between(G, H) is not None:
            return (entry.order, entry.gid)
    raise GroupError("no catalog entry matches; the input is not a group of order <= 30")
