"""Classification rows, the embedded reference table, and table assembly.

Each catalog group gets six counts (idempotent endomorphisms, cat1
structures and classes, cat2 structures and classes, and cat2 classes whose
diagonal fails to be a cat1-group), read off the End(G) arrays and the
lengths of the classifiers' label and leader arrays without building a
structure object or a family; :func:`group_data` can keep them in
:mod:`catsq.cache`, whose hits build no group.  :class:`ClassificationRow`
is the one row type.
The reference table is embedded verbatim for the check flag; cyclic groups
are covered by the closed forms (2^m structures for m distinct prime
factors, all classes singletons).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import catalog
from .cache import CacheMiss, read_group_data, write_group_data
from .cat1 import cat1_isomorphism_classes
from .cat2 import cat2_isomorphism_classes, non_cat1_diagonal_count
from .groups import _endomorphism_maps

HEAVY_KEYS = frozenset({(16, 14), (27, 5)})

# Reference counts (ie, cat1, cat1 classes, cat2, cat2 classes) for the
# non-cyclic groups.  NOTE: the reference row for (16,14) is internally
# inconsistent -- an elementary abelian group of rank 4 has 802 idempotent
# endomorphisms and 10,882 cat1 structures, and both (16,14) and (27,5) have
# provably more cat2 classes than listed (55 and 23; see the check command).
# The rows are kept verbatim so discrepancies are reported, never hidden.
_REFERENCE = {
    (1, 1): (1, 1, 1, 1, 1),
    (4, 2): (8, 14, 4, 36, 9),
    (6, 1): (5, 4, 2, 7, 3),
    (8, 2): (10, 18, 6, 47, 14),
    (8, 3): (10, 9, 3, 21, 6),
    (8, 4): (2, 1, 1, 1, 1),
    (8, 5): (58, 226, 6, 1711, 23),
    (9, 2): (14, 38, 4, 93, 9),
    (10, 1): (7, 6, 2, 11, 3),
    (12, 1): (5, 4, 2, 7, 3),
    (12, 3): (6, 5, 2, 9, 3),
    (12, 4): (21, 12, 4, 41, 10),
    (12, 5): (16, 28, 8, 136, 32),
    (14, 1): (9, 8, 2, 15, 3),
    (16, 2): (26, 98, 5, 231, 11),
    (16, 3): (18, 25, 4, 57, 7),
    (16, 4): (10, 17, 3, 25, 4),
    (16, 5): (10, 18, 6, 47, 14),
    (16, 6): (6, 5, 2, 9, 3),
    (16, 7): (18, 9, 2, 17, 3),
    (16, 8): (10, 5, 2, 9, 3),
    (16, 9): (2, 1, 1, 1, 1),
    (16, 10): (82, 322, 12, 2875, 53),
    (16, 11): (82, 97, 9, 649, 29),
    (16, 12): (18, 17, 3, 25, 4),
    (16, 13): (26, 13, 2, 37, 4),
    (16, 14): (382, 4162, 9, 298483, 53),
    (18, 1): (11, 10, 2, 19, 3),
    (18, 3): (12, 8, 4, 24, 10),
    (18, 4): (47, 118, 4, 541, 9),
    (18, 5): (28, 76, 8, 358, 32),
    (20, 1): (7, 6, 2, 11, 3),
    (20, 3): (7, 6, 2, 11, 3),
    (20, 4): (31, 18, 4, 65, 10),
    (20, 5): (16, 28, 8, 136, 32),
    (21, 1): (9, 8, 2, 15, 3),
    (22, 1): (13, 12, 2, 23, 3),
    (24, 1): (5, 4, 2, 7, 3),
    (24, 3): (6, 1, 1, 1, 1),
    (24, 4): (5, 4, 2, 7, 3),
    (24, 5): (27, 12, 4, 41, 10),
    (24, 6): (33, 20, 4, 75, 10),
    (24, 7): (25, 36, 6, 115, 14),
    (24, 8): (23, 12, 4, 41, 10),
    (24, 9): (20, 36, 12, 178, 52),
    (24, 10): (20, 18, 6, 75, 20),
    (24, 11): (4, 2, 2, 3, 3),
    (24, 12): (12, 5, 2, 9, 3),
    (24, 13): (15, 10, 4, 31, 10),
    (24, 14): (157, 116, 8, 999, 32),
    (24, 15): (116, 452, 12, 6786, 84),
    (25, 2): (32, 152, 4, 348, 9),
    (26, 1): (15, 14, 2, 27, 3),
    (27, 2): (20, 56, 6, 138, 14),
    (27, 3): (38, 37, 2, 127, 4),
    (27, 4): (11, 10, 2, 19, 3),
    (27, 5): (236, 2108, 6, 24222, 16),
    (28, 1): (9, 8, 2, 15, 3),
    (28, 3): (41, 24, 4, 89, 10),
    (28, 4): (16, 28, 8, 136, 32),
    (30, 1): (10, 8, 4, 24, 10),
    (30, 2): (14, 12, 4, 38, 10),
    (30, 3): (25, 24, 4, 92, 10),
}

_BAD_DIAGONAL_REFERENCE = {
    (8, 3): 1, (16, 3): 1, (16, 13): 1, (27, 3): 1, (24, 10): 3, (16, 11): 6,
}

CSV_HEADER = ("order", "id", "name", "ie", "cat1", "cat1_classes",
              "cat2", "cat2_classes", "bad_diagonals")


def distinct_prime_count(n: int) -> int:
    count, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            count += 1
            while n % d == 0:
                n //= d
        d += 1
    return count + (1 if n > 1 else 0)


def cyclic_closed_form(m: int) -> tuple[int, int, int, int, int]:
    """Counts for a cyclic group with m distinct prime-power factors."""
    k = 2 ** m
    c2 = k + k * (k - 1) // 2
    return (k, k, k, c2, c2)


def expected_counts(order: int, gid: int) -> tuple[int, int, int, int, int]:
    key = (order, gid)
    if key in _REFERENCE:
        return _REFERENCE[key]
    if not catalog.is_cyclic_key(order, gid):
        raise KeyError(f"no reference row for non-cyclic group {key}")
    return cyclic_closed_form(distinct_prime_count(order))


def expected_bad_diagonals(order: int, gid: int) -> int:
    return _BAD_DIAGONAL_REFERENCE.get((order, gid), 0)


@dataclass(frozen=True)
class ClassificationRow:
    order: int
    gid: int
    name: str
    ie_count: int
    cat1_count: int
    cat1_classes: int
    cat2_count: int
    cat2_classes: int
    non_cat1_diagonal_classes: int

    def counts(self) -> tuple[int, int, int, int, int]:
        return (self.ie_count, self.cat1_count, self.cat1_classes,
                self.cat2_count, self.cat2_classes)


def compute_group_data(order: int, gid: int) -> tuple[int, ...]:
    """The six counts of one catalog group, in the order of the CSV columns
    after ``name``; no structure object or family is built."""
    G = catalog.small_group(order, gid)
    cls1 = cat1_isomorphism_classes(G)
    cls2 = cat2_isomorphism_classes(G)
    return (len(_endomorphism_maps(G)[0]), len(cls1.labels), len(cls1.leaders),
            len(cls2.labels), len(cls2.leaders), non_cat1_diagonal_count(G))


def group_data(order: int, gid: int, cache_dir: Optional[Path] = None) -> tuple[int, ...]:
    """The six counts of :func:`compute_group_data`, read from the entry in
    ``cache_dir`` when :mod:`catsq.cache` serves it, with no group built;
    otherwise computed, and written there when ``cache_dir`` is given."""
    if cache_dir is not None:
        try:
            return read_group_data(cache_dir, order, gid)
        except CacheMiss:
            pass
    counts = compute_group_data(order, gid)
    if cache_dir is not None:
        write_group_data(cache_dir, order, gid, counts)
    return counts


def row_from_data(entry: catalog.CatalogEntry, counts: tuple[int, ...]) -> ClassificationRow:
    return ClassificationRow(entry.order, entry.gid, entry.name, *counts)


def build_table(max_order: int = 30, heavy: bool = False,
                cache_dir: Optional[Path] = None
                ) -> list[tuple[catalog.CatalogEntry, Optional[ClassificationRow]]]:
    """One row per catalog group; heavy rows are None unless enabled."""
    out = []
    for order, gid in catalog.catalog_keys():
        if order > max_order:
            continue
        entry = catalog.catalog_entry(order, gid)
        if (order, gid) in HEAVY_KEYS and not heavy:
            out.append((entry, None))
            continue
        out.append((entry, row_from_data(entry, group_data(order, gid, cache_dir))))
    return out


def format_table(rows, fmt: str = "csv") -> str:
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"unknown table format {fmt!r}")
    buf = io.StringIO()
    emit = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\n").writerow
    emit(CSV_HEADER)
    for entry, row in rows:
        if row is None:
            emit((entry.order, entry.gid, entry.name) + ("skipped",) * 6)
        else:
            emit((row.order, row.gid, row.name, row.ie_count, row.cat1_count,
                  row.cat1_classes, row.cat2_count, row.cat2_classes,
                  row.non_cat1_diagonal_classes))
    return buf.getvalue()


def check_rows(rows) -> list[str]:
    """Mismatch descriptions against the embedded reference table."""
    problems = []
    for entry, row in rows:
        if row is None:
            continue
        want = expected_counts(entry.order, entry.gid)
        got = row.counts()
        if got != want:
            problems.append(
                f"{entry.order}/{entry.gid} {entry.name}: counts {got} != reference {want}")
        want_bad = expected_bad_diagonals(entry.order, entry.gid)
        if row.non_cat1_diagonal_classes != want_bad:
            problems.append(
                f"{entry.order}/{entry.gid} {entry.name}: bad diagonals "
                f"{row.non_cat1_diagonal_classes} != reference {want_bad}")
    return problems
