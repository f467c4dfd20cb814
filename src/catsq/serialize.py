"""Line-oriented text format for groups and structures.

Files are LF-terminated ASCII: a header line ``catsq <version> <kind>``,
keyword-introduced sections with whitespace-separated decimal integers, and a
closing ``end`` line that only blank lines may follow.  Emission is canonical
(single spaces; no trailing whitespace but that of ``gens `` for a group
without generators), so ``emit(parse(text)) == text`` byte for byte.  The
lines of an inline group table are memoized on the group, so the corner
groups that conversions on one group share are formatted once.  One parser
per kind.  Malformed text raises a ``GroupError`` naming the bad line
or token.

Parsing checks the syntax, each group table (Light's test), the ranges of
map and action entries and the shapes of the values built from them, and
returns the data; the axioms, homomorphisms and actions included, are report
lines, which the certifying factories require.
"""

from __future__ import annotations

from typing import Optional

from .groups import (DenseGroup, GroupAction, GroupError, GroupTable, Homomorphism, _memo,
                     require_dense)
from .cat1 import PreCat1Group
from .cat2 import PreCat2Group
from .xsq import CrossedSquare

FORMAT_VERSION = 1


class FormatError(GroupError):
    """Malformed serialized input."""


def _ints(words) -> list[int]:
    try:
        return [int(w) for w in words]
    except ValueError as exc:
        raise FormatError(f"expected integers, got {words!r}") from exc


def _map(r: "_Reader", name: str, G: GroupTable, H: GroupTable) -> Homomorphism:
    """The ``name`` line as a map G -> H.  The constructor checks shape and
    range; a rejected map is scanned again to name an entry outside H, and
    any other shape error is prefixed with ``map <name>:``."""
    m = _ints(r.expect(name))
    try:
        return Homomorphism(G, H, m)
    except GroupError as exc:
        if m and not 0 <= min(m) <= max(m) < H.order:
            bad = next(v for v in m if not 0 <= v < H.order)
            raise FormatError(f"map {name} has entry {bad} outside 0..{H.order - 1}") from None
        raise FormatError(f"map {name}: {exc}") from None


def _section(r: "_Reader", keyword: str, count: int, n: int) -> tuple[tuple[int, ...], ...]:
    """A ``keyword count`` line, then ``count`` rows of integers in 0..n-1."""
    words = r.expect(keyword)
    if words != [str(count)]:
        raise FormatError(f"expected '{keyword} {count}', got {[keyword] + words!r}")
    rows = tuple(tuple(_ints(r.next().split())) for _ in range(count))
    if not 0 <= min(map(min, rows)) <= max(map(max, rows)) < n:
        i, bad = next((i, v) for i, row in enumerate(rows) for v in row if not 0 <= v < n)
        raise FormatError(f"{keyword} row {i} has entry {bad} outside 0..{n - 1}")
    return rows


class _Reader:
    def __init__(self, text: str) -> None:
        self.lines = text.split("\n")
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line.rstrip("\n")
        raise FormatError("unexpected end of input")

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        words = line.split()
        if not words or words[0] != keyword:
            raise FormatError(f"expected a {keyword!r} line, got {line!r}")
        return words[1:]

    def end(self) -> None:
        """The closing ``end`` line, which only blank lines may follow."""
        self.expect("end")
        for number in range(self.pos, len(self.lines)):
            if self.lines[number].strip():
                raise FormatError(f"content after 'end' on line {number + 1}: "
                                  f"{self.lines[number]!r}")


def emit_group(G: GroupTable, key: Optional[tuple[int, int]] = None) -> list[str]:
    """The group lines of a file: ``group key`` for the catalog instance of
    ``key``, else the inline table, whose lines are memoized on ``G``; a
    fresh list on each call."""
    if key is not None:
        from .catalog import small_group

        if G is not small_group(*key):
            raise FormatError(
                f"group is not the catalog instance for key {key}; "
                "serialize it inline instead")
        return [f"group key {key[0]} {key[1]}"]
    return list(_table_lines(require_dense(G)))


@_memo
def _table_lines(G: DenseGroup) -> tuple[str, ...]:
    """The ``group table`` header, the table rows and the ``gens`` line."""
    return (f"group table {G.order} {G.label}",
            *(" ".join(str(v) for v in row) for row in G.table),
            "gens " + " ".join(str(g) for g in G.generators))


def parse_group(r: _Reader) -> GroupTable:
    words = r.expect("group")
    if not words:
        raise FormatError("empty group line")
    if words[0] == "key":
        from .catalog import small_group

        if len(words) != 3:
            raise FormatError(f"expected 'group key <order> <id>', got {words!r}")
        return small_group(*_ints(words[1:]))
    if words[0] == "table":
        if len(words) < 2 or not words[1].isdecimal() or int(words[1]) < 1:
            raise FormatError(f"expected 'group table <order> [label]', got {words!r}")
        n = int(words[1])
        label = " ".join(words[2:]) or f"group{n}"
        table = [_ints(r.next().split()) for _ in range(n)]
        gens = _ints(r.expect("gens"))
        return DenseGroup(table, label, gens)
    raise FormatError(f"unknown group form {words[0]!r}")


def _emit_map(name: str, mapping) -> str:
    return name + " " + " ".join(str(v) for v in mapping)


def emit_cat1(C: PreCat1Group, key: Optional[tuple[int, int]] = None) -> str:
    lines = [f"catsq {FORMAT_VERSION} cat1"]
    lines += emit_group(C.group, key)
    lines.append(_emit_map("t", C.tail.mapping))
    lines.append(_emit_map("h", C.head.mapping))
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_cat2(C: PreCat2Group, key: Optional[tuple[int, int]] = None) -> str:
    lines = [f"catsq {FORMAT_VERSION} cat2"]
    lines += emit_group(C.group, key)
    lines.append(_emit_map("t1", C.c1.tail.mapping))
    lines.append(_emit_map("h1", C.c1.head.mapping))
    lines.append(_emit_map("t2", C.c2.tail.mapping))
    lines.append(_emit_map("h2", C.c2.head.mapping))
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_xsq(X: CrossedSquare) -> str:
    lines = [f"catsq {FORMAT_VERSION} xsq"]
    for G in (X.up_left, X.up_right, X.down_left, X.down_right):
        lines += emit_group(G)
    lines.append(_emit_map("kappa", X.kappa.mapping))
    lines.append(_emit_map("lambda", X.lambda_.mapping))
    lines.append(_emit_map("mu", X.mu.mapping))
    lines.append(_emit_map("nu", X.nu.mapping))
    for name, act in (("actl", X.act_l), ("actm", X.act_m), ("actn", X.act_n)):
        lines.append(f"{name} {act.actor.order}")
        lines.extend(" ".join(str(v) for v in p) for p in act.perms)
    lines.append(f"pairing {X.up_right.order}")
    lines.extend(" ".join(str(v) for v in row) for row in X.pairing)
    lines.append("end")
    return "\n".join(lines) + "\n"


def detect_kind(text: str) -> str:
    first = text.lstrip().split("\n", 1)[0].split()
    if len(first) != 3 or first[0] != "catsq":
        raise FormatError("missing 'catsq <version> <kind>' header")
    if first[1] != str(FORMAT_VERSION):
        raise FormatError(f"unsupported format version {first[1]!r}")
    return first[2]


def _open(text: str, kind: str) -> _Reader:
    found = detect_kind(text)
    if found != kind:
        raise FormatError(f"expected a {kind} file, found {found}")
    r = _Reader(text)
    r.next()  # the header line that detect_kind read
    return r


def parse_cat1(text: str) -> PreCat1Group:
    r = _open(text, "cat1")
    G = parse_group(r)
    t, h = (_map(r, k, G, G) for k in ("t", "h"))
    r.end()
    return PreCat1Group(t, h)


def parse_cat2(text: str) -> PreCat2Group:
    r = _open(text, "cat2")
    G = parse_group(r)
    maps = [_map(r, k, G, G) for k in ("t1", "h1", "t2", "h2")]
    r.end()
    return PreCat2Group(PreCat1Group(*maps[:2]), PreCat1Group(*maps[2:]))


def parse_xsq(text: str) -> CrossedSquare:
    r = _open(text, "xsq")
    L, M, N, P = (parse_group(r) for _ in range(4))
    kappa, lam = _map(r, "kappa", L, M), _map(r, "lambda", L, N)
    mu, nu = _map(r, "mu", M, P), _map(r, "nu", N, P)
    acts = []
    for name, space in (("actl", L), ("actm", M), ("actn", N)):
        rows = _section(r, name, P.order, space.order)
        try:
            acts.append(GroupAction(P, space, rows))
        except GroupError as exc:
            raise FormatError(f"{name}: {exc}") from None
    pairing = _section(r, "pairing", M.order, L.order)
    r.end()
    return CrossedSquare(L, M, N, P, kappa, lam, mu, nu, *acts, pairing)
