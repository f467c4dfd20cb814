"""Line-oriented text format for groups, structures, and cached results.

Files are LF-terminated ASCII: a header line ``catsq <version> <kind>``,
keyword-introduced sections with whitespace-separated decimal integers, and a
closing ``end`` line.  Emission is canonical (single spaces, no trailing
whitespace), so ``emit(parse(text)) == text`` byte for byte.
"""

from __future__ import annotations

from typing import Optional

from .groups import DenseGroup, GroupError, GroupTable, Homomorphism, require_dense
from .cat1 import Cat1Group, PreCat1Group, cat1_group
from .cat2 import Cat2Group, PreCat2Group, cat2_group
from .xsq import CrossedSquare
from .groups import GroupAction

FORMAT_VERSION = 1


class FormatError(GroupError):
    """Malformed serialized input."""


def _ints(words) -> list[int]:
    try:
        return [int(w) for w in words]
    except ValueError as exc:
        raise FormatError(f"expected integers, got {words!r}") from exc


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


def emit_group(G: GroupTable, key: Optional[tuple[int, int]] = None) -> list[str]:
    if key is not None:
        from .catalog import small_group

        if G is not small_group(*key):
            raise FormatError(
                f"group is not the catalog instance for key {key}; "
                "serialize it inline instead")
        return [f"group key {key[0]} {key[1]}"]
    require_dense(G)
    lines = [f"group table {G.order} {G.label}"]
    lines.extend(" ".join(str(v) for v in row) for row in G.table)
    lines.append("gens " + " ".join(str(g) for g in G.generators))
    return lines


def parse_group(r: _Reader) -> GroupTable:
    words = r.expect("group")
    if not words:
        raise FormatError("empty group line")
    if words[0] == "key":
        from .catalog import small_group

        o, i = _ints(words[1:3])
        return small_group(o, i)
    if words[0] == "table":
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
    if int(first[1]) != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {first[1]}")
    return first[2]


def _open(text: str, kind: str) -> _Reader:
    r = _Reader(text)
    got = r.expect("catsq")
    if int(got[0]) != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {got[0]}")
    if got[1] != kind:
        raise FormatError(f"expected a {kind} file, found {got[1]}")
    return r


def parse_cat1(text: str) -> Cat1Group:
    r = _open(text, "cat1")
    G = parse_group(r)
    t = Homomorphism(G, G, _ints(r.expect("t")))
    h = Homomorphism(G, G, _ints(r.expect("h")))
    r.expect("end")
    return cat1_group(t, h)


def parse_cat2(text: str) -> Cat2Group:
    r = _open(text, "cat2")
    G = parse_group(r)
    maps = [Homomorphism(G, G, _ints(r.expect(k))) for k in ("t1", "h1", "t2", "h2")]
    r.expect("end")
    return cat2_group(cat1_group(maps[0], maps[1]), cat1_group(maps[2], maps[3]))


def parse_xsq(text: str, validate: bool = True) -> CrossedSquare:
    r = _open(text, "xsq")
    L, M, N, P = (parse_group(r) for _ in range(4))
    kappa = Homomorphism(L, M, _ints(r.expect("kappa")))
    lam = Homomorphism(L, N, _ints(r.expect("lambda")))
    mu = Homomorphism(M, P, _ints(r.expect("mu")))
    nu = Homomorphism(N, P, _ints(r.expect("nu")))
    acts = []
    for name, space in (("actl", L), ("actm", M), ("actn", N)):
        count = _ints(r.expect(name))[0]
        if count != P.order:
            raise FormatError(f"{name} must list one permutation per element of P")
        perms = tuple(tuple(_ints(r.next().split())) for _ in range(count))
        acts.append(GroupAction(P, space, perms))
    rows = _ints(r.expect("pairing"))[0]
    if rows != M.order:
        raise FormatError("pairing must have one row per element of M")
    pairing = tuple(tuple(_ints(r.next().split())) for _ in range(rows))
    r.expect("end")
    from .xsq import crossed_square

    if not validate:
        return CrossedSquare(L, M, N, P, kappa, lam, mu, nu,
                             acts[0], acts[1], acts[2], pairing)
    return crossed_square(L, M, N, P, kappa, lam, mu, nu, acts[0], acts[1], acts[2], pairing)
