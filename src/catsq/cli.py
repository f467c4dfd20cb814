"""Command-line front end: table generation, structure inspection, conversion
between serialized cat2-groups and crossed squares, and axiom checking."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import catalog
from .cat1 import cat1_isomorphism_classes, is_cat1_group
from .cat2 import cat2_isomorphism_classes, is_cat2_group
from .groups import GroupError
from .serialize import (
    detect_kind,
    emit_cat1,
    emit_cat2,
    emit_xsq,
    parse_cat1,
    parse_cat2,
    parse_xsq,
)
from .tables import build_table, check_rows, format_table
from .xsq import cat2_of_crossed_square, crossed_square_of_cat2, is_crossed_square


def cmd_table(args) -> int:
    try:
        rows = build_table(args.max_order, heavy=args.heavy,
                           cache_dir=Path(args.cache_dir) if args.cache_dir else None)
    except OSError as exc:  # the cache directory or an entry cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(format_table(rows, args.format))
    if args.check:
        problems = check_rows(rows)
        for p in problems:
            print("check: " + p, file=sys.stderr)
        if problems:
            return 1
        print(f"check: all {sum(1 for _, r in rows if r is not None)} computed rows match",
              file=sys.stderr)
    return 0


def cmd_inspect(args) -> int:
    try:
        catalog.catalog_entry(args.order, args.gid)
    except catalog.CatalogKeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    key = (args.order, args.gid)
    classify = cat1_isomorphism_classes if args.kind == "cat1" else cat2_isomorphism_classes
    cls = classify(catalog.small_group(*key))
    count = len(cls.leaders)

    if args.selector == "count":
        print(count)
        return 0
    if args.selector == "families":
        print(f"families {count}")
        for fam in cls.families:
            print(" ".join(str(p + 1) for p in fam))
        return 0
    if args.selector == "classes":
        for rep in cls.representatives:
            _print_rep(args.kind, rep, key)
        return 0
    try:
        index = int(args.selector)
    except ValueError:
        print(f"error: selector must be an index, 'count', 'classes' or 'families'",
              file=sys.stderr)
        return 2
    if not 1 <= index <= count:
        print(f"error: index {index} out of range; there are {count} classes "
              f"for ({args.order},{args.gid})", file=sys.stderr)
        return 2
    _print_rep(args.kind, cls.representatives[index - 1], key)
    return 0


def _print_rep(kind: str, structure, key) -> None:
    if kind == "cat1":
        sys.stdout.write(emit_cat1(structure, key))
    elif kind == "cat2":
        print("size " + " ".join(str(v) for v in structure.size))
        sys.stdout.write(emit_cat2(structure, key))
    else:
        sys.stdout.write(emit_xsq(crossed_square_of_cat2(structure)))


def cmd_convert(args) -> int:
    try:
        text = Path(args.file).read_text()
        kind = detect_kind(text)
        if kind == "cat2":
            out = emit_xsq(crossed_square_of_cat2(parse_cat2(text)))
        elif kind == "xsq":
            converted = cat2_of_crossed_square(parse_xsq(text))
            if converted.group.realization != "dense":
                print("error: the converted group is too large to serialize",
                      file=sys.stderr)
                return 2
            out = emit_cat2(converted)
        else:
            print(f"error: cannot convert files of kind {kind!r}", file=sys.stderr)
            return 2
        if args.output:
            Path(args.output).write_text(out)
        else:
            sys.stdout.write(out)
    except (GroupError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# kind -> (parser, axiom report of the parsed data)
CHECKERS = {
    "cat1": (parse_cat1, is_cat1_group),
    "cat2": (parse_cat2, is_cat2_group),
    "xsq": (parse_xsq, is_crossed_square),
}


def cmd_check(args) -> int:
    try:
        text = Path(args.file).read_text()
        kind = detect_kind(text)
        if kind not in CHECKERS:
            print(f"invalid: cannot check files of kind {kind!r}", file=sys.stderr)
            return 2
        parse, report_of = CHECKERS[kind]
        report = report_of(parse(text))
    except (GroupError, OSError, UnicodeDecodeError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    for c in report.checks:
        print(f"{c.name}: pass" if c.ok else f"{c.name}: FAIL witness {c.witness}")
    return 0 if report.ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="catsq",
        description="cat1/cat2-group and crossed square computations over "
                    "the groups of order at most 30",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit the classification table")
    p.add_argument("--max-order", type=int, default=30)
    p.add_argument("--heavy", action="store_true",
                   help="also compute the expensive rows (16/14 and 27/5)")
    p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p.add_argument("--check", action="store_true",
                   help="compare against the embedded reference table")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("inspect", help="list structures for a catalog group")
    p.add_argument("kind", choices=("cat1", "cat2", "xsq"))
    p.add_argument("order", type=int)
    p.add_argument("gid", type=int)
    p.add_argument("selector",
                   help="1-based class index, or 'count', 'classes', 'families'")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("convert", help="convert serialized cat2 <-> crossed square")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("check", help="axiom report for a serialized structure")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    if args.command == "table" and not 1 <= args.max_order <= 30:
        bound = "stops at order 30" if args.max_order > 30 else "starts at order 1"
        print(f"error: the catalog {bound}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
