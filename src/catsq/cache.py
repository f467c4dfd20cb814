"""On-disk cache of the per-group table row.

One file per catalog key holds the six counts of a :mod:`catsq.tables` row
(idempotent endomorphisms, cat1 and cat2 structures and classes, bad
diagonals) on one ``counts`` line, keyed by order and id.  Writes are atomic
(temp file + rename).  Reads validate the format version and a group
fingerprint (order plus idempotent-endomorphism count) before trusting the
counts; any problem, a file in an older layout included, raises a distinct,
recoverable error so callers can fall back to recomputation.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional

from .serialize import FORMAT_VERSION, FormatError, _Reader, _ints

CACHE_ENV = "CATSQ_CACHE_DIR"


class CacheMiss(Exception):
    """Recoverable cache problem; recompute instead."""


class CacheVersionError(CacheMiss):
    pass


class CacheFingerprintError(CacheMiss):
    pass


class CacheFormatError(CacheMiss):
    pass


def resolve_cache_dir(explicit: Optional[str]) -> Optional[Path]:
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def cache_path(cache_dir: Path, order: int, gid: int) -> Path:
    return cache_dir / f"{order}_{gid}.catsq"


def emit_group_data(order: int, gid: int, counts: tuple[int, ...]) -> str:
    return (f"catsq {FORMAT_VERSION} cache\ngroup key {order} {gid}\n"
            f"fingerprint {order} {counts[0]}\ncounts {' '.join(map(str, counts))}\nend\n")


def parse_group_data(text: str) -> tuple[int, int, tuple[int, ...]]:
    """(order, gid, the six counts) of a cache entry."""
    try:
        r = _Reader(text)
        head = r.expect("catsq")
        if int(head[0]) != FORMAT_VERSION:
            raise CacheVersionError(f"cache format version {head[0]}")
        if head[1] != "cache":
            raise CacheFormatError(f"not a cache file: kind {head[1]}")
        words = r.expect("group")
        order, gid = _ints(words[1:3])
        forder, ie = _ints(r.expect("fingerprint"))
        words = r.expect("counts")
        if len(words) != 6 or not all(w.isdecimal() for w in words):
            raise CacheFormatError(f"line {r.pos}: {r.lines[r.pos - 1]!r} does not "
                                   "hold six non-negative integers")
        counts = tuple(_ints(words))
        r.end()
    except CacheMiss:
        raise
    except (FormatError, ValueError, IndexError) as exc:
        raise CacheFormatError(str(exc)) from exc
    if (forder, ie) != (order, counts[0]):
        raise CacheFingerprintError("fingerprint does not match the group key and counts")
    return order, gid, counts


def write_group_data(cache_dir: Path, order: int, gid: int, counts: tuple[int, ...]) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, order, gid)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(emit_group_data(order, gid, counts))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_group_data(cache_dir: Path, order: int, gid: int,
                    expected_ie: int) -> tuple[int, ...]:
    """The six counts of a validated cache entry, or a CacheMiss subtype."""
    path = cache_path(cache_dir, order, gid)
    if not path.exists():
        raise CacheMiss(f"no cache entry at {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheFormatError(f"unreadable cache entry {path}: {exc}") from exc
    found_order, found_gid, counts = parse_group_data(text)
    if (found_order, found_gid) != (order, gid):
        raise CacheFingerprintError("cache entry is for a different group")
    if counts[0] != expected_ie:
        raise CacheFingerprintError(
            f"stale fingerprint: cached IE {counts[0]}, group has {expected_ie}")
    return counts
