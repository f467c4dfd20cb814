"""On-disk cache of the per-group table row.

One file per catalog key holds the row of :mod:`catsq.tables`: the
idempotent-endomorphism count, the cat1 and cat2 structure and class counts,
and the bad-diagonal class count, on one ``counts`` line.  Writes are atomic
(temp file + rename).  Reads validate the format version and a group
fingerprint (order plus idempotent-endomorphism count) before trusting the
counts; any problem, a file in an older layout included, raises a distinct,
recoverable error so callers can fall back to recomputation.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GroupData:
    """The table row of one catalog group, as cached."""

    order: int
    gid: int
    ie_count: int
    cat1_count: int
    cat1_classes: int
    cat2_count: int
    cat2_classes: int
    bad_diagonals: int

    @property
    def counts(self) -> tuple[int, int, int, int, int]:
        return (self.ie_count, self.cat1_count, self.cat1_classes,
                self.cat2_count, self.cat2_classes)


def resolve_cache_dir(explicit: Optional[str]) -> Optional[Path]:
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def cache_path(cache_dir: Path, order: int, gid: int) -> Path:
    return cache_dir / f"{order}_{gid}.catsq"


def emit_group_data(data: GroupData) -> str:
    counts = " ".join(map(str, (*data.counts, data.bad_diagonals)))
    return (f"catsq {FORMAT_VERSION} cache\ngroup key {data.order} {data.gid}\n"
            f"fingerprint {data.order} {data.ie_count}\ncounts {counts}\nend\n")


def parse_group_data(text: str) -> GroupData:
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
        counts = _ints(words)
        r.end()
    except CacheMiss:
        raise
    except (FormatError, ValueError, IndexError) as exc:
        raise CacheFormatError(str(exc)) from exc
    if (forder, ie) != (order, counts[0]):
        raise CacheFingerprintError("fingerprint does not match the group key and counts")
    return GroupData(order, gid, *counts)


def write_group_data(cache_dir: Path, data: GroupData) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, data.order, data.gid)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(emit_group_data(data))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_group_data(cache_dir: Path, order: int, gid: int,
                    expected_ie: int) -> GroupData:
    """Load and validate a cache entry; raises a CacheMiss subtype otherwise."""
    path = cache_path(cache_dir, order, gid)
    if not path.exists():
        raise CacheMiss(f"no cache entry at {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheFormatError(f"unreadable cache entry {path}: {exc}") from exc
    data = parse_group_data(text)
    if (data.order, data.gid) != (order, gid):
        raise CacheFingerprintError("cache entry is for a different group")
    if data.ie_count != expected_ie:
        raise CacheFingerprintError(
            f"stale fingerprint: cached IE {data.ie_count}, group has {expected_ie}")
    return data
