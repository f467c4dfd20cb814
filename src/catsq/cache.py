"""On-disk cache of the per-group table row.

One file per catalog key holds one line: the six counts of a
:mod:`catsq.tables` row (idempotent endomorphisms, cat1 and cat2 structures
and classes, bad diagonals), then a check, the sha256 of the package source,
the key and the counts.  An entry is served only if its check recomputes, so
an entry written by other code, for another key, or altered after writing
is a miss, and a hit builds no group.  Writes are atomic (temp file +
rename).  Every problem raises :class:`CacheMiss`, naming the path and the
bad line; callers recompute.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from pathlib import Path


class CacheMiss(Exception):
    """Recoverable cache problem; recompute instead."""


@functools.cache
def _source_digest() -> str:
    """sha256 of every module of the package, names and bytes, once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _entry(order: int, gid: int, counts: tuple[int, ...]) -> str:
    """The entry of a key: one line of its counts, then their check."""
    text = " ".join(map(str, counts))
    check = hashlib.sha256(f"{_source_digest()} {order} {gid} {text}".encode())
    return f"{text} {check.hexdigest()}\n"


def cache_path(cache_dir: Path, order: int, gid: int) -> Path:
    return cache_dir / f"{order}_{gid}.catsq"


def write_group_data(cache_dir: Path, order: int, gid: int, counts: tuple[int, ...]) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, order, gid)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(_entry(order, gid, counts))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_group_data(cache_dir: Path, order: int, gid: int) -> tuple[int, ...]:
    """The six counts of the entry of ``(order, gid)`` if it is the line
    :func:`write_group_data` writes for them under this package source, and
    nothing else; otherwise a :class:`CacheMiss`."""
    path = cache_path(cache_dir, order, gid)
    try:
        line, end, rest = path.read_text().partition("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheMiss(f"unreadable cache entry {path}: {exc}") from exc
    counts = tuple(int(w) for w in line.split(" ")[:6] if w.isdecimal())
    if len(counts) != 6 or line + end != _entry(order, gid, counts):
        raise CacheMiss(f"{path} line 1: {line!r} is not the entry of "
                        f"{order}/{gid} under this package source")
    if rest:
        raise CacheMiss(f"{path} line 2: {rest.splitlines()[0]!r} follows the entry")
    return counts
