"""On-disk cache of per-group enumeration results.

One file per catalog key holds the cat1 structure maps, both family
partitions, the cat2 pair list, and the bad-diagonal class count.  Writes are
atomic (temp file + rename).  Reads validate the format version and a group
fingerprint (order plus idempotent-endomorphism count) before trusting the
payload; any problem raises a distinct, recoverable error so callers can fall
back to recomputation.
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
    """The cacheable computation result for one catalog group."""

    order: int
    gid: int
    ie_count: int
    cat1_maps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    cat1_families: tuple[tuple[int, ...], ...]
    cat2_pairs: tuple[tuple[int, int], ...]
    cat2_families: tuple[tuple[int, ...], ...]
    bad_diagonals: int

    @property
    def counts(self) -> tuple[int, int, int, int, int]:
        return (self.ie_count, len(self.cat1_maps), len(self.cat1_families),
                len(self.cat2_pairs), len(self.cat2_families))


def resolve_cache_dir(explicit: Optional[str]) -> Optional[Path]:
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def cache_path(cache_dir: Path, order: int, gid: int) -> Path:
    return cache_dir / f"{order}_{gid}.catsq"


def emit_group_data(data: GroupData) -> str:
    lines = [f"catsq {FORMAT_VERSION} cache"]
    lines.append(f"group key {data.order} {data.gid}")
    lines.append(f"fingerprint {data.order} {data.ie_count}")
    lines.append(f"cat1 {len(data.cat1_maps)}")
    for t, h in data.cat1_maps:
        lines.append(" ".join(str(v) for v in t) + " " + " ".join(str(v) for v in h))
    lines.append(f"cat1-families {len(data.cat1_families)}")
    for fam in data.cat1_families:
        lines.append(" ".join(str(p + 1) for p in fam))
    lines.append(f"cat2 {len(data.cat2_pairs)}")
    for i, j in data.cat2_pairs:
        lines.append(f"{i + 1} {j + 1}")
    lines.append(f"cat2-families {len(data.cat2_families)}")
    for fam in data.cat2_families:
        lines.append(" ".join(str(p + 1) for p in fam))
    lines.append(f"bad-diagonals {data.bad_diagonals}")
    lines.append("end")
    return "\n".join(lines) + "\n"


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
        n1 = _ints(r.expect("cat1"))[0]
        cat1_maps = []
        half = order
        for _ in range(n1):
            vals = _ints(r.next().split())
            if len(vals) != 2 * half:
                raise CacheFormatError("cat1 map line has the wrong length")
            cat1_maps.append((tuple(vals[:half]), tuple(vals[half:])))
        k1 = _ints(r.expect("cat1-families"))[0]
        cat1_fams = tuple(tuple(v - 1 for v in _ints(r.next().split())) for _ in range(k1))
        n2 = _ints(r.expect("cat2"))[0]
        cat2_pairs = []
        for _ in range(n2):
            i, j = _ints(r.next().split())
            cat2_pairs.append((i - 1, j - 1))
        k2 = _ints(r.expect("cat2-families"))[0]
        cat2_fams = tuple(tuple(v - 1 for v in _ints(r.next().split())) for _ in range(k2))
        bad = _ints(r.expect("bad-diagonals"))[0]
        r.end()
    except CacheMiss:
        raise
    except (FormatError, ValueError, IndexError) as exc:
        raise CacheFormatError(str(exc)) from exc
    if forder != order:
        raise CacheFingerprintError("fingerprint order does not match the group key")
    return GroupData(order, gid, ie, tuple(cat1_maps), cat1_fams,
                     tuple(cat2_pairs), cat2_fams, bad)


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
    data = parse_group_data(path.read_text())
    if (data.order, data.gid) != (order, gid):
        raise CacheFingerprintError("cache entry is for a different group")
    if data.ie_count != expected_ie:
        raise CacheFingerprintError(
            f"stale fingerprint: cached IE {data.ie_count}, group has {expected_ie}")
    return data
