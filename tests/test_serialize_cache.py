import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catsq import cache, catalog
from catsq.cache import CacheMiss, read_group_data, write_group_data
from catsq.cat2 import cat2_group
from catsq.groups import identity_hom
from catsq.serialize import (
    FormatError,
    detect_kind,
    emit_cat1,
    emit_cat2,
    emit_group,
    emit_xsq,
    parse_cat1,
    parse_cat2,
    parse_xsq,
)
from catsq.tables import compute_group_data, group_data
from catsq.xsq import crossed_square_of_cat2
from constructions import cat1_group, key_of
from test_groups import hom_by_images


def test_cat1_round_trip_with_key(d8):
    G = catalog.small_group(8, 3)
    s = G.generators[1]  # the reflection generator
    t = hom_by_images(G, G, [0, s])
    C = cat1_group(t, t)
    text = emit_cat1(C, (8, 3))
    back = parse_cat1(text)
    assert key_of(back) == (C.tail.mapping, C.head.mapping)
    assert emit_cat1(back, (8, 3)) == text
    assert detect_kind(text) == "cat1"
    # a key may only be used for the catalog instance itself
    other = cat1_group(hom_by_images(d8, d8, [d8.generators[0], 0]),
                       hom_by_images(d8, d8, [d8.generators[0], 0]))
    with pytest.raises(FormatError, match="catalog instance"):
        emit_cat1(other, (8, 3))


def test_cat2_round_trip_inline_group(d8):
    ident = cat1_group(identity_hom(d8), identity_hom(d8))
    C = cat2_group(ident, ident)
    text = emit_cat2(C)
    back = parse_cat2(text)
    assert emit_cat2(back) == text
    assert "group table 8" in text


def test_xsq_round_trip(d8):
    a, b = d8.generators
    ta = hom_by_images(d8, d8, [a, 0])
    tb = hom_by_images(d8, d8, [0, b])
    C = cat2_group(cat1_group(ta, ta), cat1_group(tb, tb))
    X = crossed_square_of_cat2(C)
    text = emit_xsq(X)
    back = parse_xsq(text)
    assert emit_xsq(back) == text


def test_emit_group_returns_a_new_list_on_each_call(d8):
    lines = emit_group(d8)
    assert lines[0] == "group table 8 D8" and lines[-1].startswith("gens ")
    again = emit_group(d8)
    assert again == lines and again is not lines
    lines.append("end")
    assert emit_group(d8) == again


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        detect_kind("not a catsq file\n")
    with pytest.raises(FormatError):
        parse_cat1("catsq 1 cat2\ngroup key 8 3\nend\n")
    with pytest.raises(FormatError):
        parse_cat1("catsq 9 cat1\ngroup key 8 3\nend\n")


ENTRY = re.compile(r"(\d+ ){6}[0-9a-f]{64}\n")


def test_group_data_round_trip(tmp_path):
    """An entry is one line: the six counts, then the 64-digit check."""
    data = compute_group_data(8, 3)
    path = write_group_data(tmp_path, 8, 3, data)
    text = path.read_text()
    assert ENTRY.fullmatch(text) and text.startswith("10 9 3 21 6 1 ")
    assert read_group_data(tmp_path, 8, 3) == data


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(1, 15), st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
def test_group_data_round_trip_random(order, gid, counts):
    with tempfile.TemporaryDirectory() as tmp:
        text = write_group_data(Path(tmp), order, gid, tuple(counts)).read_text()
        assert ENTRY.fullmatch(text)
        assert read_group_data(Path(tmp), order, gid) == tuple(counts)


def test_cache_write_read(tmp_path):
    data = compute_group_data(8, 3)
    path = write_group_data(tmp_path, 8, 3, data)
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert read_group_data(tmp_path, 8, 3) == data


def test_cache_missing_dir_created_on_demand(tmp_path):
    target = tmp_path / "deep" / "cache"
    data = compute_group_data(6, 1)
    write_group_data(target, 6, 1, data)
    assert (target / "6_1.catsq").exists()


def test_cache_error_kinds(tmp_path):
    """Every problem is one CacheMiss that names the entry's path.  The check
    covers the key, so 8/3's entry under 8/2's name is a miss too."""
    data = compute_group_data(8, 3)
    path = write_group_data(tmp_path, 8, 3, data)
    with pytest.raises(CacheMiss, match="8_2.catsq"):
        read_group_data(tmp_path, 8, 2)
    cache.cache_path(tmp_path, 8, 2).write_bytes(path.read_bytes())
    with pytest.raises(CacheMiss, match="8_2.catsq line 1: .* is not the entry of 8/2"):
        read_group_data(tmp_path, 8, 2)
    assert group_data(8, 2, cache_dir=tmp_path) == compute_group_data(8, 2)
    for text in ("catsq 1 cache\ngroup key 8 3\n", "complete nonsense\n", ""):
        path.write_text(text)
        with pytest.raises(CacheMiss, match=f"8_3.catsq line 1: {text.split(chr(10))[0]!r}"):
            read_group_data(tmp_path, 8, 3)


def test_cache_trailing_content_recomputed(tmp_path):
    data = compute_group_data(8, 3)
    path = write_group_data(tmp_path, 8, 3, data)
    text = path.read_text()
    path.write_text(text + "garbage 1 2 3\n")
    with pytest.raises(CacheMiss, match="8_3.catsq line 2: 'garbage 1 2 3'"):
        read_group_data(tmp_path, 8, 3)
    assert group_data(8, 3, cache_dir=tmp_path) == data
    assert path.read_text() == text


def test_stale_cache_triggers_recompute(tmp_path, monkeypatch):
    """An entry written under another package source is a miss, and
    group_data rewrites it under this one."""
    monkeypatch.setattr(cache, "_source_digest", lambda: "0" * 64)
    path = write_group_data(tmp_path, 8, 3, (10, 9, 3, 21, 7, 1))
    assert read_group_data(tmp_path, 8, 3) == (10, 9, 3, 21, 7, 1)
    monkeypatch.undo()
    with pytest.raises(CacheMiss, match="not the entry of 8/3 under this package source"):
        read_group_data(tmp_path, 8, 3)
    assert group_data(8, 3, cache_dir=tmp_path) == (10, 9, 3, 21, 6, 1)
    assert read_group_data(tmp_path, 8, 3) == (10, 9, 3, 21, 6, 1)
    assert path.read_text().startswith("10 9 3 21 6 1 ")


def test_altered_count_is_a_miss_and_rewritten(tmp_path):
    """The check covers all six counts: an entry with any one of them altered
    after writing is a miss, and group_data writes the true entry back."""
    data = compute_group_data(8, 3)
    path = write_group_data(tmp_path, 8, 3, data)
    text = path.read_text()
    for i in range(6):
        words = text.split(" ")
        words[i] = str(data[i] + 1)
        path.write_text(" ".join(words))
        with pytest.raises(CacheMiss, match="not the entry of 8/3"):
            read_group_data(tmp_path, 8, 3)
        assert group_data(8, 3, cache_dir=tmp_path) == data
        assert path.read_text() == text


def test_cache_counts_line_must_hold_six_counts(tmp_path):
    data = compute_group_data(8, 3)
    path = write_group_data(tmp_path, 8, 3, data)
    counts, check = path.read_text().rsplit(" ", 1)
    assert counts == "10 9 3 21 6 1"
    for bad in ("10 9 3 21 6", "10 9 3 21 6 1 7", "10 9 3 21 -6 1", "10 9 3 21 six 1",
                "010 9 3 21 6 1", "10 9 3 21 6 1 ", " 10 9 3 21 6 1", ""):
        line = f"{bad} {check}".rstrip("\n")
        path.write_text(line + "\n")
        with pytest.raises(CacheMiss, match=f"line 1: {re.escape(repr(line))} is not the entry"):
            read_group_data(tmp_path, 8, 3)
    path.write_text(f"{counts} {check}".rstrip("\n"))  # the line's newline is part of the entry
    with pytest.raises(CacheMiss, match="line 1"):
        read_group_data(tmp_path, 8, 3)


def test_old_layout_cache_entry_recomputed(tmp_path):
    """Entries in the layouts earlier versions wrote, the whole enumeration and
    the fingerprinted ``counts`` line, are misses: group_data recomputes them
    and writes the row."""
    path = tmp_path / "6_1.catsq"
    for old in ("catsq 1 cache\ngroup key 6 1\nfingerprint 6 5\ncat1 1\n"
                "0 1 2 3 4 5 0 1 2 3 4 5\ncat1-families 1\n1\ncat2 1\n1 1\n"
                "cat2-families 1\n1\nbad-diagonals 0\nend\n",
                "catsq 1 cache\ngroup key 6 1\nfingerprint 6 5\ncounts 5 4 2 7 3 0\nend\n"):
        path.write_text(old)
        with pytest.raises(CacheMiss, match="line 1: 'catsq 1 cache'"):
            read_group_data(tmp_path, 6, 1)
        data = group_data(6, 1, cache_dir=tmp_path)
        assert data == compute_group_data(6, 1)
        assert read_group_data(tmp_path, 6, 1) == data


def test_cached_equals_computed(tmp_path):
    cold = group_data(9, 2, cache_dir=tmp_path)
    warm = group_data(9, 2, cache_dir=tmp_path)
    assert cold == warm == compute_group_data(9, 2)


def test_warm_hit_builds_no_group(tmp_path, monkeypatch):
    """A hit reads the entry alone: with the catalog unable to build a group,
    group_data still returns the cached counts."""
    data = group_data(8, 3, cache_dir=tmp_path)

    def no_group(*key):
        raise AssertionError(f"a cache hit built group {key}")

    monkeypatch.setattr(catalog, "small_group", no_group)
    assert group_data(8, 3, cache_dir=tmp_path) == data


def test_unreadable_cache_entry_recomputed(tmp_path):
    """An entry that is not UTF-8 is a miss: group_data recomputes it and
    rewrites the entry."""
    path = tmp_path / "8_3.catsq"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(CacheMiss, match="8_3.catsq"):
        read_group_data(tmp_path, 8, 3)
    data = group_data(8, 3, cache_dir=tmp_path)
    assert data == compute_group_data(8, 3)
    assert read_group_data(tmp_path, 8, 3) == data


def test_directory_at_entry_path_is_a_miss(tmp_path):
    (tmp_path / "8_3.catsq").mkdir()
    with pytest.raises(CacheMiss, match="8_3.catsq"):
        read_group_data(tmp_path, 8, 3)
