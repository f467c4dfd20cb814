import csv
import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catsq import catalog, cat2
from catsq.cat1 import all_cat1_groups
from catsq.cat2 import all_cat2_groups
from catsq.cli import main
from catsq.groups import idempotent_endomorphisms
from catsq.serialize import emit_cat1, emit_cat2, emit_xsq
from catsq.tables import HEAVY_KEYS
from catsq.xsq import crossed_square_of_cat2
from constructions import trivial_action, trivial_action_crossed_square


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "catsq.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_table_imports_no_numpy_module_beyond_catsq():
    """In a fresh interpreter, the table pipeline imports no numpy module
    that ``import numpy`` did not; ``import catsq`` alone imports no numpy
    module at all.  (``np.unique`` without ``return_*`` flags imports
    numpy.ma, about 19 ms, on numpy 2.4.)"""
    code = ("import sys, numpy\n"
            "before = {m for m in sys.modules if m.startswith('numpy')}\n"
            "from catsq import tables\n"
            "tables.build_table()\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy') and m not in before))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_table_path_builds_no_homomorphism_per_structure():
    """In a fresh interpreter, the table row of 27/5 (236 idempotents, 2,108
    cat1 structures) constructs no more ``Homomorphism`` values than Aut(G)
    has generators: the counts come from the arrays, not from objects."""
    code = ("from catsq import catalog, groups, tables\n"
            "made = 0\n"
            "check = groups.Homomorphism.__post_init__\n"
            "def counted(self):\n"
            "    global made\n"
            "    made += 1\n"
            "    check(self)\n"
            "groups.Homomorphism.__post_init__ = counted\n"
            "tables.compute_group_data(27, 5)\n"
            "print(made, len(groups.automorphism_generators(catalog.small_group(27, 5))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    built, generators = map(int, proc.stdout.split())
    assert built <= generators < 20


def test_table_csv_header(capsys):
    assert main(["table", "--max-order", "6"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "order,id,name,ie,cat1,cat1_classes,cat2,cat2_classes,bad_diagonals"
    assert lines[1] == "1,1,I,1,1,1,1,1,0"
    assert len(lines) == 1 + 8  # groups of order <= 6


def test_table_tsv(capsys):
    assert main(["table", "--max-order", "4", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert "\t" in out and "," not in out.split("\n")[1]


def test_table_tsv_is_the_tab_joined_cells_of_every_row(capsys):
    """The tsv bytes of all 92 rows are the cells of the golden table joined
    by tabs, with the heavy rows skipped."""
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "table.csv"
    want = ""
    for n, cells in enumerate(csv.reader(golden.read_text().splitlines())):
        if n and (int(cells[0]), int(cells[1])) in HEAVY_KEYS:
            cells = cells[:3] + ["skipped"] * 6
        want += "\t".join(cells) + "\n"
    assert main(["table", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == want


def test_table_check_passes_small(capsys):
    assert main(["table", "--max-order", "12", "--check"]) == 0
    err = capsys.readouterr().err
    assert "match" in err


def test_table_marks_heavy_rows_skipped(capsys):
    # the check reports the one genuine reference-data inconsistency at
    # order 16 (the 16/11 bad-diagonal entry) and exits nonzero
    assert main(["table", "--max-order", "16", "--check"]) == 1
    captured = capsys.readouterr()
    skipped = [l for l in captured.out.split("\n") if "skipped" in l]
    assert len(skipped) == 1 and skipped[0].startswith("16,14,")
    assert "16/11" in captured.err and "bad diagonals 5" in captured.err


def test_table_rejects_large_order(capsys):
    assert main(["table", "--max-order", "31"]) == 2


@pytest.mark.parametrize("order", ["0", "-3"])
def test_table_rejects_order_below_one(capsys, order):
    # below order 1 the table would be a bare header that --check passes
    assert main(["table", "--max-order", order, "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the catalog starts at order 1\n"


def test_inspect_count(capsys):
    assert main(["inspect", "cat1", "12", "3", "count"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_inspect_families(capsys):
    assert main(["inspect", "cat2", "8", "2", "families"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "families 14"
    sizes = sorted(len(l.split()) for l in lines[1:])
    assert sizes == [1, 1, 1] + [4] * 11


def test_inspect_first_cat2(capsys):
    assert main(["inspect", "cat2", "8", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("size 8 ")
    assert "catsq 1 cat2" in out


def test_inspect_index_out_of_range(capsys):
    assert main(["inspect", "cat1", "12", "3", "5"]) == 2
    err = capsys.readouterr().err
    assert "there are 2 classes" in err


def test_inspect_unknown_key(capsys):
    assert main(["inspect", "cat1", "12", "9", "1"]) == 2
    assert "valid ids" in capsys.readouterr().err


def test_inspect_classes_lists_all(capsys):
    assert main(["inspect", "cat1", "8", "3", "classes"]) == 0
    out = capsys.readouterr().out
    assert out.count("catsq 1 cat1") == 3


# sha256 of the stdout of `catsq inspect KIND ORDER ID SELECTOR`, recorded
# when the command still rebuilt its representatives from the cache payload;
# a regression pin for the representatives and families of both classifiers
INSPECT_SHA256 = {
    ("cat1", 8, 3, "count"): "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    ("cat1", 8, 3, "families"): "c9accbcb2aa6fb795357702b0e8f0ecd5a5f5f2934edc33341cf39b01a22e76e",
    ("cat1", 8, 3, "classes"): "a22c601a03f8789c4786cc1ca4ffd87dec8bb084dcbf0151a776d9b5585083bb",
    ("cat1", 8, 3, "1"): "2e6ea76152df23ee4ea739d98289a9a610dbbf6639ac29f19dd865339c3c0aa2",
    ("cat2", 8, 3, "count"): "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    ("cat2", 8, 3, "families"): "4a494c972fd4dbbac0c8b08b76d3ae353510ab6710ab7da89a3dbfbd85e1526e",
    ("cat2", 8, 3, "classes"): "c7ae86efed0923d313bae128357cd8a937f4b2b23fc80c62d1ec2b5a18313f1b",
    ("cat2", 8, 3, "1"): "85b9af5a5d100b14a8cacfc993737191053b636a0199f4c19e80f8876ca84b47",
    ("xsq", 8, 3, "count"): "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    ("xsq", 8, 3, "families"): "4a494c972fd4dbbac0c8b08b76d3ae353510ab6710ab7da89a3dbfbd85e1526e",
    ("xsq", 8, 3, "classes"): "9c97a31a9e406f05807824ea0042b033d3256de9160478773c6d8ffcdbd487a5",
    ("xsq", 8, 3, "1"): "9b3274abe276ee0c00c04518833827d61927d3e69f1f07bfe0962fb68992602e",
    ("cat1", 16, 11, "count"): "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
    ("cat1", 16, 11, "families"): "a8afc821fc09a84f787ab85bce42d478f2f69f435179665a2f7b15b67f9b286c",
    ("cat1", 16, 11, "classes"): "5f9fec7fc8c45f736979c36f39438c5842f1b0ed6f7c6c1e4489a737c05fda36",
    ("cat1", 16, 11, "1"): "c426a6c75409e7381694ef6357ad38fc4094d70f2922242b1ffbd32514d2a569",
    ("cat2", 16, 11, "count"): "3840bc236ee03aacbb1ef7d5108ddfa347c59f10b68d4174affbb53140f31273",
    ("cat2", 16, 11, "families"): "39428d1cfb55ff3e12cb11de0b1973a0fdd2d0646880d5dd5e2d8f24931b44ce",
    ("cat2", 16, 11, "classes"): "a941b2ff43c160ace9cb0dd1a33bd949a1979b675f6b580cd2d7c0b2bf61b455",
    ("cat2", 16, 11, "1"): "ffa4b368ac41e2f9055cf0d5a54c2a86f9ad8fd3c1ad69483bb74ec8e63f1d15",
    ("xsq", 16, 11, "count"): "3840bc236ee03aacbb1ef7d5108ddfa347c59f10b68d4174affbb53140f31273",
    ("xsq", 16, 11, "families"): "39428d1cfb55ff3e12cb11de0b1973a0fdd2d0646880d5dd5e2d8f24931b44ce",
    ("xsq", 16, 11, "classes"): "7c7585258b294954b15db2b3e1c887c55644961771c1957bfafeb38cf3e74abf",
    ("xsq", 16, 11, "1"): "91754a1410a73d884c003072d8607ae029ab9482753bb0bd30a2c23a598f7a91",
}


def test_inspect_output_pinned(capsys):
    got = {}
    for kind, order, gid, selector in INSPECT_SHA256:
        assert main(["inspect", kind, str(order), str(gid), selector]) == 0
        got[kind, order, gid, selector] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == INSPECT_SHA256


def test_inspect_has_no_cache_option(capsys):
    with pytest.raises(SystemExit):
        main(["inspect", "cat1", "8", "3", "count", "--cache-dir", "x"])
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err


def test_convert_round_trip(tmp_path, capsys):
    assert main(["inspect", "xsq", "8", "3", "2"]) == 0
    sq = capsys.readouterr().out
    f = tmp_path / "sq.catsq"
    f.write_text(sq)
    out_file = tmp_path / "c2.catsq"
    assert main(["convert", str(f), "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("catsq 1 cat2")
    back = tmp_path / "sq2.catsq"
    assert main(["convert", str(out_file), "-o", str(back)]) == 0
    assert back.read_text().startswith("catsq 1 xsq")


def test_check_valid_structure(tmp_path, capsys):
    assert main(["inspect", "cat2", "8", "3", "1"]) == 0
    out = capsys.readouterr().out
    body = out.split("\n", 1)[1]  # drop the size line
    f = tmp_path / "c.catsq"
    f.write_text(body)
    assert main(["check", str(f)]) == 0
    report = capsys.readouterr().out
    assert "commutation identities: pass" in report


def test_check_reports_failure(tmp_path, capsys):
    # the Q8 zero pre-cat1 fails the kernel-commutator axiom
    zero = " ".join("0" for _ in range(8))
    text = f"catsq 1 cat1\ngroup key 8 4\nt {zero}\nh {zero}\nend\n"
    f = tmp_path / "bad.catsq"
    f.write_text(text)
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "[ker t, ker h] = 1" in out


def _words(mapping):
    return " ".join(str(v) for v in mapping)


def test_check_cat1_identity_failures_name_witnesses(tmp_path, capsys):
    # t and h project D8 onto different subgroups of order 2
    G = catalog.small_group(8, 3)
    halves = [f.mapping for f in idempotent_endomorphisms(G) if len(set(f.mapping)) == 2]
    t = halves[0]
    h = next(m for m in halves if set(m) != set(t))
    f = tmp_path / "bad.catsq"
    f.write_text(f"catsq 1 cat1\ngroup key 8 3\nt {_words(t)}\nh {_words(h)}\nend\n")
    assert main(["check", str(f)]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert [l.split(":")[0] for l in lines] == ["t is a homomorphism", "h is a homomorphism",
                                                "t o h = h", "h o t = t", "[ker t, ker h] = 1"]
    assert lines[:2] == ["t is a homomorphism: pass", "h is a homomorphism: pass"]
    fails = [l for l in lines if "FAIL" in l]
    assert len(fails) >= 2
    assert all(re.search(r"FAIL witness \(\d+,( \d+)?\)$", l) for l in fails)


def test_check_cat2_reports_commutation_after_structure_failure(tmp_path, capsys):
    # structure 1 is the zero pre-cat1 on Q8 (kernels do not commute),
    # structure 2 the identity; the two commute
    zero, ident = _words([0] * 8), _words(range(8))
    f = tmp_path / "bad2.catsq"
    f.write_text(f"catsq 1 cat2\ngroup key 8 4\nt1 {zero}\nh1 {zero}\n"
                 f"t2 {ident}\nh2 {ident}\nend\n")
    assert main(["check", str(f)]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [
        "structure 1: t is a homomorphism: pass",
        "structure 1: h is a homomorphism: pass",
        "structure 1: t o h = h: pass",
        "structure 1: h o t = t: pass",
        lines[4],
        "structure 2: t is a homomorphism: pass",
        "structure 2: h is a homomorphism: pass",
        "structure 2: t o h = h: pass",
        "structure 2: h o t = t: pass",
        "structure 2: [ker t, ker h] = 1: pass",
        "commutation identities: pass",
    ]
    assert re.fullmatch(r"structure 1: \[ker t, ker h\] = 1: FAIL witness \(\d+, \d+\)",
                        lines[4])


def _two_by_two_square():
    """A crossed square text whose L and P have order 2, so actl has a
    nontrivial row and the pairing a row of L indices."""
    text = emit_xsq(crossed_square_of_cat2(all_cat2_groups(catalog.small_group(4, 2))[-1]))
    assert "\nactl 2\n0 1\n0 1\n" in text and "\npairing 1\n0\n" in text
    return text


_SQUARE = _two_by_two_square()
_C2 = "catsq 1 cat2\ngroup table 2 C2\n0 1\n1 0\n"
_C2_MAPS = "t1 0 1\nh1 0 1\nt2 0 1\nh2 0 1\nend\n"
# the catalog S3 table with a gens line that reaches only {0, 1}, and maps
# that respect products by 1 but are no homomorphisms: 2 * 2 = 4
_S3_GENS_1 = ("catsq 1 cat2\ngroup table 6 S3\n"
              + "".join(_words(row) + "\n" for row in catalog.small_group(6, 1).table)
              + "gens 1\n" + "".join(f"{m} 0 0 2 2 2 2\n" for m in ("t1", "h1", "t2", "h2"))
              + "end\n")

# name -> (file text, token the error message must name)
MALFORMED = {
    "version": ("catsq x cat1\ngroup key 8 3\nend\n", "'x'"),
    "numeric kind": ("catsq 1 0\ngroup key 8 3\nend\n", "files of kind '0'"),
    "cache kind": ("catsq 1 cache\ngroup key 8 3\nend\n", "files of kind 'cache'"),
    "key without id": ("catsq 1 cat2\ngroup key 8\nend\n", "group key"),
    "unknown key": ("catsq 1 cat2\ngroup key 8 99\nend\n", "(8,99)"),
    "table size": ("catsq 1 cat2\ngroup table x\nend\n", "'x'"),
    "actl count": (re.sub(r"^actl \d+$", "actl", _SQUARE, flags=re.M), "'actl'"),
    "generator": (_C2 + "gens 5\n" + _C2_MAPS, "generator 5"),
    "gens do not generate": (_S3_GENS_1, "the generators of 'S3' reach only 2 of its 6 elements"),
    "map image": (_C2 + "gens 1\n" + _C2_MAPS.replace("t1 0 1", "t1 0 99"),
                  "map t1 has entry 99"),
    "negative generator": (_C2 + "gens -1\n" + _C2_MAPS, "generator -1"),
    "empty table": ("catsq 1 cat2\ngroup table 0 E\ngens\nend\n", "['table', '0', 'E']"),
    "action image": (_SQUARE.replace("\nactl 2\n0 1\n0 1\n", "\nactl 2\n0 1\n0 7\n"),
                     "actl row 1 has entry 7"),
    "pairing entry": (_SQUARE.replace("\npairing 1\n0\n", "\npairing 1\n5\n"),
                      "pairing row 0 has entry 5"),
    "map length": (_C2 + "gens 1\n" + _C2_MAPS.replace("t2 0 1", "t2 0"),
                   "map t2: mapping length must equal the source order"),
    "map identity": (_C2 + "gens 1\n" + _C2_MAPS.replace("t1 0 1", "t1 1 0"),
                     "map t1: a homomorphism must send identity to identity"),
    "xsq map length": (_SQUARE.replace("\nkappa 0 0\n", "\nkappa 0\n"),
                       "map kappa: mapping length must equal the source order"),
    "action identity": (_SQUARE.replace("\nactl 2\n0 1\n0 1\n", "\nactl 2\n1 0\n0 1\n"),
                        "actl: the identity must act trivially"),
    "action permutation": (_SQUARE.replace("\nactl 2\n0 1\n0 1\n", "\nactl 2\n0 1\n1 1\n"),
                           "actl: actor images must be permutations of the space: row 1 misses 0"),
}


def _rejected_in_process(tmp_path, capsys, name):
    """``check`` and ``convert`` end the file ``MALFORMED[name]`` with exit
    status 2 and one message naming the bad token; any exception other than
    the ``GroupError`` they report escapes ``main`` and fails the caller."""
    text, token = MALFORMED[name]
    f = tmp_path / "bad.catsq"
    f.write_text(text)
    for command, prefix in (("check", "invalid: "), ("convert", "error: ")):
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and token in err, (command, err)


@pytest.mark.parametrize("name", ["version", "key without id", "unknown key", "table size",
                                  "actl count", "generator", "gens do not generate"])
def test_malformed_file_no_traceback(tmp_path, capsys, name):
    _rejected_in_process(tmp_path, capsys, name)


@pytest.mark.parametrize("name", ["map image", "negative generator", "empty table",
                                  "action image", "pairing entry", "map length", "map identity",
                                  "xsq map length", "action identity", "action permutation",
                                  "numeric kind", "cache kind"])
def test_malformed_values_rejected(tmp_path, capsys, name):
    _rejected_in_process(tmp_path, capsys, name)


def _cat2_text(key, t1, h1, t2, h2):
    return (f"catsq 1 cat2\ngroup key {key[0]} {key[1]}\nt1 {_words(t1)}\nh1 {_words(h1)}\n"
            f"t2 {_words(t2)}\nh2 {_words(h2)}\nend\n")


def _bijection_not_hom():
    """The identity on C4 with an element of order 4 and one of order 2 swapped."""
    orders = catalog.small_group(4, 1).element_orders()
    t1 = list(range(4))
    i, j = orders.index(2), orders.index(4)
    t1[i], t1[j] = j, i
    return _cat2_text((4, 1), t1, range(4), range(4), range(4))


def _noncommuting_pair():
    cat1s = all_cat1_groups(catalog.small_group(6, 1))
    c1, c2 = next((a, b) for a in cat1s for b in cat1s
                  if next(cat2._noncommuting(a, b), None) is not None)
    return _cat2_text((6, 1), c1.tail.mapping, c1.head.mapping,
                      c2.tail.mapping, c2.head.mapping)


# name -> (well-formed file text that fails a check, the check the error names)
INVALID = {
    "cat2 map not a homomorphism": (_bijection_not_hom(),
                                    "structure 1: t is a homomorphism fails with witness ("),
    "cat2 kernel axiom": (_cat2_text((8, 4), [0] * 8, [0] * 8, range(8), range(8)),
                          "[ker t, ker h] = 1"),
    "cat2 commutation": (_noncommuting_pair(), "commutation identities"),
    "xsq action not by automorphisms": (
        _SQUARE.replace("\nactl 2\n0 1\n0 1\n", "\nactl 2\n0 1\n1 0\n"),
        "actl is an action fails with witness (1, 0, 0)"),
    "xsq pairing axiom": (_SQUARE.replace("\npairing 1\n0\n", "\npairing 1\n1\n"),
                          "not a crossed square: axiom"),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_convert_rejects_invalid_input(tmp_path, capsys, name):
    """``convert`` validates its input where it parses it: a well-formed file
    that fails a check ends with exit status 2 and one line naming the check."""
    text, check = INVALID[name]
    f = tmp_path / "bad.catsq"
    f.write_text(text)
    assert main(["convert", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert check in captured.err, captured.err


# on S3, t(2 * 3) = t(5) = 0 but t(2) t(3) = 1 * 0 = 1
_S3_NOT_HOM = (0, 1, 1, 0, 0, 0)
_S3_CAT1_LINES = ["t is a homomorphism: FAIL witness (2, 3)", "h is a homomorphism: pass",
                  "t o h = h: FAIL witness (2,)", "h o t = t: pass", "[ker t, ker h] = 1: pass"]
_XSQ_AXIOMS = ["square-commutes", "axiom1:kappa", "axiom1:lambda", "axiom1:mu", "axiom1:nu",
               "axiom1:pi", "axiom1:kappa-equivariant", "axiom1:lambda-equivariant",
               "axiom2:left", "axiom2:right", "axiom3:kappa", "axiom3:lambda",
               "axiom4:kappa", "axiom4:lambda", "axiom5"]


def _c5_square_bad_actl():
    """The square C5 -> 1, 1 -> C2 with trivial actions, except that the
    generator of C2 swaps 1 and 2 of C5: a permutation fixing 0 that is no
    automorphism (those of C5 other than the identity fix 0 alone)."""
    c1, c2, c5 = (catalog.small_group(n, 1) for n in (1, 2, 5))
    text = emit_xsq(trivial_action_crossed_square(c5, c1, c1, c2, trivial_action(c2, c1),
                                                  trivial_action(c2, c1)))
    good = "\nactl 2\n0 1 2 3 4\n0 1 2 3 4\n"
    assert good in text
    return text.replace(good, "\nactl 2\n0 1 2 3 4\n0 2 1 3 4\n")


# name -> (file text with one map or action failing its line,
#          every line `check` prints, the one line `convert` prints or None)
NOT_A_MAP = {
    "cat1 t": (f"catsq 1 cat1\ngroup key 6 1\nt {_words(_S3_NOT_HOM)}\nh {_words(range(6))}\nend\n",
               _S3_CAT1_LINES, None),
    "cat2 t1": (_cat2_text((6, 1), _S3_NOT_HOM, range(6), range(6), range(6)),
                [f"structure 1: {l}" for l in _S3_CAT1_LINES]
                + [f"structure 2: {l}: pass" for l in ("t is a homomorphism", "h is a homomorphism",
                                                      "t o h = h", "h o t = t",
                                                      "[ker t, ker h] = 1")]
                + ["commutation identities: pass"],
                "error: a generating structure is not a cat1-group: "
                "structure 1: t is a homomorphism fails with witness (2, 3)"),
    "xsq actl": (_c5_square_bad_actl(),
                 [f"{n} is a homomorphism: pass" for n in ("kappa", "lambda", "mu", "nu")]
                 + ["actl is an action: FAIL witness (1, 1, 1)", "actm is an action: pass",
                    "actn is an action: pass"]
                 + [f"{n}: pass" for n in _XSQ_AXIOMS],
                 "error: not a crossed square: actl is an action fails with witness (1, 1, 1)"),
}


@pytest.mark.parametrize("name", sorted(NOT_A_MAP))
def test_check_reports_maps_and_actions_that_fail(tmp_path, capsys, name):
    """A map that is no homomorphism, or an action row that is no
    automorphism, fails its own line of the full report (exit status 1);
    ``convert`` rejects the file naming that line and its witness."""
    text, lines, error = NOT_A_MAP[name]
    f = tmp_path / "bad.catsq"
    f.write_text(text)
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out.split("\n") == lines + [""] and captured.err == ""
    if error is not None:
        assert main(["convert", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == error + "\n"


def _valid_file(kind):
    G = catalog.small_group(8, 3)
    if kind == "cat1":
        return emit_cat1(all_cat1_groups(G)[1], (8, 3))
    if kind == "cat2":
        return emit_cat2(all_cat2_groups(G)[1], (8, 3))
    return _SQUARE


@pytest.mark.parametrize("kind", ["cat1", "cat2", "xsq"])
@pytest.mark.parametrize("tail", ["garbage", "concatenated"])
def test_trailing_content_rejected(tmp_path, capsys, kind, tail):
    """Only blank lines may follow ``end``; the message names the first
    line after it that is not blank."""
    valid = _valid_file(kind)
    f = tmp_path / "ok.catsq"
    f.write_text(valid + "\n  \n")
    assert main(["check", str(f)]) == 0
    capsys.readouterr()
    extra = "garbage 1 2 3\n" if tail == "garbage" else valid
    f.write_text(valid + "\n" + extra)
    line = valid.count("\n") + 2
    commands = (("check", "invalid: "),) + ((("convert", "error: "),) if kind != "cat1" else ())
    for command, prefix in commands:
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and f"after 'end' on line {line}:" in err, (command, err)
        assert extra.split("\n")[0] in err


def test_unreadable_file(tmp_path, capsys):
    f = tmp_path / "binary.catsq"
    f.write_bytes(b"\xff\xfe")
    for path in (f, tmp_path / "missing.catsq"):
        for command, prefix in (("check", "invalid: "), ("convert", "error: ")):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith(prefix)


def test_check_invalid_file(tmp_path, capsys):
    f = tmp_path / "junk.catsq"
    f.write_text("hello\n")
    assert main(["check", str(f)]) == 2
    assert "invalid" in capsys.readouterr().err


def test_cache_cold_and_warm_runs_identical(tmp_path):
    cache = tmp_path / "cache"
    a = run_cli("table", "--max-order", "9", "--cache-dir", str(cache))
    files = sorted(p.name for p in cache.glob("*.catsq"))
    b = run_cli("table", "--max-order", "9", "--cache-dir", str(cache))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert files  # entries were written on the cold run


def test_console_entry_point_runs(tmp_path):
    """The console entry prints a table, and ends a malformed file with exit
    status 2 and a one-line message naming the bad token, never a traceback."""
    proc = run_cli("table", "--max-order", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("order,id,name")
    text, token = MALFORMED["version"]
    f = tmp_path / "bad.catsq"
    f.write_text(text)
    for command, prefix in (("check", "invalid: "), ("convert", "error: ")):
        proc = run_cli(command, str(f))
        assert proc.returncode == 2, (command, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(prefix) and token in proc.stderr, (command, proc.stderr)


def test_table_cache_dir_that_is_a_file(tmp_path, capsys):
    f = tmp_path / "F"
    f.write_text("")
    assert main(["table", "--max-order", "4", "--cache-dir", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(f) in err


def test_table_cache_entry_that_is_a_directory(tmp_path, capsys):
    entry = tmp_path / "4_2.catsq"
    entry.mkdir()
    assert main(["table", "--max-order", "4", "--cache-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(entry) in err
    assert not list(tmp_path.glob("*.tmp"))


def test_convert_output_that_is_a_directory(tmp_path, capsys):
    assert main(["inspect", "xsq", "8", "3", "2"]) == 0
    f = tmp_path / "sq.catsq"
    f.write_text(capsys.readouterr().out)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["convert", str(f), "-o", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir) in err
