"""Checks on the package source with the stdlib ``ast`` module: no module
imports a name it never uses, every private top-level function and private
module-level assigned name is referenced somewhere in the package, only
``groups`` chooses between a dense and a structural realization, only
``tables`` imports the result cache, which imports no catsq module, no
dataclass constructor multiplies, only the memo decorator touches a group's
``_cache``, no memoized stage is annotated to return a list or a dict, no
module beyond ``groups`` builds a position dict over ``enumerate``, the
Aut(G) closure, the Aut(G) table and both classifiers find moved codes or
rows through the one lookup ``groups._code_positions``, nothing calls
``searchsorted``, the closure and both classifiers label orbits with the one
orbit routine ``groups._orbit_labels``, only ``cli.cmd_inspect`` reads a
classification's ``families``, and no array has a floating-point dtype.
Every public
top-level function and class is reached by another unit of the package
(the ``__init__`` re-exports count) or named in README.md, so that no helper
lives in ``src/`` for the tests alone, and every function that
``perfbench/child.py`` traces still exists on its module."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "catsq").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SRC}


def _used_names(tree):
    """Identifiers and attribute names read anywhere in ``tree``."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_sources_found():
    assert {"__init__.py", "groups.py", "xsq.py"} <= set(TREES)


def test_no_unused_imports():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":  # its imports are the public re-exports
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_no_unreferenced_private_functions():
    used = set().union(*map(_used_names, TREES.values()))
    dead = [f"{name}: {node.name}" for name, tree in TREES.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and node.name not in used]
    assert dead == []


def test_no_unreferenced_private_module_names():
    read = {n.id for tree in TREES.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    read |= {n.attr for tree in TREES.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)}
    dead = []
    for name, tree in TREES.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            dead += [f"{name}: {t.id}" for t in targets
                     if isinstance(t, ast.Name) and t.id.startswith("_")
                     and not t.id.startswith("__") and t.id not in read]
    assert dead == []


def test_realization_is_chosen_only_in_groups():
    """``semidirect_product`` is the one place that picks dense or structural,
    so no other module imports or reads ``DENSE_CAP`` or ``as_dense``."""
    outside = []
    for name, tree in TREES.items():
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        if name != "groups.py":
            outside += [f"{name}: {word}" for word in ("DENSE_CAP", "as_dense")
                        if word in _used_names(tree) | imported]
    assert outside == []


def _imported_modules(tree):
    """The modules that the import statements of ``tree`` name, as written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ([("." * node.level) + node.module] if node.module
                        else [("." * node.level) + alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_cache_is_imported_only_by_tables():
    """``catsq.cache`` is reached through ``tables.group_data`` alone, so that
    deleting it touches one module, and it imports no catsq module, so that a
    hit cannot build a group."""
    importers = {name for name, tree in TREES.items()
                 if any(m.split(".")[-1] == "cache" for m in _imported_modules(tree))}
    assert importers == {"tables.py"}
    assert [m for m in _imported_modules(TREES["cache.py"])
            if m.startswith(".") or m.split(".")[0] == "catsq"] == []


def test_post_init_checks_shapes_only():
    """No ``__post_init__`` calls ``mul``, ``conj`` or ``comm``: constructors
    check shapes, and group-theoretic properties are report lines."""
    calls = [f"{name}: {node.name} calls {call.func.attr}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
             for call in ast.walk(node)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
             and call.func.attr in ("mul", "conj", "comm")]
    assert calls == []


# Functions that may touch a group's ``_cache``: the one memo and the
# constructor that creates it.
CACHE_OWNERS = {"groups.py: _memo", "groups.py: GroupTable.__init__"}


def _units(name, tree):
    """(owner, node) for each top-level function and method of ``tree``,
    and for every other top-level statement."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                owner = getattr(node, "name", "<class body>")
                yield f"{name}: {top.name}.{owner}", node
        else:
            yield f"{name}: {getattr(top, 'name', '<module>')}", top


def test_only_memo_touches_the_group_cache():
    """Every per-group stage is memoized through ``groups._memo``; no other
    function reads or writes ``._cache``."""
    touches, owners = [], set()
    for name, tree in TREES.items():
        for owner, unit in _units(name, tree):
            for n in ast.walk(unit):
                if isinstance(n, ast.Attribute) and n.attr == "_cache":
                    owners.add(owner)
                    if owner not in CACHE_OWNERS:
                        touches.append(f"{owner} line {n.lineno}")
    assert touches == []
    assert owners == CACHE_OWNERS


def _memo_stages_returning(word):
    """The memoized functions whose return annotation names ``word``, at
    any depth; raises unless more than ten functions are memoized."""
    memoized = {f"{name}: {owner}": unit for name, tree in TREES.items()
                for owner, unit in _units(name, tree)
                if any(getattr(d, "id", None) == "_memo"
                       for d in getattr(unit, "decorator_list", ()))}
    assert len(memoized) > 10
    return [owner for owner, unit in memoized.items()
            if any(getattr(n, "id", None) == word for n in ast.walk(unit.returns))]


def test_no_memo_stage_returns_a_list():
    """``_memo`` stores each stage in one form and makes its arrays
    read-only; a stored list could be changed by any caller, so no memoized
    function's return annotation names ``list``, at any depth."""
    assert _memo_stages_returning("list") == []


def test_no_memo_stage_returns_a_dict():
    """A stored dict could be changed by any caller just as a list could; a
    memoized mapping, such as the subgroup positions, is a read-only
    ``Mapping``."""
    assert _memo_stages_returning("dict") == []


def test_subgroup_positions_are_decided_only_in_groups():
    """``groups._subgroup_group`` is the one place that indexes a subgroup's
    members, so ``cat1``, ``cat2``, ``xmod`` and ``xsq`` build no dict
    comprehension over ``enumerate(...)``."""
    built = [f"{name} line {n.lineno}" for name in ("cat1.py", "cat2.py", "xmod.py", "xsq.py")
             for n in ast.walk(TREES[name]) if isinstance(n, ast.DictComp)
             for gen in n.generators
             if isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "enumerate"]
    assert built == []


def _callers(word):
    """The owners of every call of ``word``, as a method or a name."""
    return [owner for name, tree in TREES.items() for owner, unit in _units(name, tree)
            for n in ast.walk(unit)
            if isinstance(n, ast.Call) and word in (getattr(n.func, "attr", None),
                                                   getattr(n.func, "id", None))]


def _definitions(word):
    """The modules that define a top-level function ``word``."""
    return [name for name, tree in TREES.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == word]


def test_only_code_positions_searches_sorted_codes():
    """The Aut(G) closure, the Aut(G) table and both classifiers, and
    nothing else, find moved codes or rows through the one lookup
    ``groups._code_positions``, which checks that they are a permutation of
    the sorted codes; the cat1 orbit maps call it for the idempotents and
    for the pair codes.  Nothing calls ``searchsorted``."""
    assert _callers("searchsorted") == []
    assert _definitions("_code_positions") == ["groups.py"]
    assert sorted(_callers("_code_positions")) == ["cat1.py: cat1_structure_orbit_maps",
                                                   "cat1.py: cat1_structure_orbit_maps",
                                                   "cat2.py: cat2_isomorphism_classes",
                                                   "groups.py: automorphism_generators",
                                                   "groups.py: automorphism_group_as_table"]


def test_one_orbit_routine():
    """Orbits of Aut(G), on its own elements and on the cat1 and cat2
    structures, are labelled by the one routine ``groups._orbit_labels``."""
    assert _definitions("_orbit_labels") == ["groups.py"]
    assert sorted(_callers("_orbit_labels")) == ["cat1.py: cat1_isomorphism_classes",
                                                 "cat2.py: cat2_isomorphism_classes",
                                                 "groups.py: automorphism_generators"]


def _readers(attr):
    """The owners of every read of the attribute ``attr``."""
    return [owner for name, tree in TREES.items() for owner, unit in _units(name, tree)
            for n in ast.walk(unit) if isinstance(n, ast.Attribute) and n.attr == attr]


def test_only_inspect_reads_families():
    """A classification stores its label array; the families are a view
    built on read, so only ``inspect ... families`` reads them, and the
    structure count is ``len(labels)``, not a stored ``total``."""
    assert _readers("families") == ["cli.py: cmd_inspect"]
    assert _readers("total") == []


def _names_inexact_dtype(node):
    """Whether ``node`` names a float or complex dtype: a numpy type, the
    builtin ``float`` or ``complex``, or a dtype string such as ``"f4"``."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy"):
        kind = getattr(np, node.attr, None)
        return isinstance(kind, type) and issubclass(kind, np.inexact)
    if isinstance(node, ast.Name):
        return node.id in ("float", "complex")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return np.dtype(node.value).kind in "fc"
        except TypeError:
            return False
    return False


def test_no_floating_point_dtype():
    """catsq is an exact calculator, and a float product of numpy arrays
    runs in BLAS, which may start threads.  So no module names a numpy
    float or complex type, passes a float dtype to ``dtype=`` or
    ``astype``, or calls ``np.zeros``, ``np.ones`` or ``np.empty``, whose
    default dtype is float64, without a dtype."""
    found = []
    for name, tree in TREES.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and _names_inexact_dtype(n):
                found.append(f"{name} line {n.lineno}: {n.attr}")
            if not isinstance(n, ast.Call):
                continue
            dtypes = [k.value for k in n.keywords if k.arg == "dtype"]
            if getattr(n.func, "attr", None) == "astype":
                dtypes += n.args[:1]
            found += [f"{name} line {n.lineno}: {ast.unparse(d)}"
                      for d in dtypes if _names_inexact_dtype(d)]
            if (getattr(n.func, "attr", None) in ("zeros", "ones", "empty")
                    and getattr(n.func.value, "id", None) == "np"
                    and len(n.args) < 2 and not any(k.arg == "dtype" for k in n.keywords)):
                found.append(f"{name} line {n.lineno}: np.{n.func.attr} without a dtype")
    assert found == []


# Public names that only the tests and perfbench reach, each with its reason.
UNREACHED_KEPT = {
    "cat2.py: cat2_pair_indices": "perfbench/child.py traces it as the cat2.pair_scan "
                                  "span until the benchmark reads stage records from "
                                  "the library (ROADMAP item 2)",
}


def test_every_public_name_is_reached():
    """A public top-level function or class is named by a unit of the
    package other than its own definition, or in README.md; a helper that
    only the tests call belongs in the tests."""
    readers = {}
    for name, tree in TREES.items():
        for owner, unit in _units(name, tree):
            for n in ast.walk(unit):
                words = ([n.id] if isinstance(n, ast.Name)
                         else [n.attr] if isinstance(n, ast.Attribute)
                         else [a.name for a in n.names] if isinstance(n, ast.ImportFrom)
                         else [])
                for word in words:
                    readers.setdefault(word, set()).add(owner)
    readme = (ROOT / "README.md").read_text()
    unreached = []
    for name, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = f"{name}: {node.name}"
                if not ({r for r in readers.get(node.name, ())
                         if r != own and not r.startswith(own + ".")}
                        or re.search(rf"\b{node.name}\b", readme)):
                    unreached.append(own)
    assert sorted(unreached) == sorted(UNREACHED_KEPT)


def test_perfbench_traced_functions_exist():
    """A traced benchmark pass (``--trace 1``) wraps each ``(module,
    function)`` of ``TRACED`` in ``perfbench/child.py``; a deleted or
    renamed function would fail only that pass, which tier 1 never starts."""
    child = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in child.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    missing = [f"catsq.{module}.{fn}" for module, fn, _ in traced
               if not callable(getattr(importlib.import_module(f"catsq.{module}"), fn, None))]
    assert len(traced) > 10 and missing == []
