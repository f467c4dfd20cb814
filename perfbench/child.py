"""One pass of a perfbench workload, run in a fresh interpreter.

``perfbench/run.py`` starts this script once per pass with the checkout's
``src/`` on ``PYTHONPATH``.  A fresh interpreter per pass matters because
``catalog._built`` and ``GroupTable._cache`` memoize every group and stage
in-process, so a second pass in one interpreter would time dict lookups.

    python3 perfbench/child.py '<job as JSON>'

The job's ``mode`` is one of

``prepare``
    write the inputs that the passes of one run share into the job's work
    directory: the request texts of ``convert``, or the populated cache that
    ``table_warm`` reads;
``setup``
    import catsq and load the inputs, then exit (one set-up time sample);
``pass``
    set up, run the timed region once, check every output against the
    golden outside the timed region, and print one JSON line of results.

Timed code calls catsq only through module attributes (``tables.group_data``
and so on), so that a traced pass can swap each public function listed in
``TRACED`` for a wrapper that records a span around it.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import io
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("table_light", "heavy_27_5", "table_cold", "table_warm", "convert")
TABLE_WORKLOADS = ("table_light", "heavy_27_5", "table_cold", "table_warm")
HEAVY_TIMED = (27, 5)

# (module, public function, span name).  A span's self time is charged to
# its name; parse_cat2/parse_xsq and emit_cat2/emit_xsq share one name each.
TRACED = (
    ("catalog", "small_group", "catalog.small_group"),
    ("groups", "idempotent_endomorphisms", "groups.idempotents"),
    ("groups", "automorphism_group", "groups.automorphisms"),
    ("groups", "automorphism_generators", "groups.aut_generators"),
    ("cat1", "all_cat1_groups", "cat1.enumerate"),
    ("cat1", "cat1_isomorphism_classes", "cat1.classes"),
    ("cat2", "cat2_pair_indices", "cat2.pair_scan"),
    ("cat2", "cat2_isomorphism_classes", "cat2.classes"),
    ("cat2", "diagonal_pre_cat1", "cat2.diagonal"),
    ("tables", "group_data", "tables.group_data"),
    ("tables", "format_table", "tables.format"),
    ("cache", "read_group_data", "cache.read"),
    ("cache", "write_group_data", "cache.write"),
    ("serialize", "parse_cat2", "serialize.parse"),
    ("serialize", "parse_xsq", "serialize.parse"),
    ("serialize", "emit_cat2", "serialize.emit"),
    ("serialize", "emit_xsq", "serialize.emit"),
    ("xsq", "crossed_square_of_cat2", "xsq.to_xsq"),
    ("xsq", "cat2_of_crossed_square", "xsq.to_cat2"),
)

# Spans whose arguments and results Tracer.counts reads.
COUNTED_CALLS = frozenset({
    "catalog.small_group", "groups.idempotents", "groups.automorphisms",
    "cat1.enumerate", "cat1.classes", "cat2.pair_scan", "cat2.classes",
    "cat2.diagonal", "cache.read", "cache.write"})

# Work counts a traced pass reports, all zero unless the layer ran.
COUNTS = ("catalog.groups", "groups.idempotents", "groups.automorphisms",
          "groups.hom_candidates", "cat1.structures", "cat1.classes",
          "cat2.pairs", "cat2.classes", "cat2.bad_diagonals", "cache.bytes",
          "cache.hits", "cache.misses", "xsq.conversions")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- inputs -------------------------------------------------------------------


def table_keys(workload: str) -> list[tuple[int, int]]:
    from catsq import catalog, tables

    light = [k for k in catalog.catalog_keys() if k not in tables.HEAVY_KEYS]
    return {"table_light": light,
            "heavy_27_5": [HEAVY_TIMED],
            "table_cold": light,
            "table_warm": light + [HEAVY_TIMED]}[workload]


def convert_requests() -> list[tuple[str, str]]:
    """(request id, input text) in canonical order.

    Forward requests are the cat2 texts of every cat2 structure on the groups
    of order <= 16 except 16/14; reverse requests are the crossed squares of
    those on groups of order <= 12.
    """
    from catsq import catalog, cat2, serialize, xsq

    forward, reverse = [], []
    for order, gid in catalog.catalog_keys():
        if order > 16 or (order, gid) == (16, 14):
            continue
        for pos, C in enumerate(cat2.all_cat2_groups(catalog.small_group(order, gid))):
            forward.append((f"fwd {order}/{gid}/{pos}", serialize.emit_cat2(C, (order, gid))))
            if order <= 12:
                reverse.append((f"rev {order}/{gid}/{pos}",
                                serialize.emit_xsq(xsq.crossed_square_of_cat2(C))))
    return forward + reverse


def inputs_digest(requests) -> str:
    return digest("".join(f"{rid}\n{text}" for rid, text in requests))


def d20_inclusion_square():
    """The crossed square C5 <= D10, D10' <= D20, whose cat2 has order 10,000."""
    from catsq import catalog, groups, xsq

    d20 = catalog.small_group(20, 4)
    p1, s = d20.generators[:2]
    p1sq = d20.mul(p1, p1)
    return xsq.crossed_square_by_normal_subgroups(
        groups.subgroup_generated(d20, [p1sq]),
        groups.subgroup_generated(d20, [p1sq, s]),
        groups.subgroup_generated(d20, [p1sq, d20.mul(p1, s)]),
        d20)


# -- golden checks ------------------------------------------------------------


def expected_table(computed, golden_csv: str) -> str:
    """The golden CSV with every row outside ``computed`` shown as skipped."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for n, cells in enumerate(csv.reader(io.StringIO(golden_csv))):
        if n and (int(cells[0]), int(cells[1])) not in computed:
            cells = cells[:3] + ["skipped"] * 6
        writer.writerow(cells)
    return out.getvalue()


def table_failures(text: str, computed, golden_csv: str) -> tuple[int, int]:
    """(lines checked, lines differing from the golden table)."""
    want = expected_table(computed, golden_csv).splitlines()
    got = text.splitlines()
    return len(want), sum(a != b for a, b in itertools.zip_longest(got, want))


def read_convert_golden(text: str) -> dict[str, str]:
    """Request id (or 'inputs', 'big') -> golden digest or value."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            rid, _, value = line.rpartition(" ")
            out[rid] = value
    return out


def convert_failures(digests: dict[str, str], golden: dict[str, str]) -> tuple[int, int]:
    """(requests checked, requests whose output digest differs or is missing)."""
    wanted = [rid for rid in golden if rid != "inputs"]
    return len(wanted), sum(digests.get(rid) != golden[rid] for rid in wanted)


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans around calls into catsq's public functions, held in memory.

    A span is ``[name, start, end, parent index, trace id, error]``; spans of
    one group or one request share the trace id.  ``calls`` keeps the
    arguments and result of each call named in ``COUNTED_CALLS``, so that work
    counts are taken after the timed region, not inside it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = ""
        self.calls: list[tuple[str, tuple, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.trace_id, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name in COUNTED_CALLS:
                self.calls.append((name, args, result))
            return result
        return traced

    def install(self) -> None:
        """Replace each ``TRACED`` function wherever a catsq module holds it."""
        targets = [(importlib.import_module("catsq." + module), fn_name, span)
                   for module, fn_name, span in TRACED]
        modules = [m for name, m in sys.modules.items()
                   if name == "catsq" or name.startswith("catsq.")]
        for module, fn_name, span in targets:
            original = getattr(module, fn_name)
            wrapper = self.wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def counts(self) -> dict[str, int]:
        from catsq import cache

        counts = dict.fromkeys(COUNTS, 0)
        first = set()
        for name, args, result in self.calls:
            key = (name, args if name == "catalog.small_group" else id(args[0]))
            is_first = key not in first
            first.add(key)
            if name == "catalog.small_group":
                counts["catalog.groups"] += is_first
            elif name in ("groups.idempotents", "groups.automorphisms") and is_first:
                counts[name] += len(result)
                counts["groups.hom_candidates"] += hom_candidates(args[0])
            elif name == "cat1.enumerate" and is_first:
                counts["cat1.structures"] += len(result)
            elif name in ("cat1.classes", "cat2.classes") and is_first:
                counts[name] += len(result.families)
            elif name == "cat2.pair_scan" and is_first:
                counts["cat2.pairs"] += len(result)
            elif name == "cat2.diagonal":
                counts["cat2.bad_diagonals"] += not result[1]
            elif name == "cache.read":
                counts["cache.bytes"] += cache.cache_path(*args[:3]).stat().st_size
            elif name == "cache.write":
                counts["cache.bytes"] += Path(result).stat().st_size
        for span in self.spans:
            if span[0] == "cache.read":
                counts["cache.misses" if span[5] else "cache.hits"] += 1
            elif span[0] in ("xsq.to_xsq", "xsq.to_cat2"):
                counts["xsq.conversions"] += 1
        return counts


def hom_candidates(G) -> int:
    """Generator-image tuples an End(G) search over element orders tries.

    Computed from ``element_orders``, not counted inside catsq: the product
    over generators g of the number of h whose order divides the order of g.
    """
    orders = G.element_orders()
    total = 1
    for g in G.generators:
        total *= sum(1 for h in G.elements() if orders[g] % orders[h] == 0)
    return total


class _NoTrace:
    """Stands in for a Tracer in untraced passes."""

    trace_id = ""


# -- passes -------------------------------------------------------------------


def format_rows(data) -> str:
    """The ``catsq table`` CSV, with the groups missing from ``data`` skipped."""
    from catsq import catalog, tables

    rows = []
    for key in catalog.catalog_keys():
        entry = catalog.catalog_entry(*key)
        rows.append((entry, tables.row_from_data(entry, data[key]) if key in data else None))
    return tables.format_table(rows)


def table_pass(keys, cache_dir, tracer, golden_csv):
    from catsq import tables

    latencies, data = [], {}
    start = time.perf_counter()
    for order, gid in keys:
        tracer.trace_id = f"{order}/{gid}"
        t = time.perf_counter()
        data[(order, gid)] = tables.group_data(order, gid, cache_dir)
        latencies.append(time.perf_counter() - t)
    tracer.trace_id = "format"
    text = format_rows(data)
    wall = time.perf_counter() - start
    attempted, failed = table_failures(text, set(keys), golden_csv)
    return wall, latencies, text, attempted, failed


def convert_one(rid: str, text: str):
    """The ``catsq convert`` path for one request: (emitted text, square or None)."""
    from catsq import serialize, xsq

    if rid.startswith("fwd"):
        X = xsq.crossed_square_of_cat2(serialize.parse_cat2(text))
        return serialize.emit_xsq(X), X
    return serialize.emit_cat2(xsq.cat2_of_crossed_square(serialize.parse_xsq(text))), None


def convert_pass(requests, square, tracer, golden):
    """The text requests, then the order-10,000 conversion of ``square``."""
    from catsq import xsq

    latencies, digests = [], {}
    for rid, text in requests:
        tracer.trace_id = rid
        t = time.perf_counter()
        out, _ = convert_one(rid, text)
        latencies.append(time.perf_counter() - t)
        digests[rid] = digest(out)
    tracer.trace_id = "big"
    t = time.perf_counter()
    big = xsq.cat2_of_crossed_square(square)
    latencies.append(time.perf_counter() - t)
    digests["big"] = str(big.group.order)
    text = "".join(f"{rid} {digests[rid]}\n" for rid in sorted(digests))
    attempted, failed = convert_failures(digests, golden)
    return sum(latencies), latencies, text, attempted, failed


# -- entry point --------------------------------------------------------------


def import_catsq() -> None:
    import catsq

    where = Path(catsq.__file__).resolve().parent
    if where != ROOT / "src" / "catsq":
        raise SystemExit(f"catsq was imported from {where}, not from this checkout's src/")


def prepare(job) -> dict:
    """Write the inputs a run's passes share; report the checks made on them."""
    from catsq import tables, xsq

    if job["workload"] != "convert":
        for order, gid in table_keys(job["workload"]):
            tables.group_data(order, gid, Path(job["cache_dir"]))
        return {"attempted": 0, "failed": 0}
    requests = convert_requests()
    (Path(job["work"]) / "requests.json").write_text(json.dumps(requests))
    golden = read_convert_golden((GOLDEN / "convert.txt").read_text())
    # every forward result must be a valid crossed square; checked here rather
    # than in a timed pass
    squares = [convert_one(rid, text)[1] for rid, text in requests if rid.startswith("fwd")]
    invalid = sum(not xsq.is_crossed_square(X).ok for X in squares)
    return {"attempted": 1 + len(squares),
            "failed": int(inputs_digest(requests) != golden["inputs"]) + invalid}


def run_pass(job) -> dict:
    workload = job["workload"]
    if workload in TABLE_WORKLOADS:
        inputs = table_keys(workload)
        golden = (GOLDEN / "table.csv").read_text()
    else:
        inputs = [tuple(r) for r in json.loads((Path(job["work"]) / "requests.json").read_text())]
        square = d20_inclusion_square()
        golden = read_convert_golden((GOLDEN / "convert.txt").read_text())
    random.Random(job["seed"]).shuffle(inputs)
    tracer = _NoTrace()
    if job.get("spans"):
        tracer = Tracer()
        tracer.install()
    setup = time.monotonic() - job["launched"]
    if job["mode"] == "setup":
        return {"setup_s": setup}

    if workload in TABLE_WORKLOADS:
        cache_dir = Path(job["cache_dir"]) if job.get("cache_dir") else None
        wall, latencies, text, attempted, failed = table_pass(inputs, cache_dir, tracer, golden)
    else:
        wall, latencies, text, attempted, failed = convert_pass(inputs, square, tracer, golden)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup, "wall_s": wall, "latencies": latencies,
              "rss_mb": rss_mb, "attempted": attempted, "failed": failed,
              "output_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if job.get("spans"):
        with open(job["spans"], "w") as fh:
            for name, start, end, parent, trace_id, error in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace_id,
                                     "error": error}) + "\n")
        result["counts"] = tracer.counts()
    return result


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    import_catsq()
    result = prepare(job) if job["mode"] == "prepare" else run_pass(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
