"""catsq benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload table_light --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (``perfbench/child.py``) that imports catsq from the checkout's
``src/``; passes run one at a time, with no threads, until ``--seconds`` have
passed.  The seed only permutes the order of groups and requests.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics: the
self time of each catsq layer, reduced from the spans the traced passes write
to ``.perfbench/traces/<workload>/``, the layers' work counts, and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import child  # noqa: E402

ROOT = child.ROOT
STATE = ROOT / ".perfbench"
CHILD = Path(child.__file__).resolve()

DEADLINE_S = 170          # a run must end within 180 s
MIN_SETUPS = 5            # set-up samples per run, topped up by set-up-only children

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer self times, by span name.
LAYER_TIMES = {
    "catalog.small_group": "catalog.small_group_s",
    "groups.idempotents": "groups.idempotents_s",
    "groups.automorphisms": "groups.automorphisms_s",
    "groups.aut_generators": "groups.aut_generators_s",
    "cat1.enumerate": "cat1.enumerate_s",
    "cat1.classes": "cat1.classes_s",
    "cat2.pair_scan": "cat2.pair_scan_s",
    "cat2.classes": "cat2.classes_s",
    "cat2.diagonal": "cat2.diagonal_s",
    "tables.group_data": "tables.group_data_self_s",
    "tables.format": "tables.format_s",
    "cache.write": "cache.write_s",
    "cache.read": "cache.read_s",
    "serialize.parse": "serialize.parse_s",
    "serialize.emit": "serialize.emit_s",
    "xsq.to_xsq": "xsq.to_xsq_s",
    "xsq.to_cat2": "xsq.to_cat2_s",
}
PER_LAYER = {**{m: "s" for m in LAYER_TIMES.values()},
             **{c: "bytes" if c == "cache.bytes" else "count" for c in child.COUNTS},
             "trace.overhead_s": "s"}


class ChildFailed(Exception):
    pass


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile among n values."""
    return max(1, -(-n * q // 100))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def self_times(spans) -> dict[str, float]:
    """Per span name, total duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    totals = dict.fromkeys(LAYER_TIMES, 0.0)
    for s, c in zip(spans, covered):
        totals[s["name"]] += s["end"] - s["start"] - c
    return totals


class Run:
    """One run of one workload: its children, work directory and output checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 state: Path = STATE) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.work = state / f"run-{os.getpid()}"
        self.spans_dir = state / "traces" / workload
        self.env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, **job) -> dict:
        job.update(mode=mode, workload=self.workload, seed=self.seed,
                   work=str(self.work), launched=time.monotonic())
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child of {self.workload} ran past the deadline") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child of {self.workload} exited with "
                              f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        return result

    def cache_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def execute(self) -> tuple[list[dict], list[dict], list[float]]:
        """(untraced pass results, traced pass results, set-up samples)."""
        self.work.mkdir(parents=True)
        if self.trace:
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir(parents=True)
        shared = {}
        if self.workload == "convert":
            self.spawn("prepare")
        elif self.workload == "table_warm":
            shared["cache_dir"] = str(self.cache_dir("cache"))
            self.spawn("prepare", **shared)
        plain, traced = [], []
        deadline = time.monotonic() + self.seconds
        k = 0
        while not plain or (self.trace and not traced) or time.monotonic() < deadline:
            job = dict(shared)
            if self.workload == "table_cold":
                job["cache_dir"] = str(self.cache_dir("cache"))
            if self.trace and k % 2:
                job["spans"] = str(self.spans_dir / f"pass{k}.jsonl")
                traced.append(dict(self.spawn("pass", **job), spans=job["spans"]))
            else:
                plain.append(self.spawn("pass", **job))
            k += 1
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(self.spawn("setup", **shared)["setup_s"])
        return plain, traced, setups

    def end_to_end(self, plain, setups) -> dict[str, tuple[float, str]]:
        latencies_ms = [x * 1e3 for r in plain for x in r["latencies"]]
        return {
            "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain),
                       f"median of {len(plain)} passes"),
            "request_ms.p50": (percentile(latencies_ms, 50),
                               f"{len(latencies_ms)} requests"),
            "request_ms.p90": (percentile(latencies_ms, 90),
                               f"{len(latencies_ms)} requests, "
                               f"{len(latencies_ms) - rank(len(latencies_ms), 90)} above it"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain),
                            f"median of {len(plain)} passes"),
        }

    def per_layer(self, plain, traced) -> dict[str, tuple[float, str]]:
        per_pass = []
        for r in traced:
            with open(r["spans"]) as fh:
                spans = [json.loads(line) for line in fh]
            values = {LAYER_TIMES[n]: t for n, t in self_times(spans).items()}
            values.update(r["counts"])
            per_pass.append(values)
        note = f"median of {len(traced)} traced passes"
        out = {name: (statistics.median_low(p[name] for p in per_pass), note)
               for name in PER_LAYER if name != "trace.overhead_s"}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        out["trace.overhead_s"] = (overhead, f"traced minus untraced wall_s, "
                                             f"{len(traced)} and {len(plain)} passes")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=child.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catsq" / "__init__.py").is_file():
        print(f"error: no catsq sources at {ROOT / 'src' / 'catsq'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        plain, traced, setups = run.execute()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if run.trace:
        metrics, units = run.per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = run.end_to_end(plain, setups), END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for name, (value, note) in metrics.items():
        print(f"  {name:26s} {value:14.6f} {units[name]:5s}  ({note})")
    print(f"  outputs checked {run.attempted}, differing from the golden {run.failed} "
          f"(error rate {run.failed / max(1, run.attempted):g})")
    if run.trace:
        print(f"  spans written to {run.spans_dir.relative_to(ROOT)}/")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
