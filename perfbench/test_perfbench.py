"""Tests of the benchmark itself, not of catsq.

    python3 -m pytest perfbench

They start real benchmark children and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import child
import run

sys.path.insert(0, str(child.ROOT / "src"))

BENCHMARK = json.loads((child.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["table_light", "table_cold", "convert"])
def test_two_seeds_give_identical_outputs_and_counts(workload, tmp_path):
    seen = []
    for seed in (1, 2):
        bench = run.Run(workload, seed, seconds=0, trace=True, state=tmp_path / str(seed))
        plain, traced, _ = bench.execute()
        assert bench.failed == 0
        assert plain[0]["output_sha256"] == traced[0]["output_sha256"]
        seen.append((plain[0]["output_sha256"], traced[0]["counts"]))
    assert seen[0] == seen[1]


def test_table_check_flags_a_corrupted_row():
    from catsq import tables

    golden = (child.GOLDEN / "table.csv").read_text()
    computed = {(8, 3), (16, 11)}
    output = child.format_rows({k: tables.group_data(*k) for k in computed})
    assert child.table_failures(output, computed, golden) == (93, 0)
    corrupted = output.replace("16,11,C2 x D8,82,97,9,649,29,5", "16,11,C2 x D8,82,97,9,649,29,6")
    assert corrupted != output
    assert child.table_failures(corrupted, computed, golden) == (93, 1)


def test_convert_check_flags_a_corrupted_output():
    golden = child.read_convert_golden((child.GOLDEN / "convert.txt").read_text())
    rid, text = next(r for r in child.convert_requests() if r[0].startswith("fwd 4/2/"))
    output, _ = child.convert_one(rid, text)
    one = {rid: golden[rid]}
    assert child.convert_failures({rid: child.digest(output)}, one) == (1, 0)
    corrupted = output.replace("\n", "\n ", 1)
    assert child.convert_failures({rid: child.digest(corrupted)}, one) == (1, 1)


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(child.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_light", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=child.ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {}
    for line in lines[1:-1]:
        words = line.split()
        try:
            float(words[1])
        except (IndexError, ValueError):
            continue  # not a "name value unit (note)" line
        printed[words[0]] = words[2]
    assert printed == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(child.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(child.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
