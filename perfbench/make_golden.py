"""Regenerate perfbench's golden outputs from the program in this checkout.

    python3 perfbench/make_golden.py            # convert.txt only (seconds)
    python3 perfbench/make_golden.py --table    # also table.csv (about 80 s)

The goldens record what the program computed when the benchmark was defined;
regenerate them only for a change that is meant to alter those outputs, and
say so in the change.  ``table.csv`` is the output of ``catsq table --heavy``:
all 92 rows, including 16/14, which no timed workload computes.
"""

from __future__ import annotations

import os
import subprocess
import sys

import child


def convert_golden() -> str:
    from catsq import xsq

    requests = child.convert_requests()
    lines = ["# perfbench convert golden: request id and the first 16 hex digits of",
             "# the sha256 of its emitted text; 'big' is the group order of the",
             "# cat2 of the D20 inclusion square.",
             f"inputs {child.inputs_digest(requests)}",
             f"big {xsq.cat2_of_crossed_square(child.d20_inclusion_square()).group.order}"]
    lines += [f"{rid} {child.digest(child.convert_one(rid, text)[0])}"
              for rid, text in requests]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(child.ROOT / "src"))
    child.import_catsq()
    (child.GOLDEN / "convert.txt").write_text(convert_golden())
    if "--table" in argv:
        env = dict(os.environ, PYTHONPATH=str(child.ROOT / "src"))
        table = subprocess.run([sys.executable, "-m", "catsq.cli", "table", "--heavy"],
                               env=env, check=True, capture_output=True, text=True).stdout
        (child.GOLDEN / "table.csv").write_text(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
