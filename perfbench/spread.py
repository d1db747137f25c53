"""Summarize a set of benchmark runs: median, quartiles and spread per metric.

Usage: python3 perfbench/spread.py RUN_OUTPUT...

Each argument is the saved standard output of one run of perfbench/run.py.
Runs are grouped by workload and trace mode.  For each metric the spread is
(Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4), and is shown against the bound in
BENCHMARK.json; untraced runs also show the same times on the plain wall
clock and in process CPU time.  For the counts of traced runs it says
whether they are the same in every run (they must be, for runs of one set
of documents).  Runs made on different kernel backends or Python versions
are refused: they are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT_UNITS = {"count", "bits", "bytes"}


def load(path):
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(paths) -> int:
    if not paths:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [load(p) for p in paths]
    for key in ("backend", "python"):
        seen = {detail["stamp"][key] for detail, _ in runs}
        if len(seen) > 1:
            print(f"error: runs differ in {key}: {sorted(seen)}; refusing to compare", file=sys.stderr)
            return 2

    groups = defaultdict(list)
    for detail, result in runs:
        groups[(detail["workload"], detail["trace"])].append((detail, result))
    ok = True
    for (workload, trace), group in sorted(groups.items()):
        results = [result for _, result in group]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print(f"== {workload} trace={trace}: {len(results)} runs, {failed}/{attempted} failed, correct={correct}")
        rows = [
            (name, first["unit"], [r["metrics"][name]["value"] for r in results])
            for name, first in results[0]["metrics"].items()
        ]
        if not trace:
            # The same times on the plain wall clock and in process CPU
            # time, for comparison.
            rows += [
                (f"{view.replace('_', ' ')} {name}", "1/s" if name == "ops_per_s" else "s",
                 [d[view][name] for d, _ in group])
                for view in ("wall_clock", "cpu_time")
                for name in group[0][0][view]
                if all(name in d[view] for d, _ in group)
            ]
        for name, unit, values in rows:
            med = statistics.median(values)
            line = f"  {name:<34} {unit:>6} median {med:<12.6g}"
            if trace and unit in EXACT_UNITS:
                repeat = len(set(values)) == 1
                line += "  same in every run" if repeat else f"  differs: {sorted(set(values))}"
            elif len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                line += f" q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:.4f}"
                if name in bounds:
                    bound = bounds[name]
                    verdict = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
                    line += f" bound {bound} {verdict}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
