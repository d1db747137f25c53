"""The treelat benchmark: one workload, in one process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload mozes-analyze --seed 1 --seconds 30 --trace 0

Set-up (a fresh import of the package plus building the documents) is
repeated at least SETUPS times and until SETUP_BUDGET_S has accumulated, and
its median is reported as setup_s.  Then whole passes over the documents run
until the next pass would end after --seconds (at least one pass).  Times
are reported at a reference interpreter speed (see speed.py).  The first
output of each document is kept and checked after the timed passes; a later
output is compared with the first as soon as its operation has ended, outside
the timed interval, and then dropped.  So the checker adds nothing to the
times, and the outputs held when peak_rss_mb is read do not grow with the
number of passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes, with the tracer's wrappers removed
during the untraced ones, prints the per-layer metrics and writes the spans
to perfbench/out/.  The last line of standard output is the result object;
the line before it holds the environment stamp and the figures that are not
contract metrics, among them the same times on the plain wall clock and in
process CPU time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from speed import SpeedProbe
from tracer import TRACED, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LAYERS = tuple(TRACED)  # the package's modules, which are the layers
SETUPS = 5
SETUP_BUDGET_S = 3.0
# op_p95_s needs at least ten samples beyond the 95th percentile.
P95_MIN_OPS = 200


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def import_layers() -> SimpleNamespace:
    """A fresh import of the package's layer modules from SRC."""
    for name in [m for m in sys.modules if m == "treelat" or m.startswith("treelat.")]:
        del sys.modules[name]
    try:
        t = SimpleNamespace(**{n: importlib.import_module(f"treelat.{n}") for n in LAYERS})
    except ImportError as exc:
        raise BenchError(f"cannot import treelat from {SRC}: {exc}") from None
    if not Path(t.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported treelat from {t.cli.__file__}, not from {SRC}")
    if t.zlinalg.BACKEND != "pure":
        # Tier-1 and the ROADMAP measure only the pure-Python kernels.
        raise BenchError(f"kernel backend is {t.zlinalg.BACKEND!r}; the benchmark measures 'pure'")
    return t


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload, seed: int, tracer: Tracer | None = None):
    """The layers, the documents, and the (wall, CPU) interval of the set-up."""
    gc.collect()  # garbage of an earlier set-up is not collected inside this one
    w0, c0 = perf_counter(), process_time()
    t = import_layers()
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    items = workload.build(t, random.Random(seed))
    if tracer is not None:
        tracer.op = None
    return t, items, (w0, perf_counter(), c0, process_time())


def run_pass(workload, t, items, firsts: dict, tracer=None, label=None) -> list:
    """(item, problem, (wall start, wall end, CPU start, CPU end)) of each operation.

    The first output of a document goes into ``firsts``; a later one is
    compared with it after its interval has ended and is not kept.  problem
    is None, the exception the operation raised, or a string.
    """
    ops = []
    for item in items:
        if tracer is not None:
            tracer.op = f"{label}/{item.name}"
        w0, c0 = perf_counter(), process_time()
        try:
            out, problem = workload.run(t, item), None
        except Exception as exc:  # a raising operation is a failed operation
            out, problem = None, exc
        interval = (w0, perf_counter(), c0, process_time())
        if tracer is not None:
            tracer.op = None
        if problem is None:
            first = firsts.setdefault(item.name, out)
            if out is not first and out != first:
                problem = "output differs from the first output of this document"
        del out  # not held while the next operation runs
        ops.append((item, problem, interval))
    return ops


def verdict(workload, t, item, out) -> list[str]:
    try:
        return workload.check(t, item, out)
    except Exception as exc:  # a malformed output fails its check
        return [f"check raised {exc!r}"]


def check_outputs(workload, t, log, firsts):
    """Failed operations, the problems found, and one output that passed.

    Each document's first output is checked once.  An operation fails when
    it raised, when its output differed from its document's first, or when
    that first output fails the check.
    """
    checked: dict = {}
    failed, problems, good = 0, [], None
    for item, problem, _ in log:
        if problem is not None:
            bad = [problem if isinstance(problem, str) else f"raised {problem!r}"]
        else:
            if item.name not in checked:
                checked[item.name] = verdict(workload, t, item, firsts[item.name])
                if not checked[item.name] and good is None:
                    good = (item, firsts[item.name])
            bad = checked[item.name]
        if bad:
            failed += 1
            problems.extend(f"{item.name}: {p}" for p in bad)
    return failed, problems, good


def checker_selftest(workload, t, good) -> bool:
    """A tampered copy of a good output must fail its check."""
    if good is None:
        return False
    item, out = good
    return bool(verdict(workload, t, item, workload.tamper(out)))


def interval_times(probe, interval) -> tuple[float, float, float]:
    """(reference, wall-clock, CPU) seconds of an interval, less the probe's
    slices in it.  A slice's CPU time is taken to equal its wall time."""
    w0, w1, c0, c1 = interval
    wall, slowdown = probe.time(w0, w1)
    return wall / slowdown, wall, (c1 - c0) - (w1 - w0 - wall)


def time_metrics(setup_s: list[float], passes: list[list[tuple[str, float]]]) -> dict:
    """Timing metrics from set-up times and the (document, seconds) of each
    operation of each pass.

    A pass takes the sum of its operations.  Latency per document is its
    median over the passes; op_p50_s and op_max_s are taken over documents,
    op_p95_s over single operations when there are enough of them.
    """
    pass_s, op_s, by_doc = [], [], defaultdict(list)
    for log in passes:
        pass_s.append(sum(x for _, x in log))
        for name, x in log:
            op_s.append(x)
            by_doc[name].append(x)
    doc_s = [statistics.median(v) for v in by_doc.values()]
    metrics = {
        "wall_s": statistics.median(pass_s),
        "ops_per_s": len(op_s) / sum(pass_s),
        "op_p50_s": statistics.median(doc_s),
        "op_max_s": max(doc_s),
        "setup_s": statistics.median(setup_s),
    }
    if len(op_s) >= P95_MIN_OPS:
        metrics["op_p95_s"] = statistics.quantiles(op_s, n=20)[18]
    return metrics


def traced_metrics(tracer, traced_passes, overhead, probe, items, label) -> tuple[dict, dict]:
    metrics, counts = layer_metrics(tracer.spans, traced_passes, probe.time)
    metrics["trace.overhead_ratio"] = overhead
    by_doc = defaultdict(list)
    for op, c in counts.items():
        by_doc[op.split("/", 1)[1]].append(c)
    detail = {"counts_repeat": all(all(c == cs[0] for c in cs) for cs in by_doc.values())}
    if len(items) <= 8:
        detail["per_doc"] = {
            name: {
                "snf_calls": cs[0]["calls"].get("zlinalg.smith_normal_form", 0),
                "snf_distinct": cs[0]["snf_distinct"],
                "hermite_calls": cs[0]["calls"].get("zlinalg.hermite_row_basis", 0),
                "hermite_distinct": cs[0]["hermite_distinct"],
            }
            for name, cs in sorted(by_doc.items())
        }
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{label}.json"
    trace_file.write_text(
        json.dumps({"metrics": metrics, "per_op_counts": counts, **tracer.dump()}) + "\n"
    )
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, detail


def bench(args, spec) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    order_rng = random.Random(args.seed)
    with SpeedProbe() as probe:
        setups = []
        while True:
            t, items, interval = setup(workload, args.seed, tracer)
            setups.append(interval)
            if tracer is not None or (
                len(setups) >= SETUPS and sum(w1 - w0 for w0, w1, *_ in setups) >= SETUP_BUDGET_S
            ):
                break

        # Whole passes.  With --trace 1 they alternate untraced and traced,
        # starting untraced, with the wrappers removed for the untraced ones;
        # at least five passes give two of each kind after the first, and
        # two traced passes let the counters be compared.
        runs = []  # (traced, [(item, problem, interval)])
        firsts: dict = {}
        start = perf_counter()
        while True:
            traced = tracer is not None and len(runs) % 2 == 1
            if traced:
                tracer.install()
            elif tracer is not None:
                tracer.restore()
            t0 = perf_counter()
            ops = run_pass(
                workload, t, workload.order(items, order_rng), firsts,
                tracer if traced else None, f"pass{len(runs)}",
            )
            runs.append((traced, ops))
            last = perf_counter() - t0
            enough = tracer is None or len(runs) >= 5
            if enough and perf_counter() - start + last > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()

    setup_times = [interval_times(probe, interval) for interval in setups]
    pass_times = [
        (traced, [(item.name, interval_times(probe, interval)) for item, _, interval in ops])
        for traced, ops in runs
    ]

    def view(k, passes=pass_times) -> dict:
        """Timing metrics in the k-th of interval_times' figures."""
        return time_metrics(
            [s[k] for s in setup_times], [[(name, x[k]) for name, x in log] for _, log in passes]
        )

    log = [op for _, ops in runs for op in ops]
    failed, problems, good = check_outputs(workload, t, log, firsts)
    selftest = checker_selftest(workload, t, good)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "setups": len(setups),
        "passes": len(runs),
        "ops": len(log),
        "error_rate": failed / len(log),
        "problems": problems[:20],
        "checker_selftest_ok": selftest,
        "slowdown_median": statistics.median(
            probe.time(w0, w1)[1] for _, _, (w0, w1, *_) in log
        ),
    }
    correct = failed == 0 and selftest
    if tracer is None:
        kind = "end_to_end"
        metrics = view(0)
        metrics["peak_rss_mb"] = peak_rss_mb
        detail["wall_clock"] = view(1)
        detail["cpu_time"] = view(2)
    else:
        kind = "per_layer"
        label = f"{args.workload}-seed{args.seed}"
        traced_passes = sum(traced for traced, _ in runs)
        later = pass_times[1:]  # the first pass after set-up warms up and is left out
        overhead = (
            view(0, [p for p in later if p[0]])["wall_s"]
            / view(0, [p for p in later if not p[0]])["wall_s"]
        )
        metrics, more = traced_metrics(tracer, traced_passes, overhead, probe, items, label)
        detail.update(more)
        correct = correct and more["counts_repeat"]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    detail["also"] = {n: v for n, v in metrics.items() if n not in units}
    result = {
        "correct": correct,
        "attempted": len(log),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    return detail, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited = os.environ.pop("TREELAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        t = import_layers()
        stamp = {
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "backend": t.zlinalg.BACKEND,
            "treelat_threads_unset": "TREELAT_THREADS" not in os.environ,
            "treelat_threads_inherited": inherited,
        }
        detail, result = bench(args, spec)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"stamp": stamp, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
