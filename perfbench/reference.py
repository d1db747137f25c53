"""One-shot reference for a Mozes pair too large for the mozes-analyze workload.

Usage (from the repository root):

    python3 perfbench/reference.py 17 29 [--trace]

Generates the (p, l) document, then times one analyze_document plus the
canonical report, checks it like mozes-analyze does, and prints one JSON
line with the wall-clock times, the analysis time at the reference speed
(analyze_ref_s, see speed.py) and peak RSS.  With --trace the analysis runs a
second time under the tracer and the per-layer figures of that run are
added, at the reference speed.
It is not part of any workload; README.md gives the rule for promoting a
pair onto mozes-analyze.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

from run import SRC, BenchError, import_layers
from speed import SpeedProbe
from tracer import Tracer, layer_metrics
from workloads import Item, analyze_op, check_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("p", type=int)
    parser.add_argument("l", type=int)
    parser.add_argument("--trace", action="store_true", help="add a traced second analysis")
    args = parser.parse_args(argv)
    os.environ.pop("TREELAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        t = import_layers()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    doc = t.mozes.generate_mozes_complex(args.p, args.l)
    generate_s = perf_counter() - t0
    item = Item(f"{args.p},{args.l}", doc, {"kind": "mozes", "p": args.p, "l": args.l})
    tracer = Tracer()
    with SpeedProbe() as probe:
        t0 = perf_counter()
        report = analyze_op(t, item)
        t1 = perf_counter()
        if args.trace:
            tracer.install()
            tracer.op = f"traced/{item.name}"
            t2 = perf_counter()
            traced_report = analyze_op(t, item)
            t3 = perf_counter()
            tracer.op = None
            tracer.restore()
    out = {
        "pair": item.name,
        "tiles": 4 * len(json.loads(doc)["squares"]),
        "generate_s": generate_s,
        "analyze_s": t1 - t0,
        "slowdown": probe.time(t0, t1)[1],
        "analyze_ref_s": probe.at_reference(t0, t1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": check_report(report, item.expect),
    }
    if args.trace:
        metrics, _ = layer_metrics(tracer.spans, 1, probe.time)
        out["traced_analyze_s"] = t3 - t2
        out["traced_analyze_ref_s"] = probe.at_reference(t2, t3)
        out["layers"] = {k: v for k, v in metrics.items() if v}
        if traced_report != report:
            out["problems"].append("traced report differs from the untraced one")
    print(json.dumps(out))
    return 0 if not out["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
