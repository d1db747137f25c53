"""Time every stage of an analysis, pair by pair, and write the table as JSON.

Usage:

    PYTHONPATH=src python benchmarks/bench_pipeline.py --out BENCH.json \
        [--src OTHER_CHECKOUT]

A stage is a treelat function that cli calls through its module globals,
timed under its own name: each is wrapped there, the way
perfbench/tracer.py patches module attributes, while
cli.analyze_document and cli.build_report run on the document.  So the
stages and their order are read off the checkout's own pipeline, and no
call sequence is copied here: on this checkout, for every document,
load_complex, validate_vht, expand_directed_squares, build_tiling,
boundary_d2, connectivity, image_and_smith_form (the elimination of d2
without its I part, and the Smith form of its image block off the same
pivots), certified_theorem, homology_report, k0_rank and build_report.
An older checkout whose analysis took the explicit checks where the
count failed shows chain_maps, kernel_and_image, commuting_square,
stacked_kernel_basis and verify_main_theorem after certified_theorem on
C40xC40.  A function called inside
a stage counts in that stage, and a stage called twice counts both
calls.  Each time is the best of "repeat" full pipelines (REPEAT, or the
pair's entry in REPEATS), each on a fresh load, so cached properties built by one run
never shorten the next.  The documents are the Mozes ladder (5,13) (5,17)
(5,29) (13,17) with (17,29), (29,37) and (89,97), and the product of two
40-cycles (1600 vertices, 3200 edges, 1600 squares, 6400 tiles), whose
verdict fails: the count of the stacked kernel exceeds rank H2.  It is
timed through the whole analysis too, and repeats twice, since an
analysis that eliminates the stacked operator there takes 5-8 s.  The
small pairs repeat more, since a run of
theirs takes a few milliseconds and one slow run moves a best of five.
The machine's speed drifts by up to a third over the minutes both sides
take, and one interpreter can run slow, or fast, as a whole: with one
round, a stage neither side changed read 10-15 % apart at (89,97), and
(5,29) 1.6x apart in every stage.  So every pair runs in ROUNDS rounds,
each an interpreter per side with the sides in alternating order, so that
a drift reaches both sides alike, and each time in the table is the best
over all rounds (best_table): a side's figure is that of its fast
interpreter as soon as one round caught it.  Each round runs every pair
once, so two rounds of one pair lie a whole round apart, and a slow
window of the machine is spread over pairs and over both sides.
(29,37) and (89,97) repeat 12 times: the machine (2 shared cores) slows
for seconds at a time, and with both sides on the same code the total_s
of (89,97) read up to 9 % apart at 3 repeats, 30 % at 6 and 8 % at 12,
and that of (29,37), whose run takes about 10 ms, 20-26 % apart at 5
and within 1.4 % in two runs at 12.  The import of the package, before any stage runs, is timed once per
interpreter as "import_s": with bytecode caching off
(PYTHONDONTWRITEBYTECODE) it includes compiling the modules, as a first
run of a fresh checkout does.  The generation of each Mozes pair,
generate_mozes_complex, is timed apart as
"generate_s" (best of "repeat", checked against the document handed in),
and so is the export of its stacked matrix, expand_directed_squares ->
build_tiling -> stacked_matrix -> write_triplets on a fresh load (not
timed), as "export_s" (best of "repeat"); neither is part of "total_s",
which sums the analysis stages of one round, the fastest.

Every pair runs in its own interpreter, which reports its peak RSS.  The
documents are made once, by this checkout, and handed to each run on
standard input, so both sides read the same bytes.  The table of this
checkout is stored under "after"; with --src, the same stages are timed
with the package of that checkout (its src/ directory), for instance the
parent commit, and stored under "before", so one file holds both from one
machine.  The two run each document one after the other, in each round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = ((5, 13), (5, 17), (5, 29), (13, 17), (17, 29), (29, 37), (89, 97))
CYCLE = 40
REPEAT = 5
REPEATS = {
    "5,13": 15,
    "5,17": 15,
    "5,29": 15,
    "13,17": 15,
    "29,37": 12,
    "89,97": 12,
    f"C{CYCLE}xC{CYCLE}": 2,
}
ROUNDS = 4


def documents() -> dict[str, str]:
    """The benchmark documents by name, made by this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    from treelat.mozes import generate_mozes_complex

    import _complexes

    docs = {f"{p},{l}": generate_mozes_complex(p, l) for p, l in LADDER}
    cycle = (CYCLE, [(i, (i + 1) % CYCLE) for i in range(CYCLE)])
    docs[f"C{CYCLE}xC{CYCLE}"] = _complexes.product_doc(cycle, cycle)
    return docs


def measure(text: str, pair: str | None, repeat: int) -> dict:
    """Best-of-repeat seconds of each stage on one document, and of the
    generation and the export of the Mozes pair "p,l" when one is given,
    run in this interpreter against the treelat on sys.path, with the
    seconds the first import of the package took."""
    import inspect
    import resource
    from time import perf_counter

    start = perf_counter()
    from treelat import cli
    from treelat.complex_model import expand_directed_squares, load_complex
    from treelat.matio import write_triplets
    from treelat.mozes import generate_mozes_complex
    from treelat.tiling_system import build_tiling, stacked_matrix

    import_s = perf_counter() - start

    data = text.encode()
    run: dict[str, float] = {}
    best: dict[str, float] = {}

    def timed(name, fn):
        def wrapper(*args):
            start = perf_counter()
            out = fn(*args)
            run[name] = run.get(name, 0.0) + perf_counter() - start
            return out

        return wrapper

    def best_of(thunk):
        for _ in range(repeat):
            out = thunk()
            for stage, x in run.items():
                best[stage] = min(best.get(stage, x), x)
            run.clear()
        return out

    # Every treelat function that cli calls through its module globals is
    # a stage, under its own name.
    for name, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", "")
        if inspect.isfunction(fn) and module.startswith("treelat.") and module != cli.__name__:
            setattr(cli, name, timed(name, fn))

    if pair is not None:
        p, l = map(int, pair.split(","))
        if best_of(lambda: timed("generate", generate_mozes_complex)(p, l)) != text:
            raise SystemExit(f"generate_mozes_complex({pair}) differs from the document given")
    report = timed("build_report", cli.build_report)
    best_of(lambda: report(cli.analyze_document(text)[1], data))
    if pair is not None:

        def export(c):
            return write_triplets(stacked_matrix(build_tiling(expand_directed_squares(c), c)))

        best_of(lambda: timed("export", export)(load_complex(text)))
    generate_s = best.pop("generate", None)
    export_s = best.pop("export", None)
    table = {
        "tiles": 4 * len(load_complex(text).squares),
        "repeat": repeat,
        "stages_s": {k: round(x, 6) for k, x in best.items()},
        "total_s": round(sum(best.values()), 6),
        "import_s": round(import_s, 6),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if generate_s is not None:
        table["generate_s"] = round(generate_s, 6)
    if export_s is not None:
        table["export_s"] = round(export_s, 6)
    return table


def run_pair(src: Path, name: str, text: str) -> dict:
    """The stage table of one document with the package under src, in its
    own interpreter."""
    argv = [sys.executable, __file__, "--measure", "analyze"]
    if not name.startswith("C"):
        argv += ["--generate", name]
    argv += ["--repeat", str(REPEATS.get(name, REPEAT))]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(argv, input=text, capture_output=True, text=True, env=env, check=True)
    table = json.loads(done.stdout)
    print(f"{src}: {name}: {table['total_s']:.4f} s", file=sys.stderr)
    return table


def best_table(tables: list[dict]) -> dict:
    """The stage table of the rounds of one document: each time, total_s
    and import_s, the best over the rounds, repeats added up, the largest
    peak RSS.  A whole interpreter runs at one of two speeds about 1.6x apart,
    and a median over a few rounds lands on either.  In A/A runs (both
    sides on one checkout) the best over the rounds kept most uncontended
    runs' total_s gaps within 3.3-10.5 %, the median of the rounds' bests
    within 21-57 %."""
    merged = dict(tables[-1])
    merged["stages_s"] = {k: min(t["stages_s"][k] for t in tables) for k in merged["stages_s"]}
    for key in ("total_s", "import_s", "generate_s", "export_s"):
        if key in merged:
            merged[key] = min(t[key] for t in tables)
    merged["repeat"] = sum(t["repeat"] for t in tables)
    merged["peak_rss_mb"] = max(t["peak_rss_mb"] for t in tables)
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the table to this file")
    parser.add_argument("--src", type=Path, help="another checkout, timed as 'before'")
    # the interface of run_pair: time the stages of the document on stdin
    parser.add_argument("--measure", choices=("analyze",), help=argparse.SUPPRESS)
    parser.add_argument("--generate", metavar="P,L", help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=REPEAT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        text = sys.stdin.read()
        print(json.dumps(measure(text, args.generate, args.repeat)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    trees = {"after": ROOT / "src"}
    if args.src is not None:
        trees = {"before": args.src.resolve() / "src", **trees}
    rounds: dict[str, dict[str, list[dict]]] = {label: {} for label in trees}
    # Both checkouts run each document back to back, in alternating order
    # from round to round, and each round runs every document, so a drift
    # in the machine's speed during the run, or a slow window, shifts both
    # sides and many pairs alike.
    docs = documents()
    order = list(trees)
    for k in range(ROUNDS):
        for name, text in docs.items():
            for label in order[::-1] if k % 2 else order:
                table = run_pair(trees[label], name, text)
                rounds[label].setdefault(name, []).append(table)
    runs = {
        label: {name: best_table(tables) for name, tables in by_name.items()}
        for label, by_name in rounds.items()
    }
    table = {
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "clock": "time.perf_counter, best over all rounds and repeats",
        },
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
