"""The stage harness and the perfbench tracer still run against this
checkout's package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pipeline_times_the_stages_of_one_pair(mozes513_doc):
    argv = [
        sys.executable,
        str(ROOT / "benchmarks" / "bench_pipeline.py"),
        *("--measure", "analyze", "--generate", "5,13", "--repeat", "1"),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        argv, input=mozes513_doc, capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)
    assert table["tiles"] == 84
    assert "generate_s" in table and "export_s" in table
    assert 0 < table["import_s"] < 60
    stages = set(table["stages_s"])
    for stage in (
        "expand_directed_squares",
        "build_tiling",
        "image_and_smith_form",
        "certified_theorem",
        "homology_report",
        "k0_rank",
    ):
        assert stage in stages


# Run in a fresh interpreter, as perfbench/run.py runs: the perfbench
# tracer and workloads imported by path, the tracer installed on a fresh
# import of the package, then the export and the analysis operation of
# the benchmark on (5,13), traced, each with the workload's own checks.
TRACED_OPS = """
import importlib, importlib.util, json, sys
from pathlib import Path
from types import SimpleNamespace

def by_path(name):
    spec = importlib.util.spec_from_file_location(name, Path(sys.argv[1]) / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracing, workloads = by_path("tracer"), by_path("workloads")
t = SimpleNamespace(**{n: importlib.import_module(f"treelat.{n}") for n in tracing.TRACED})
tracer = tracing.Tracer()
tracer.install()
doc = t.mozes.generate_mozes_complex(5, 13)
problems = []
for op, run, check, item in (
    ("export", workloads.export_op, workloads.check_export,
     workloads.Item("5,13", "", {"p": 5, "l": 13})),
    ("analyze", workloads.analyze_op, lambda t, item, out: workloads.check_report(out, item.expect),
     workloads.Item("5,13", doc, {"kind": "mozes", "p": 5, "l": 13})),
):
    tracer.op = op
    out = run(t, item)
    tracer.op = None
    problems += check(t, item, out)
metrics = {}
for op in ("export", "analyze"):
    spans = [s for s in tracer.spans if s.op == op]
    metrics[op], _ = tracing.layer_metrics(spans, 1, lambda start, end: (end - start, 1.0))
print(json.dumps({"problems": problems, "metrics": metrics}))
"""


def test_perfbench_tracer_times_the_expansion_and_the_tiling():
    # Every name the tracer wraps and mozes-export calls must exist, and
    # the analysis must go through expand_directed_squares and build_tiling
    # for their per-layer readings to time it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", TRACED_OPS, str(ROOT / "perfbench")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["problems"] == []
    for op in ("export", "analyze"):
        metrics = result["metrics"][op]
        assert metrics["complex_model.expand_s"] > 0, op
        assert metrics["tiling_system.build_tiling_s"] > 0, op
    assert result["metrics"]["export"]["matio.export_bytes"] > 0


def test_best_table_takes_each_figure_from_its_fastest_round():
    spec = importlib.util.spec_from_file_location(
        "bench_pipeline", ROOT / "benchmarks" / "bench_pipeline.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def table(stage, k0, rss, import_s=0.02):
        return {
            "tiles": 84,
            "repeat": 15,
            "stages_s": {"image_and_smith_form": stage, "k0_rank": k0},
            "total_s": round(stage + k0, 6),
            "import_s": import_s,
            "peak_rss_mb": rss,
            "generate_s": stage,
            "export_s": stage,
        }

    # One round caught a fast window (0.006 s); another ran k0_rank fastest.
    # The import, timed once per interpreter, is fastest in the fast round.
    tables = [
        table(0.010, 0.002, 30.0),
        table(0.006, 0.003, 31.0, import_s=0.015),
        table(0.010, 0.001, 30.5),
    ]
    merged = bench.best_table(tables + [table(0.012, 0.002, 30.5)])
    assert merged["stages_s"] == {"image_and_smith_form": 0.006, "k0_rank": 0.001}
    # total_s is the best round's total, not the sum of the stages' bests.
    assert merged["total_s"] == 0.009
    assert merged["generate_s"] == merged["export_s"] == 0.006
    assert merged["import_s"] == 0.015
    assert (merged["repeat"], merged["peak_rss_mb"], merged["tiles"]) == (60, 31.0, 84)
