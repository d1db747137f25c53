"""The stage harness still runs against this checkout's package."""

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
    stages = set(table["stages_s"])
    for stage in (
        "image_block",
        "certified_theorem",
        "smith_normal_form",
        "homology_report",
        "k0_rank",
    ):
        assert stage in stages


def test_median_table_keeps_one_fast_round_out_of_the_figure():
    spec = importlib.util.spec_from_file_location(
        "bench_pipeline", ROOT / "benchmarks" / "bench_pipeline.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def table(stage, rss):
        return {
            "tiles": 84,
            "repeat": 15,
            "stages_s": {"image_block": stage, "k0_rank": 0.001},
            "total_s": stage + 0.001,
            "peak_rss_mb": rss,
            "generate_s": stage,
            "export_s": stage,
        }

    # One round caught a fast window (0.006 s); the other three read 0.010.
    merged = bench.median_table([table(0.010, 30.0), table(0.006, 31.0)] + [table(0.010, 30.5)] * 2)
    assert merged["stages_s"] == {"image_block": 0.010, "k0_rank": 0.001}
    assert merged["total_s"] == 0.011
    assert merged["generate_s"] == merged["export_s"] == 0.010
    assert (merged["repeat"], merged["peak_rss_mb"], merged["tiles"]) == (60, 31.0, 84)
