"""The stage harness still runs against this checkout's package."""

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
        "kernel_and_image",
        "commuting_square",
        "stacked_kernel_basis",
        "smith_normal_form",
        "verify_main_theorem",
    ):
        assert stage in stages
