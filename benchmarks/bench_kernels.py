"""Time the Smith and Hermite kernels, with and without the left transform.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]

Workloads: a batch of small random matrices (the shape the property suite
hammers), one mid-size dense random matrix, and the stacked transition
matrix of the (5,13) quaternion complex (the shape the pipeline hammers).
Only solving a.x = b needs the left transform; every other Smith form in
the pipeline runs without it.  Prints the best of N runs of each.
"""

import argparse
import random
import time

from treelat import _kernels_py as kernels
from treelat.cli import analyze_document
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import stacked_matrix


def batch_8x8(rng):
    return [
        [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)] for _ in range(300)
    ]


def make_workloads():
    rng = random.Random(12345)
    small = batch_8x8(rng)
    mid = [[rng.randint(-20, 20) for _ in range(40)] for _ in range(40)]
    _, analysis = analyze_document(generate_mozes_complex(5, 13))
    stacked = stacked_matrix(analysis.tiling).to_lists()
    return [
        ("snf 300 x (8x8)", lambda left: [kernels.snf_with_transforms(a, left) for a in small]),
        ("snf 40x40", lambda left: kernels.snf_with_transforms(mid, left)),
        ("snf stacked 168x84", lambda left: kernels.snf_with_transforms(stacked, left)),
        ("hermite stacked", lambda left: kernels.hermite_rows(stacked)),
    ]


def best_of(fn, left, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(left)
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'workload':<22} {'with u [s]':>11} {'without u [s]':>14}")
    for name, fn in make_workloads():
        if name.startswith("hermite"):
            print(f"{name:<22} {best_of(fn, True, args.repeat):>11.4f} {'-':>14}")
            continue
        full = best_of(fn, True, args.repeat)
        fast = best_of(fn, False, args.repeat)
        print(f"{name:<22} {full:>11.4f} {fast:>14.4f}")


if __name__ == "__main__":
    main()
