"""Time the Smith and Hermite kernels, and the rank over F_p beside them.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]

Workloads: a batch of small random matrices (the shape the property suite
hammers), one mid-size dense random matrix, and the stacked transition
matrices of the (5,13) and (13,17) quaternion complexes (the shape the
pipeline hammers).  The Smith form is timed with and without the left
transform: only solving a.x = b needs it.  On the stacked matrices of
(13,17) and (29,37) the factor table of the operator (stacked_factors: the
tile labels and the check that S is the product of its factors, taken once
per analysis) is timed, then the dimension of the kernel mod p counted
from that table, which certifies the stacked kernel, beside the sparse
rank mod p of the whole operator, which it replaced (now a test oracle).
On the same two pairs, with H the basis of ker d2 as columns,
commuting_square, which takes checks (1) and (3) once for the certificate
and the verifier and reads S.phi2 off the shared factor table, is timed
beside the product stacked.phi2 that it no longer forms.  Last,
build_tiling at (29,37): M1 and M2 cut from shared label lists.
Prints the best of N runs of each.
"""

import argparse
import random
import time

from treelat import _kernels_py as kernels
from treelat.complex_model import expand_directed_squares, load_complex
from treelat.homology import (
    chain_maps,
    commuting_square,
    stacked_factors,
    structured_kernel_dim,
)
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import build_tiling, stacked_matrix
from treelat.zlinalg import IntMatrix, kernel_basis, rank_mod_prime


def batch_8x8(rng):
    return [
        [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)] for _ in range(300)
    ]


def mozes_stacked(p, l):
    """The stacked matrix of the (p, l) complex, its chain maps, the basis
    of ker d2 as the columns of one matrix, its factor table, and the
    expanded squares with the complex."""
    c = load_complex(generate_mozes_complex(p, l))
    r = expand_directed_squares(c)
    maps = chain_maps(c, r)
    h = IntMatrix.from_columns(kernel_basis(maps.d2), rows=maps.d2.cols)
    stacked = stacked_matrix(build_tiling(r, c))
    return stacked, maps, h, stacked_factors(stacked, maps.psi), (r, c)


def make_workloads():
    rng = random.Random(12345)
    small = batch_8x8(rng)
    mid = [[rng.randint(-20, 20) for _ in range(40)] for _ in range(40)]
    s513 = mozes_stacked(5, 13)[0]
    s1317, maps1317, h1317, f1317, _ = mozes_stacked(13, 17)
    s2937, maps2937, h2937, f2937, (r2937, c2937) = mozes_stacked(29, 37)
    d513, d1317 = s513.to_lists(), s1317.to_lists()
    return [
        ("snf 300 x (8x8)", lambda left: [kernels.snf_with_transforms(a, left) for a in small]),
        ("snf 40x40", lambda left: kernels.snf_with_transforms(mid, left)),
        ("snf stacked 168x84", lambda left: kernels.snf_with_transforms(d513, left)),
        ("snf stacked 504x252", lambda left: kernels.snf_with_transforms(d1317, left)),
        ("hermite stacked 168x84", lambda left: kernels.hermite_rows(d513)),
        ("rank_mod_prime stacked 168x84", lambda left: rank_mod_prime(s513)),
        ("rank_mod_prime stacked 504x252", lambda left: rank_mod_prime(s1317)),
        ("stacked_factors 504x252", lambda left: stacked_factors(s1317, maps1317.psi)),
        ("structured count 504x252", lambda left: structured_kernel_dim(f1317)),
        ("rank_mod_prime stacked 2280x1140", lambda left: rank_mod_prime(s2937)),
        ("stacked_factors 2280x1140", lambda left: stacked_factors(s2937, maps2937.psi)),
        ("structured count 2280x1140", lambda left: structured_kernel_dim(f2937)),
        ("stacked.mul(phi2) 504x252", lambda left: s1317.mul(maps1317.phi2)),
        ("commuting_square 504x252", lambda left: commuting_square(s1317, maps1317, h1317, f1317)),
        ("stacked.mul(phi2) 2280x1140", lambda left: s2937.mul(maps2937.phi2)),
        ("commuting_square 2280x1140", lambda left: commuting_square(s2937, maps2937, h2937, f2937)),
        ("build_tiling (29,37)", lambda left: build_tiling(r2937, c2937)),
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

    print(f"{'workload':<32} {'with u [s]':>11} {'without u [s]':>14}")
    for name, fn in make_workloads():
        if not name.startswith("snf"):
            print(f"{name:<32} {best_of(fn, True, args.repeat):>11.4f} {'-':>14}")
            continue
        full = best_of(fn, True, args.repeat)
        fast = best_of(fn, False, args.repeat)
        print(f"{name:<32} {full:>11.4f} {fast:>14.4f}")


if __name__ == "__main__":
    main()
