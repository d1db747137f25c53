"""Time the elimination, the Smith and Hermite kernels, and the count of
the stacked kernel.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]

Workloads: the Smith diagonal (the kernel keeps no transform) of a batch
of small random matrices (the shape the property suite hammers), of one
mid-size dense random matrix, and of the stacked transition matrices of
the (5,13) and (13,17) quaternion complexes.  At (29,37) and (53,61), the
unimodular elimination of d2 (kernel_and_image: the basis H of ker d2 and
the image block B^T), then that with the Smith form of B^T, which is what
an analysis runs for H and the torsion of d2, beside the Smith form of d2
itself, which it replaced.  At (13,17) and (29,37) the label check is
timed (label_tiling, which numbers the sides of the tiles and checks
b'(t) = b(t^h) and a'(t) = a(t^v), so that the labels give the factors of
the stacked operator; once per analysis), then the dimension of the kernel
over Q counted from those factors (structured_kernel_dim, which
certifies the stacked kernel: it builds the small system C and takes its
rank with the elimination; on a fresh copy of the tiling system, so the
label components it reads are found inside the clock), beside the rank
of the same C alone, by the elimination (zlinalg.rank) and by the sparse
rank mod 2^61 - 1 that counted it before (tests/_oracles.py; C is caught
at the call of rank before the clock starts).  On the same two pairs,
with H the basis of ker d2 as columns, commuting_square, which takes
checks (1) and (3) once for the certificate and the verifier and reads
S.phi2 off the factors, is timed beside the product stacked.phi2 that it
no longer forms.  Last, at (29,37) and (53,61), the connectivity of the
tile graphs of both axes two ways: connectivity itself, which reads it
off the label multigraph (label degrees and label components, on a fresh
copy of the tiling system, so the components are found inside the clock
as in an analysis; the edge-graph inventory is included), and Tarjan over
the successor lists of the built M1 and M2 (tests/_oracles.py; the
matrices are built before the clock starts).  Prints the best of N runs
of each.
"""

import argparse
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from treelat import _kernels_py as kernels
from treelat import homology
from treelat.complex_model import load_complex
from treelat.homology import chain_maps, commuting_square, structured_kernel_dim
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import connectivity, label_tiling, stacked_matrix
from treelat.zlinalg import (
    IntMatrix,
    kernel_and_image,
    kernel_basis,
    rank,
    smith_normal_form,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _oracles import axis_connectivity_by_matrix, rank_mod_prime  # noqa: E402


def batch_8x8(rng):
    return [
        [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)] for _ in range(300)
    ]


def mozes_pair(p, l):
    """The (p, l) complex with its tiles (the edge codes of its directed
    squares), its tiling system, its chain maps, the basis of ker d2 as the
    columns of one matrix, and its stacked matrix."""
    c = load_complex(generate_mozes_complex(p, l))
    tiles = c.edge_table.tiles
    maps = chain_maps(c, tiles)
    h = IntMatrix.from_columns(kernel_basis(maps.d2), rows=maps.d2.cols)
    ts = label_tiling(tiles, c)
    return (tiles, c), ts, maps, h, stacked_matrix(ts)


def structured_system(ts):
    """The system C whose rank structured_kernel_dim takes, caught at the
    call."""
    systems = []
    homology.rank = lambda c: systems.append(c) or rank(c)
    try:
        structured_kernel_dim(ts)
    finally:
        homology.rank = rank
    return systems[0]


def h_and_torsion(d2):
    h, image = kernel_and_image(d2)
    return h, smith_normal_form(image)


def fresh_connectivity(ts, c):
    return connectivity(replace(ts), c)


def matrix_tarjan(ts):
    return axis_connectivity_by_matrix(ts.m1), axis_connectivity_by_matrix(ts.m2)


def make_workloads():
    rng = random.Random(12345)
    small = batch_8x8(rng)
    mid = [[rng.randint(-20, 20) for _ in range(40)] for _ in range(40)]
    s513 = mozes_pair(5, 13)[-1]
    rc1317, ts1317, maps1317, h1317, s1317 = mozes_pair(13, 17)
    rc2937, ts2937, maps2937, h2937, s2937 = mozes_pair(29, 37)
    c2937 = rc2937[1]
    (_, c5361), ts5361, maps5361 = mozes_pair(53, 61)[:3]
    d513, d1317 = s513.to_lists(), s1317.to_lists()
    sys1317, sys2937 = structured_system(ts1317), structured_system(ts2937)
    d2_2937, d2_5361 = maps2937.d2, maps5361.d2
    return [
        ("snf 300 x (8x8)", lambda: [kernels.smith_diagonal(a) for a in small]),
        ("snf 40x40", lambda: kernels.smith_diagonal(mid)),
        ("snf stacked 168x84", lambda: kernels.smith_diagonal(d513)),
        ("snf stacked 504x252", lambda: kernels.smith_diagonal(d1317)),
        ("elimination d2 (29,37)", lambda: kernel_and_image(d2_2937)),
        ("elimination + snf B^T (29,37)", lambda: h_and_torsion(d2_2937)),
        ("snf d2 (29,37)", lambda: smith_normal_form(d2_2937)),
        ("elimination d2 (53,61)", lambda: kernel_and_image(d2_5361)),
        ("elimination + snf B^T (53,61)", lambda: h_and_torsion(d2_5361)),
        ("snf d2 (53,61)", lambda: smith_normal_form(d2_5361)),
        ("hermite stacked 168x84", lambda: kernels.hermite_rows(d513)),
        ("label check (13,17)", lambda: label_tiling(*rc1317)),
        ("structured count 504x252", lambda: structured_kernel_dim(replace(ts1317))),
        ("rank of C (13,17)", lambda: rank(sys1317)),
        ("oracle rank mod p of C (13,17)", lambda: rank_mod_prime(sys1317)),
        ("label check (29,37)", lambda: label_tiling(*rc2937)),
        ("structured count 2280x1140", lambda: structured_kernel_dim(replace(ts2937))),
        ("rank of C (29,37)", lambda: rank(sys2937)),
        ("oracle rank mod p of C (29,37)", lambda: rank_mod_prime(sys2937)),
        ("stacked.mul(phi2) 504x252", lambda: s1317.mul(maps1317.phi2)),
        ("commuting_square 504x252", lambda: commuting_square(ts1317, maps1317, h1317)),
        ("stacked.mul(phi2) 2280x1140", lambda: s2937.mul(maps2937.phi2)),
        ("commuting_square 2280x1140", lambda: commuting_square(ts2937, maps2937, h2937)),
        ("connectivity (29,37)", lambda: fresh_connectivity(ts2937, c2937)),
        ("matrix Tarjan (29,37)", lambda: matrix_tarjan(ts2937)),
        ("connectivity (53,61)", lambda: fresh_connectivity(ts5361, c5361)),
        ("matrix Tarjan (53,61)", lambda: matrix_tarjan(ts5361)),
    ]


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'workload':<34} {'best [s]':>9}")
    for name, fn in make_workloads():
        print(f"{name:<34} {best_of(fn, args.repeat):>9.4f}")


if __name__ == "__main__":
    main()
