import json
import random

import pytest

from treelat import matio
from treelat.cli import EXPORTABLE
from treelat.complex_model import expand_directed_squares, load_complex
from treelat.homology import chain_maps
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import build_tiling, stacked_matrix

import _complexes
from _battery import retarget
from _oracles import (
    M,
    stacked_matrix_by_minus_diagonal,
    triplets_by_dense_scan,
    write_dense_json_by_dumps,
    write_triplets_by_line,
)


def test_triplet_round_trip_random(mozes513):
    rng = random.Random(55)
    inputs = [stacked_matrix(mozes513.tiling)]
    for _ in range(50):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        inputs.append(
            M([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n)
        )
    for a in inputs:
        text = matio.write_triplets(a)
        assert text == triplets_by_dense_scan(a.entries, a.cols)
        assert matio.read_triplets(text) == a


def test_zero_matrix_is_header_only():
    text = matio.write_triplets(M([[0] * 4] * 3))
    assert text == "3 4\n"


def test_triplets_sorted_one_indexed():
    a = M([[0, 2], [-1, 0]])
    assert matio.write_triplets(a) == "2 2\n1 2 2\n2 1 -1\n"


def test_dense_json_carries_shape():
    a = M([], 5)
    doc = json.loads(matio.write_dense_json(a))
    assert doc == {"rows": 0, "cols": 5, "entries": []}


def test_read_rejects_garbage():
    with pytest.raises(matio.MatrixFormatError):
        matio.read_triplets("")
    with pytest.raises(matio.MatrixFormatError):
        matio.read_triplets("a b\n")
    with pytest.raises(matio.MatrixFormatError):
        matio.read_triplets("2 2\n3 1 5\n")
    with pytest.raises(matio.MatrixFormatError):
        matio.read_triplets("2 2\n1 1\n")


def test_read_rejects_a_repeated_position():
    with pytest.raises(matio.MatrixFormatError):
        matio.read_triplets("2 2\n1 2 3\n1 2 3\n")
    with pytest.raises(matio.MatrixFormatError):
        matio.read_triplets("2 2\n2 1 0\n1 1 4\n2 1 5\n")


def test_read_drops_explicit_zeros():
    a = matio.read_triplets("2 3\n2 3 -1\n1 2 0\n2 1 0\n1 1 7\n")
    assert a == M([[7, 0, 0], [0, 0, -1]])
    assert a.row_pairs == (((0, 7),), ((2, -1),))


def assert_writers_match_the_oracles(a):
    assert matio.write_triplets(a) == write_triplets_by_line(a)
    assert matio.write_dense_json(a) == write_dense_json_by_dumps(a)


def test_writers_match_the_oracles_on_random_matrices():
    # Zero rows and columns, zero matrices, negative values and values
    # other than +-1, in every shape up to 7 x 7.
    rng = random.Random(15)
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.random()
        rows = [
            [rng.choice((-7, -2, -1, 1, 1, 2, 12)) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        assert_writers_match_the_oracles(M(rows, n))
    for m, n in ((0, 0), (0, 3), (3, 0), (2, 2)):
        assert_writers_match_the_oracles(M([[0] * n] * m, n))


def exported_matrices(c):
    """The seven matrices of `treelat export`, by name, with S built by
    the pipeline and by the oracle from the built m1 and m2."""
    tiles = expand_directed_squares(c)
    ts = build_tiling(tiles, c)
    maps = chain_maps(c, tiles)
    out = {w: getattr(ts if w in ("m1", "m2", "stacked") else maps, w) for w in EXPORTABLE}
    return out, stacked_matrix_by_minus_diagonal(build_tiling(tiles, c))


CORPUS = {
    "torus": _complexes.torus_doc,
    "f2xf2": _complexes.f2xf2_doc,
    "klein": _complexes.klein_doc,
    "two_vertex_klein": _complexes.two_vertex_klein_doc,
    "two_torus_components": _complexes.two_torus_components_doc,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_export_matches_the_oracles_on_the_corpus(name):
    matrices, oracle_stacked = exported_matrices(load_complex(CORPUS[name]()))
    assert matrices["stacked"] == oracle_stacked
    for a in matrices.values():
        assert_writers_match_the_oracles(a)


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (5, 29), (13, 17), (17, 29)])
def test_export_matches_the_oracles_on_the_ladder(p, l):
    matrices, oracle_stacked = exported_matrices(load_complex(generate_mozes_complex(p, l)))
    assert matrices["stacked"] == oracle_stacked
    for a in matrices.values():
        assert_writers_match_the_oracles(a)


@pytest.mark.parametrize("slot", ["b_prime", "a_prime"])
def test_stacked_matches_the_oracle_on_tampered_tiles(mozes513, slot):
    # One side of a tile retargeted with its orbit-major partner: the
    # labels are not those of the complex, and S is still cut from them
    # row by row as the oracle re-slices m1, m2.
    c = mozes513.complex
    ts = build_tiling(retarget(mozes513, slot, orbit_major=True), c)
    assert ts != mozes513.tiling
    stacked = stacked_matrix(ts)
    assert stacked == stacked_matrix_by_minus_diagonal(ts)
    assert_writers_match_the_oracles(stacked)
