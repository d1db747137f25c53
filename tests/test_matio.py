import json
import random

import pytest

from treelat import matio
from treelat.tiling_system import stacked_matrix
from treelat.zlinalg import IntMatrix

from _oracles import triplets_by_dense_scan


def test_triplet_round_trip_random(mozes513):
    rng = random.Random(55)
    inputs = [stacked_matrix(mozes513.tiling)]
    for _ in range(50):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        inputs.append(
            IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], cols=n)
        )
    for a in inputs:
        text = matio.write_triplets(a)
        assert text == triplets_by_dense_scan(a.entries, a.cols)
        assert matio.read_triplets(text) == a


def test_zero_matrix_is_header_only():
    text = matio.write_triplets(IntMatrix.zeros(3, 4))
    assert text == "3 4\n"


def test_triplets_sorted_one_indexed():
    a = IntMatrix.from_rows([[0, 2], [-1, 0]])
    assert matio.write_triplets(a) == "2 2\n1 2 2\n2 1 -1\n"


def test_dense_json_carries_shape():
    a = IntMatrix.zeros(0, 5)
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
    assert a == IntMatrix.from_rows([[7, 0, 0], [0, 0, -1]])
    assert a.row_pairs == (((0, 7),), ((2, -1),))
