"""The record contract: every public record is immutable, compares and
hashes by its fields in their order, and prints as Name(field=value, ...);
no record generates code when the package is imported."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from treelat import complex_model, homology, mozes, tiling_system, zlinalg
from treelat.mozes import Quaternion, norm_quaternions
from treelat.zlinalg import AbelianInvariants, IntMatrix, SmithDecomposition

ROOT = Path(__file__).resolve().parent.parent

# The fields of each frozen record, in order.
FIELDS = {
    complex_model.GeometricEdge: ("id", "origin", "terminus"),
    complex_model.SquareComplex: ("vertices", "h_edges", "v_edges", "squares"),
    complex_model.ValidationIssue: ("kind", "message"),
    complex_model.ValidationReport: ("errors", "warnings"),
    homology.ChainMaps: ("d2", "d1", "phi2", "phi1"),
    homology.HomologyReport: ("h0", "h1", "h2_rank", "euler_characteristic"),
    homology.TheoremVerdict: (
        "within_hypotheses",
        "diagram_commutes",
        "rank_ker_d2",
        "rank_ker_stacked",
        "phi2_image_in_kernel",
        "kernel_in_phi2_image",
        "kernel_symmetries_hold",
        "mu_vanishes",
    ),
    mozes.Quaternion: ("a0", "a1", "a2", "a3"),
    mozes.GeneratorSet: ("prime", "quats"),
    tiling_system.TilingSystem: ("b", "a", "n_vertices"),
    tiling_system.AxisConnectivity: ("weakly_connected", "strongly_connected", "scc_count"),
    tiling_system.EdgeGraphComponent: ("vertices", "edges", "oriented_edges"),
    tiling_system.ConnectivityReport: (
        "horizontal",
        "vertical",
        "gh_b_components",
        "gv_a_components",
    ),
    tiling_system.K0Hypotheses: (
        "one_vertex",
        "gh_strongly_connected",
        "gv_strongly_connected",
        "matrices_irreducible",
        "interpretation_supported",
    ),
    tiling_system.K0Result: ("kernel_rank", "k0_rank", "k1_rank", "hypotheses"),
    zlinalg.IntMatrix: ("rows", "cols", "row_pairs"),
    zlinalg.AbelianInvariants: ("free_rank", "torsion"),
    zlinalg.SmithDecomposition: ("rows", "invariant_factors"),
}


@pytest.fixture(scope="module")
def records(mozes513):
    """One instance of every frozen record, read off the (5,13) analysis."""
    a = mozes513
    found = [
        a.complex.h_edges[0],
        a.complex,
        complex_model.ValidationIssue("warning", "a message"),
        a.validation,
        homology.chain_maps(a.complex, a.complex.edge_table.tiles),
        a.homology,
        a.theorem,
        norm_quaternions(5).quats[0],
        norm_quaternions(5),
        a.tiling,
        a.connectivity.horizontal,
        a.connectivity.gh_b_components[0],
        a.connectivity,
        a.k0.hypotheses,
        a.k0,
        a.d2,
        a.homology.h1,
        SmithDecomposition(3, (1, 2)),
    ]
    assert [type(r) for r in found] == list(FIELDS)
    return found


def test_record_fields_cannot_be_assigned(records):
    for record in records:
        for name in FIELDS[type(record)]:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value


def test_records_with_equal_fields_are_equal_and_hash_alike(records):
    for record in records:
        twin = type(record)(*(getattr(record, name) for name in FIELDS[type(record)]))
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
    edge = complex_model.GeometricEdge("a1", "v0", "v0")
    assert edge != complex_model.GeometricEdge("a1", "v0", "v1")


def test_repr_names_every_field():
    m = IntMatrix(1, 2, (((1, -3),),))
    assert repr(m) == "IntMatrix(rows=1, cols=2, row_pairs=(((1, -3),),))"
    assert repr(AbelianInvariants(2, (2, 4))) == "AbelianInvariants(free_rank=2, torsion=(2, 4))"
    assert repr(Quaternion(1, -2, 0, 0)) == "Quaternion(a0=1, a1=-2, a2=0, a3=0)"


def test_quaternions_order_as_their_coordinates():
    coords = [(1, 0, 2, 0), (1, 0, 0, -2), (-1, 4, 0, 0), (1, -2, 0, 0), (1, 0, 0, 2)]
    quats = [Quaternion(*c) for c in coords]
    assert [(q.a0, q.a1, q.a2, q.a3) for q in sorted(quats)] == sorted(coords)
    assert Quaternion(1, 0, 0, -2) < Quaternion(1, 0, 0, 2) <= Quaternion(1, 0, 0, 2)
    assert Quaternion(3, 0, 0, 0) > Quaternion(1, 8, 8, 8) >= Quaternion(1, 8, 8, 8)


def test_intmatrix_refuses_a_bad_shape():
    with pytest.raises(ValueError, match="^negative matrix dimension$"):
        IntMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="^negative matrix dimension$"):
        IntMatrix(0, -1, ())
    with pytest.raises(ValueError, match="^row count does not match row_pairs$"):
        IntMatrix(2, 1, ((),))
    assert IntMatrix(0, 0, ()).row_pairs == ()


def test_no_record_is_a_generated_dataclass():
    # A dataclass generates and compiles its methods when its module is
    # imported; the package's records are named tuples, made without it.
    for path in sorted((ROOT / "src" / "treelat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name} imports dataclasses"
    classes = []
    for path in sorted((ROOT / "src" / "treelat").glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"treelat.{path.stem}".removesuffix(".__init__"))
        classes += [v for v in vars(module).values() if isinstance(v, type)]
    classes = [c for c in classes if c.__module__.startswith("treelat")]
    assert len(classes) >= len(FIELDS) + 1
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []
