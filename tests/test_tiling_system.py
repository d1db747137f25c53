import random

import pytest

from treelat import tiling_system
from treelat.complex_model import load_complex, expand_directed_squares, validate_vht
from treelat.mozes import generate_mozes_complex
from treelat.homology import chain_maps
from treelat.tiling_system import build_tiling, connectivity, k0_rank, label_tiling, stacked_matrix
from treelat.zlinalg import IntMatrix, kernel_basis

import _complexes
from _oracles import (
    axis_connectivity_by_matrix,
    build_tiling_by_pairs,
    connectivity_by_refs,
    edge_graph_components_by_pairs,
    h_image_index,
    matches_factors,
    strongly_connected_by_closure,
    sub,
    tile_labels,
    v_image_index,
    vstack,
)


def rederive_entries(analysis):
    """The transition-matrix entries straight from the defining conditions,
    by a naive double loop over square labels and positional reflections."""
    r = expand_directed_squares(analysis.complex)
    n = len(r)
    m1 = [[0] * n for _ in range(n)]
    m2 = [[0] * n for _ in range(n)]
    for t in range(n):
        for s in range(n):
            if r[s].b == r[t].b_prime and s != h_image_index(t):
                m1[s][t] = 1
            if r[s].a == r[t].a_prime and s != v_image_index(t):
                m2[s][t] = 1
    return m1, m2


def test_entry_definitions_rederived(corpus):
    for name, analysis in corpus.items():
        m1, m2 = rederive_entries(analysis)
        assert analysis.tiling.m1.to_lists() == m1, name
        assert analysis.tiling.m2.to_lists() == m2, name


def test_h_image_never_adjacent(corpus):
    for analysis in corpus.values():
        m1 = analysis.tiling.m1
        m2 = analysis.tiling.m2
        for t in range(len(analysis.tiling.b)):
            assert m1.entry(h_image_index(t), t) == 0
            assert m2.entry(v_image_index(t), t) == 0


def test_column_sums_match_degrees(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        r = expand_directed_squares(c)
        for t_idx, t in enumerate(r):
            expected1 = c.h_degree(c.origin(t.b_prime)) - 1
            expected2 = c.v_degree(c.origin(t.a_prime)) - 1
            assert sum(analysis.tiling.m1.column(t_idx)) == expected1
            assert sum(analysis.tiling.m2.column(t_idx)) == expected2


def test_horizontal_flip_transposes_adjacency(corpus):
    # m1[s][t] = m1[t^h][s^h]: reflecting both tiles swaps the roles of the
    # two sides of the shared edge.  Same for m2 with the vertical flip.
    for analysis in corpus.values():
        m1 = analysis.tiling.m1
        m2 = analysis.tiling.m2
        n = len(analysis.tiling.b)
        for t in range(n):
            for s in range(n):
                assert m1.entry(s, t) == m1.entry(h_image_index(t), h_image_index(s))
                assert m2.entry(s, t) == m2.entry(v_image_index(t), v_image_index(s))


def test_torus_matrices_are_identity(torus):
    assert torus.tiling.m1.entries == IntMatrix.identity(4).entries
    assert torus.tiling.m2.entries == IntMatrix.identity(4).entries
    for j in range(4):
        assert sum(torus.tiling.m1.column(j)) == 1


def test_mozes_column_sums(mozes513):
    assert set(mozes513.tiling.m1.column_sums()) == {5}
    assert set(mozes513.tiling.m2.column_sums()) == {13}


def test_stacked_shape_and_column_sums(corpus):
    stacked = stacked_matrix(corpus["mozes513"].tiling)
    assert (stacked.rows, stacked.cols) == (168, 84)
    assert set(stacked.column_sums()) == {(5 - 1) + (13 - 1)}
    for name, analysis in corpus.items():
        ts = analysis.tiling
        eye = IntMatrix.identity(len(ts.b))
        expected = vstack(sub(ts.m1, eye), sub(ts.m2, eye))
        assert stacked_matrix(ts) == expected, name


def test_stacked_kernel_annihilated_by_both_blocks(mozes513):
    from treelat.zlinalg import kernel_basis

    ts = mozes513.tiling
    n = len(ts.b)
    eye = IntMatrix.identity(n)
    top = sub(ts.m1, eye)
    bottom = sub(ts.m2, eye)
    vectors = kernel_basis(stacked_matrix(ts))
    assert len(vectors) == 11
    for vec in vectors:
        col = IntMatrix.from_columns([vec], rows=n)
        assert top.mul(col).is_zero()
        assert bottom.mul(col).is_zero()


def test_strong_connectivity_equals_matrix_irreducibility(corpus):
    for name, analysis in corpus.items():
        conn = analysis.connectivity
        assert conn.horizontal.strongly_connected == strongly_connected_by_closure(
            analysis.tiling.m1.to_lists()
        ), name
        assert conn.vertical.strongly_connected == strongly_connected_by_closure(
            analysis.tiling.m2.to_lists()
        ), name


def test_mozes_graphs_strongly_connected(mozes513, mozes517):
    for analysis in (mozes513, mozes517):
        assert analysis.connectivity.horizontal.strongly_connected
        assert analysis.connectivity.vertical.strongly_connected
        assert analysis.connectivity.horizontal.weakly_connected


def test_f2xf2_graphs_decompose(f2xf2):
    conn = f2xf2.connectivity
    assert not conn.horizontal.strongly_connected
    assert not conn.horizontal.weakly_connected
    assert conn.horizontal.scc_count == 4  # one per directed vertical edge


def test_edge_graph_components_orientation_halves(corpus):
    for analysis in corpus.values():
        conn = analysis.connectivity
        for comp in conn.gh_b_components + conn.gv_a_components:
            assert comp.edges == 2 * comp.oriented_edges


def test_mozes_edge_components_satisfy_vertex_bound(mozes513):
    for comp in mozes513.connectivity.gh_b_components:
        assert comp.vertices < comp.oriented_edges
    for comp in mozes513.connectivity.gv_a_components:
        assert comp.vertices < comp.oriented_edges


def test_torus_edge_components_violate_vertex_bound(torus):
    # degree 2 < 3: the counting bound |C0| < |C+| fails
    assert all(
        comp.vertices >= comp.oriented_edges
        for comp in torus.connectivity.gh_b_components
    )
    assert len(torus.connectivity.gh_b_components) == 2


def test_k0_rank_values(mozes513, mozes517, f2xf2):
    assert (mozes513.k0.kernel_rank, mozes513.k0.k0_rank, mozes513.k0.k1_rank) == (11, 22, 22)
    assert mozes517.k0.k0_rank == 30
    assert (f2xf2.k0.kernel_rank, f2xf2.k0.k0_rank) == (4, 8)
    assert not f2xf2.k0.hypotheses.matrices_irreducible
    assert not f2xf2.k0.hypotheses.interpretation_supported
    assert mozes513.k0.hypotheses.one_vertex
    assert mozes513.k0.hypotheses.matrices_irreducible
    assert mozes513.k0.hypotheses.interpretation_supported


def test_k0_rank_user_assertion_flag(f2xf2):
    stacked = stacked_matrix(f2xf2.tiling)
    kernel = IntMatrix.from_columns(kernel_basis(stacked), rows=stacked.cols)
    result = k0_rank(f2xf2.tiling, f2xf2.connectivity, kernel, irreducible_lattice_asserted=True)
    assert result.hypotheses.irreducible_lattice_asserted
    # the tile graphs are still reducible, so the interpretation stays off
    assert not result.hypotheses.interpretation_supported


def test_random_complexes_rederive(seed=321):
    rng = random.Random(seed)
    for _ in range(6):
        doc = _complexes.random_one_vertex_doc(rng, 2, 2)
        c = load_complex(doc)
        assert validate_vht(c).ok
        r = expand_directed_squares(c)
        ts = build_tiling(r, c)
        n = len(r)
        for t in range(n):
            for s in range(n):
                expected = 1 if (r[s].b == r[t].b_prime and s != h_image_index(t)) else 0
                assert ts.m1.entry(s, t) == expected
        conn = connectivity(ts, c)
        assert conn.horizontal.strongly_connected == strongly_connected_by_closure(
            ts.m1.to_lists()
        )


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (5, 29), (13, 17), (17, 29)])
def test_label_lists_match_the_per_pair_builder_on_the_ladder(p, l):
    # Rows cut from one shared list per primed label against one append
    # per nonzero; connectivity and column sums read off the labels against
    # Tarjan over the built matrices, edge graphs indexed by
    # DirectedEdgeRef and the built column sums; the label check against
    # the built S checked against the labels read off psi.
    c = load_complex(generate_mozes_complex(p, l))
    r = expand_directed_squares(c)
    ts = label_tiling(c.edge_table.tiles, c)
    assert connectivity(ts, c) == connectivity_by_refs(build_tiling(r, c), c, r)
    assert (ts.m1, ts.m2) == build_tiling_by_pairs(r, c)
    assert ts.column_sums() == (ts.m1.column_sums(), ts.m2.column_sums())
    built = stacked_matrix(build_tiling(r, c))
    assert ts.factors is not None
    assert matches_factors(built, *tile_labels(chain_maps(c, c.edge_table.tiles).psi))


def test_transition_matrices_store_only_their_nonzeros(mozes513):
    # Every tile has p = 5 horizontal and l = 13 vertical successors.
    ts = mozes513.tiling
    n = len(ts.b)
    assert sum(map(len, ts.m1.row_pairs)) == 5 * n
    assert sum(map(len, ts.m2.row_pairs)) == 13 * n


def digraph(n, edges):
    """The matrix with entry [s][t] = 1 for every edge t -> s."""
    rows = [[0] * n for _ in range(n)]
    for t, s in edges:
        rows[s][t] = 1
    return IntMatrix.from_rows(rows, cols=n)


def test_axis_connectivity_weak_but_not_strong():
    conn = axis_connectivity_by_matrix(digraph(3, [(0, 1), (1, 2)]))
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, False, 3)


def test_axis_connectivity_not_even_weak():
    conn = axis_connectivity_by_matrix(digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (False, False, 2)


def test_axis_connectivity_strong_skips_the_union_find(monkeypatch):
    class NoUnionFind:
        def __init__(self, n):
            raise AssertionError("union-find run on a strongly connected graph")

    monkeypatch.setattr(tiling_system, "_UnionFind", NoUnionFind)
    conn = axis_connectivity_by_matrix(digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, True, 1)
    with pytest.raises(AssertionError):
        axis_connectivity_by_matrix(digraph(2, [(0, 1)]))


# The same digraphs on label input: an edge t -> s whenever
# labels[s] = primed[t] and s != t ^ flip.


def test_label_axis_connectivity_weak_but_not_strong():
    # 0 -> 1 -> 2; no tile has label 6, the primed label of tile 2
    conn = tiling_system._axis_connectivity([7, 8, 9], [8, 9, 6], 2)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, False, 3)


def test_label_axis_connectivity_not_even_weak():
    # 0 <-> 1 and 2 <-> 3, with loops
    conn = tiling_system._axis_connectivity([0, 0, 1, 1], [0, 0, 1, 1], 2)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (False, False, 2)
    # tiles 0 and 1 both have label 0 and primed label 0, but each skips
    # t ^ 1, the other one: only the loops are left
    conn = tiling_system._axis_connectivity([0, 0], [0, 0], 1)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (False, False, 2)
    # with a skip that names no tile, 0 <-> 1
    conn = tiling_system._axis_connectivity([0, 0], [0, 0], 4)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, True, 1)


def test_label_axis_connectivity_strong_skips_the_union_find(monkeypatch):
    class NoUnionFind:
        def __init__(self, n):
            raise AssertionError("union-find run on a strongly connected graph")

    monkeypatch.setattr(tiling_system, "_UnionFind", NoUnionFind)
    # 0 -> 1 -> 2 -> 3 -> 0
    conn = tiling_system._axis_connectivity([0, 1, 2, 3], [1, 2, 3, 0], 2)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, True, 1)
    with pytest.raises(AssertionError):
        # 0 -> 1 only
        tiling_system._axis_connectivity([0, 1], [1, 5], 2)


def test_label_components_number_every_label_up_to_the_last():
    # Labels 1 and 2 meet no tile and label 5 lies past the last one: each
    # is an edge-graph vertex of its own, as the union-find oracle says.
    labels, primed = (0, 3, 4), (3, 0, 4)
    component = tiling_system.label_components(labels, primed)
    assert component == (0, 1, 2, 0, 3)
    oriented = (True, False, True)
    assert tiling_system._edge_graph_components(
        6, component, labels, oriented
    ) == edge_graph_components_by_pairs(6, list(zip(labels, primed)), oriented)


def test_label_components_are_found_once_per_analysis(monkeypatch, mozes513_doc):
    # One union-find per label graph, shared by connectivity and the count
    # of the stacked kernel.
    from treelat import homology
    from treelat.cli import analyze_document

    calls = []
    original = tiling_system.label_components

    def counted(labels, primed):
        calls.append(labels)
        return original(labels, primed)

    monkeypatch.setattr(tiling_system, "label_components", counted)
    monkeypatch.setattr(homology, "label_components", counted)
    _, a = analyze_document(mozes513_doc)
    assert calls == [a.tiling.b, a.tiling.a]
    assert a.k0.kernel_rank == 11
