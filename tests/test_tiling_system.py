import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelat import cli, tiling_system
from treelat.complex_model import load_complex, expand_directed_squares, validate_vht
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import build_tiling, connectivity, stacked_matrix
from treelat.zlinalg import IntMatrix

import _complexes
from _complexes import LADDER, random_batch_documents
from _battery import assert_column_sums, retarget
from _oracles import (
    M,
    identity,
    axis_connectivity_by_matrix,
    build_tiling_by_pairs,
    connectivity_by_refs,
    dense_column_sums,
    edge_graph_components_by_pairs,
    edge_graph_components_by_tiles,
    expand_by_sigma,
    h_image_index,
    label_components_by_tiles,
    matches_factors,
    psi_matrix,
    stacked_matrix_by_bisect,
    strongly_connected_by_closure,
    sub,
    tile_labels,
    tile_squares,
    transition_entries_by_definition,
    v_image_index,
    vstack,
)


def test_entry_definitions_rederived(corpus):
    for name, analysis in corpus.items():
        ts = analysis.tiling
        assert (ts.m1.entries, ts.m2.entries) == transition_entries_by_definition(analysis.complex)


def test_h_image_never_adjacent(corpus):
    for analysis in corpus.values():
        m1 = analysis.tiling.m1.entries
        m2 = analysis.tiling.m2.entries
        for t in range(len(analysis.tiling.b)):
            assert m1[h_image_index(t)][t] == 0
            assert m2[v_image_index(t)][t] == 0


def test_column_sums_match_degrees(corpus):
    for analysis in corpus.values():
        assert_column_sums(analysis.complex, analysis.tiling)


def test_horizontal_flip_transposes_adjacency(corpus):
    # m1[s][t] = m1[t^h][s^h]: reflecting both tiles swaps the roles of the
    # two sides of the shared edge.  Same for m2 with the vertical flip.
    for analysis in corpus.values():
        m1 = analysis.tiling.m1.entries
        m2 = analysis.tiling.m2.entries
        n = len(analysis.tiling.b)
        for t in range(n):
            for s in range(n):
                assert m1[s][t] == m1[h_image_index(t)][h_image_index(s)]
                assert m2[s][t] == m2[v_image_index(t)][v_image_index(s)]


def test_torus_matrices_are_identity(torus):
    assert torus.tiling.m1.entries == identity(4).entries
    assert torus.tiling.m2.entries == identity(4).entries
    assert dense_column_sums(torus.tiling.m1.entries, 4) == (1, 1, 1, 1)


def test_mozes_column_sums(mozes513):
    m1, m2 = mozes513.tiling.m1, mozes513.tiling.m2
    assert set(dense_column_sums(m1.entries, m1.cols)) == {5}
    assert set(dense_column_sums(m2.entries, m2.cols)) == {13}


def test_stacked_shape_and_column_sums(corpus):
    stacked = stacked_matrix(corpus["mozes513"].tiling)
    assert (stacked.rows, stacked.cols) == (168, 84)
    assert set(dense_column_sums(stacked.entries, 84)) == {(5 - 1) + (13 - 1)}
    for name, analysis in corpus.items():
        ts = analysis.tiling
        eye = identity(len(ts.b))
        expected = vstack(sub(ts.m1, eye), sub(ts.m2, eye))
        assert stacked_matrix(ts) == expected, name


def test_stacked_kernel_annihilated_by_both_blocks(mozes513):
    from treelat.zlinalg import kernel_basis

    ts = mozes513.tiling
    n = len(ts.b)
    eye = identity(n)
    top = sub(ts.m1, eye)
    bottom = sub(ts.m2, eye)
    vectors = kernel_basis(stacked_matrix(ts))
    assert len(vectors) == 11
    for vec in vectors:
        col = M([vec], n).transpose()
        assert top.mul(col).is_zero()
        assert bottom.mul(col).is_zero()


def test_strong_connectivity_equals_matrix_irreducibility(corpus):
    for name, a in corpus.items():
        conn, ts = a.connectivity, a.tiling
        for axis, m in ((conn.horizontal, ts.m1), (conn.vertical, ts.m2)):
            assert axis.strongly_connected == strongly_connected_by_closure(m.entries), name


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


def test_interpretation_needs_one_vertex_and_irreducible_matrices(corpus):
    # No input can assert an irreducible lattice, and the report says so.
    for a in [*corpus.values(), *(cli.analyze_document(d)[1] for d in random_batch_documents(1))]:
        h = a.k0.hypotheses
        assert h.interpretation_supported == (h.one_vertex and h.matrices_irreducible)
        assert not cli.build_report(a, b"")["tiling"]["hypotheses"]["irreducible_lattice_asserted"]


def test_random_complexes_rederive(seed=321):
    rng = random.Random(seed)
    for _ in range(6):
        doc = _complexes.random_one_vertex_doc(rng, 2, 2)
        c = load_complex(doc)
        assert not validate_vht(c).errors
        ts = build_tiling(expand_directed_squares(c), c)
        m1 = ts.m1.entries
        assert m1 == transition_entries_by_definition(c)[0]
        conn = connectivity(ts, c)
        assert conn.horizontal.strongly_connected == strongly_connected_by_closure(m1)


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (5, 29), (13, 17), (17, 29)])
def test_label_lists_match_the_per_pair_builder_on_the_ladder(p, l):
    # Rows cut from one shared list per primed label against one append
    # per nonzero; connectivity and column sums read off the labels against
    # Tarjan over the built matrices, edge graphs indexed by
    # Ref and the built column sums; the labels against the built S
    # checked against the labels read off psi.
    c = load_complex(generate_mozes_complex(p, l))
    r = expand_by_sigma(c)
    tiles = expand_directed_squares(c)
    ts = build_tiling(tiles, c)
    assert connectivity(ts, c) == connectivity_by_refs(build_tiling(tiles, c), c, r)
    assert (ts.m1, ts.m2) == build_tiling_by_pairs(r, c)
    n = len(tiles)
    b_count, a_count = ts.label_counts
    assert dense_column_sums(ts.m1.entries, n) == tuple(b_count[ts.b[t ^ 2]] - 1 for t in range(n))
    assert dense_column_sums(ts.m2.entries, n) == tuple(a_count[ts.a[t ^ 1]] - 1 for t in range(n))
    built = stacked_matrix(build_tiling(tiles, c))
    assert matches_factors(built, *tile_labels(psi_matrix(c, tiles)))


def stacked_oracle_documents():
    """The ladder, (29,37), the battery and random one-vertex and product
    documents, by name."""
    pairs = ((5, 13), (5, 17), (5, 29), (13, 17), (29, 37))
    docs = {f"mozes{p},{l}": generate_mozes_complex(p, l) for p, l in pairs}
    for name in ("torus", "f2xf2", "klein", "two_vertex_klein"):
        docs[name] = getattr(_complexes, f"{name}_doc")()
    rng = random.Random(24)
    for k in range(12):
        n_h, n_v = rng.randint(1, 4), rng.randint(1, 4)
        docs[f"one_vertex{k}"] = _complexes.random_one_vertex_doc(rng, n_h, n_v)
    for k in range(12):
        # min degree 1 gives leaves, and loops give tiles with b(t) = b'(t)
        g1 = _complexes.random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 3), 1 + k % 3)
        g2 = _complexes.random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 3), 1 + k % 3)
        docs[f"product{k}"] = _complexes.product_doc(g1, g2)
    return docs


STACKED_ORACLE_DOCUMENTS = stacked_oracle_documents()


@pytest.mark.parametrize("name", sorted(STACKED_ORACLE_DOCUMENTS))
def test_stacked_rows_cut_by_position_match_the_bisect_oracle(name):
    # Each row of S is cut at the positions of s ^ flip and s in the shared
    # tuple of its label, read off one table, against two bisects per row.
    c = load_complex(STACKED_ORACLE_DOCUMENTS[name])
    ts = build_tiling(expand_directed_squares(c), c)
    assert stacked_matrix(ts) == stacked_matrix_by_bisect(ts)


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
    return M(rows, n)


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


# The same kinds of digraph as tile graphs of label multigraphs (see
# label_lists below), against the matrix oracle.


def label_axis_connectivity(edges, flip):
    """_label_axis_connectivity of the labels label_lists makes of edges,
    checked against the matrix oracle."""
    labels = label_lists(edges, 2 * len(edges), flip)
    component = tiling_system.label_components(labels, flip)
    conn = tiling_system._label_axis_connectivity(labels, flip, component, Counter(labels))
    assert conn == axis_connectivity_by_matrix(tile_graph_by_definition(labels, flip))
    return conn


def test_label_axis_connectivity_weak_but_not_strong():
    # A loop at 0 and an edge 0 - 1 to the leaf 1: the loop's two darts
    # are cycles of their own, and the two darts of the edge are peeled.
    conn = label_axis_connectivity([(0, 0), (0, 1)], 2)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, False, 4)


def test_label_axis_connectivity_not_even_weak():
    # Two loops at two labels: two cycles, each two directions.
    conn = label_axis_connectivity([(0, 0), (1, 1)], 2)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (False, False, 4)
    # The path 0 - 1 - 2: two directions weakly, and all four darts peeled.
    conn = label_axis_connectivity([(0, 1), (1, 2)], 1)
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (False, False, 4)


def test_label_axis_connectivity_strong_skips_the_union_find(monkeypatch):
    # Two loops at one label, of degree 4: strongly connected, read off the
    # degrees with no union-find and no peel.
    def refuse(*args):
        raise AssertionError("union-find or peel run on a strongly connected graph")

    labels = label_lists([(0, 0), (0, 0)], 4, 2)
    leafy = label_lists([(0, 0), (0, 1)], 4, 2)
    components = [tiling_system.label_components(x, 2) for x in (labels, leafy)]
    monkeypatch.setattr(tiling_system, "_UnionFind", refuse)
    monkeypatch.setattr(tiling_system, "_two_core", refuse)
    conn = tiling_system._label_axis_connectivity(labels, 2, components[0], Counter(labels))
    assert (conn.weakly_connected, conn.strongly_connected, conn.scc_count) == (True, True, 1)
    with pytest.raises(AssertionError):
        # 0 - 0 and 0 - 1: the leaf 1 takes the peel
        tiling_system._label_axis_connectivity(leafy, 2, components[1], Counter(leafy))


def test_label_components_number_every_label_up_to_the_last():
    # Labels 1 and 2 meet no tile and label 5 lies past the last one: each
    # is an edge-graph vertex of its own, as the union-find oracle says.
    labels = (0, 4, 3, 4)
    component = tiling_system.label_components(labels, 2)
    assert component == (0, 1, 2, 0, 3)
    oriented = (True, True, False, False)
    pairs = [(x, labels[t ^ 2]) for t, x in enumerate(labels)]
    assert tiling_system._edge_graph_components(
        6, component, labels, 2, Counter(labels)
    ) == edge_graph_components_by_pairs(6, pairs, oriented)


def test_label_components_match_the_union_over_every_tile(corpus):
    # One union per distinct label pair of the tiles t with t & flip == 0
    # gives the components of the union over every tile, and the edge
    # graphs, read off the label counts and the same tiles, count as one
    # count per tile does: on the corpus, the other small complexes, the
    # Mozes ladder and the random-batch documents of seeds 1-3.  The label
    # lists with loops, parallel edges and labels no tile carries are in
    # test_label_path_agrees_with_tile_tarjan_and_matrix_oracle.
    docs = [generate_mozes_complex(p, l) for p, l in LADDER]
    docs += [_complexes.two_vertex_klein_doc(), _complexes.two_torus_components_doc()]
    docs += [doc for seed in (1, 2, 3) for doc in random_batch_documents(seed)]
    complexes = [analysis.complex for analysis in corpus.values()] + list(map(load_complex, docs))
    assert len(complexes) == 5 + 6 + 2 + 3 * 128
    for c in complexes:
        ts = build_tiling(expand_directed_squares(c), c)
        sizes = (2 * len(c.v_edges), 2 * len(c.h_edges))
        for labels, flip, count, n in zip((ts.b, ts.a), (2, 1), ts.label_counts, sizes):
            component = tiling_system.label_components(labels, flip)
            assert component == label_components_by_tiles(labels, flip)
            got = tiling_system._edge_graph_components(n, component, labels, flip, count)
            oriented = [not t & flip for t in range(len(labels))]
            assert got == edge_graph_components_by_tiles(n, component, labels, oriented)


def test_label_components_are_found_once_per_analysis(monkeypatch, mozes513_doc):
    # One union-find per label graph, shared by connectivity and the count
    # of the stacked kernel, which reads TilingSystem.components.
    from treelat.cli import analyze_document

    calls = []
    original = tiling_system.label_components

    def counted(labels, flip):
        calls.append(labels)
        return original(labels, flip)

    monkeypatch.setattr(tiling_system, "label_components", counted)
    _, a = analyze_document(mozes513_doc)
    assert calls == [a.tiling.b, a.tiling.a]
    assert a.k0.kernel_rank == 11


# --- connectivity read off the label multigraph -------------------------------
#
# When the labels give the factors of S, each tile graph is the
# non-backtracking graph of the multigraph with one edge
# labels[t] - labels[t ^ flip] per pair {t, t ^ flip}: tiles are its darts.


def label_lists(edges, n, flip):
    """The labels of n tiles, orbit-major, that make the edge (u, v) of
    edges the pair {t, t ^ flip} of the i-th tile t with t < t ^ flip:
    labels[t] = u and labels[t ^ flip] = v."""
    labels = [0] * n
    for t, (u, v) in zip([t for t in range(n) if t < t ^ flip], edges):
        labels[t], labels[t ^ flip] = u, v
    return labels


def tile_graph_by_definition(labels, flip):
    """The transition matrix with [s][t] = 1 iff labels[s] = labels[t ^ flip]
    and s != t ^ flip, entry by entry."""
    n = len(labels)
    rows = [
        tuple((t, 1) for t in range(n) if labels[s] == labels[t ^ flip] and s != t ^ flip)
        for s in range(n)
    ]
    return IntMatrix(n, n, tuple(rows))


@st.composite
def label_multigraphs(draw):
    """An even number of edges (u, v) over the vertices 0, 1, ...: loops,
    parallel edges, paths and cycles, each on new vertices or glued at one
    vertex to what is there, so leaves, branch points and pure cycles all
    occur.  An odd count gets a disjoint copy of the whole.  The vertices
    are spread over a larger range, leaving labels no tile carries, and
    each edge is read in a random direction."""
    edges: list[tuple[int, int]] = []
    n_vertices = 0
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("loop", "parallel", "path", "cycle")))
        size = draw(st.integers(1, 4))
        glued = n_vertices and draw(st.booleans())
        first = draw(st.integers(0, n_vertices - 1)) if glued else n_vertices
        fresh = n_vertices + (not glued)
        ring = [first, *range(fresh, fresh + size)]
        if kind == "loop":
            edges += [(first, first)] * size
        elif kind == "parallel":
            edges += [(first, ring[1])] * size
        elif kind == "path":
            edges += list(zip(ring, ring[1:]))
        else:
            edges += list(zip(ring[:size], ring[1:size] + [first]))
        n_vertices = 1 + max(max(e) for e in edges)
    if len(edges) % 2:
        edges += [(u + n_vertices, v + n_vertices) for u, v in edges]
        n_vertices *= 2
    spread = draw(st.permutations(range(2 * n_vertices)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return [
        (spread[v], spread[u]) if f else (spread[u], spread[v]) for (u, v), f in zip(edges, flips)
    ]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(edges=label_multigraphs())
def test_label_path_agrees_with_tile_tarjan_and_matrix_oracle(edges):
    # Both axes carry the same multigraph, the horizontal one on the pairs
    # {t, t ^ 2} and the vertical one on the pairs {t, t ^ 1}.
    # With a leaf, the peel to the 2-core runs, once per axis.
    n = 2 * len(edges)
    b, a = label_lists(edges, n, 2), label_lists(edges, n, 1)
    ts = tiling_system.TilingSystem(b=tuple(b), a=tuple(a), n_vertices=1)
    n_labels = 1 + max(max(e) for e in edges)
    c = SimpleNamespace(v_edges=range(n_labels), h_edges=range(n_labels))
    with pytest.MonkeyPatch.context() as monkeypatch:
        peeled = peel_calls(monkeypatch)
        conn = connectivity(ts, c)
    leaf = 1 in Counter(b).values()
    assert peeled == ([2, 1] if leaf else [])
    for labels, flip, got in ((ts.b, 2, conn.horizontal), (ts.a, 1, conn.vertical)):
        component = label_components_by_tiles(labels, flip)
        assert tiling_system.label_components(labels, flip) == component
        expected = axis_connectivity_by_matrix(tile_graph_by_definition(labels, flip))
        assert got == expected
        if not leaf:
            assert expected.weakly_connected == expected.strongly_connected


def peel_calls(monkeypatch):
    """Record the flip of every peel of a label multigraph (_two_core)."""
    seen = []
    original = tiling_system._two_core

    def counted(labels, flip, degree):
        seen.append(flip)
        return original(labels, flip, degree)

    monkeypatch.setattr(tiling_system, "_two_core", counted)
    return seen


@pytest.mark.parametrize(
    "doc,cycles",
    [(_complexes.torus_doc(), 2), (_complexes.two_torus_components_doc(), 4)],
)
def test_cycle_components_count_twice_on_the_label_path(monkeypatch, doc, cycles):
    # Each label of the torus carries one loop of U: a cycle, whose two
    # directions are two strong and two weak components of the tile graph.
    calls = peel_calls(monkeypatch)
    c = load_complex(doc)
    r = expand_by_sigma(c)
    ts = build_tiling(expand_directed_squares(c), c)
    conn = connectivity(ts, c)
    assert calls == []
    for axis in (conn.horizontal, conn.vertical):
        assert (axis.scc_count, axis.weakly_connected, axis.strongly_connected) == (
            2 * cycles, False, False,
        )
    assert conn == connectivity_by_refs(build_tiling(c.edge_table.tiles, c), c, r)


def test_a_leaf_of_the_label_multigraph_takes_the_peel(monkeypatch):
    # Vertex 0 of the first factor has degree 1, so the b labels of the
    # product's vertical edges over it are carried by one tile each: the
    # horizontal axis is peeled to its 2-core, the vertical one is not.
    calls = peel_calls(monkeypatch)
    g1 = (3, [(0, 1), (1, 2), (1, 2), (2, 2)])
    g2 = (1, [(0, 0), (0, 0)])
    c = load_complex(_complexes.product_doc(g1, g2))
    assert not validate_vht(c).errors
    r = expand_by_sigma(c)
    ts = build_tiling(expand_directed_squares(c), c)
    assert 1 in Counter(ts.b).values() and 1 not in Counter(ts.a).values()
    conn = connectivity(ts, c)
    assert calls == [2]
    assert conn == connectivity_by_refs(build_tiling(c.edge_table.tiles, c), c, r)


def test_tampered_tiles_take_the_tile_tarjan(monkeypatch, mozes513):
    # Tiles with a side retargeted, orbit-major still, once took Tarjan
    # over the tiles; there is no such path now.  Their labels are read
    # like any others: no label is carried by one tile, so neither axis is
    # peeled, and the report is the one of the built matrices.
    calls = peel_calls(monkeypatch)
    c = mozes513.complex
    for slot in ("b_prime", "a_prime"):
        tiles = retarget(mozes513, slot, orbit_major=True)
        ts = build_tiling(tiles, c)
        assert ts != mozes513.tiling
        r = tile_squares(c, tiles)
        assert connectivity(ts, c) == connectivity_by_refs(build_tiling(tiles, c), c, r)
    assert calls == []


@pytest.mark.parametrize("case", ["b_prime", "a_prime", "count"])
def test_build_tiling_rejects_tiles_that_are_not_orbit_major(mozes513, case):
    # The directed squares of a complex are orbit-major: b'(t) = b(t ^ 2),
    # a'(t) = a(t ^ 1), four tiles per orbit.  A side of tile 0 moved to
    # another edge of its axis, or a tile dropped, is refused.
    c = mozes513.complex
    tiles = c.edge_table.tiles[:-1] if case == "count" else retarget(mozes513, case)
    with pytest.raises(ValueError, match="orbit-major"):
        build_tiling(tiles, c)
