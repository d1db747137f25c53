"""Tiling system of a VH-T complex: transition matrices and derived graphs.

With the expanded directed squares indexed orbit-major (tags 1, v, h, vh at
offsets 0..3), the reflections act on indices by xor on the offset.  The
two 0-1 transition matrices encode tile adjacency:

    m1[s][t] = 1  iff  b(s) = b'(t) and s != t^h      (horizontal: s right of t)
    m2[s][t] = 1  iff  a(s) = a'(t) and s != t^v      (vertical:   s above t)

Columns index the domain, so the image of the basis tile t under the
horizontal transition operator is read off column t of m1.  The stacked
matrix (m1 - I over m2 - I) is the operator whose kernel lattice carries
the degree-2 homology; twice its rank is the boundary-algebra K_0 rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left

from treelat.complex_model import DirectedSquare, SquareComplex, _UnionFind
from treelat.zlinalg import IntMatrix


@dataclass(frozen=True)
class TilingSystem:
    squares: tuple[DirectedSquare, ...]
    m1: IntMatrix
    m2: IntMatrix
    n_vertices: int


@dataclass(frozen=True)
class AxisConnectivity:
    weakly_connected: bool
    strongly_connected: bool
    scc_count: int


@dataclass(frozen=True)
class EdgeGraphComponent:
    """One component of an edge graph: |C0| vertices, |C1| edges, |C+| oriented."""

    vertices: int
    edges: int
    oriented_edges: int


@dataclass(frozen=True)
class ConnectivityReport:
    horizontal: AxisConnectivity
    vertical: AxisConnectivity
    gh_b_components: tuple[EdgeGraphComponent, ...]
    gv_a_components: tuple[EdgeGraphComponent, ...]


@dataclass(frozen=True)
class K0Hypotheses:
    one_vertex: bool
    gh_strongly_connected: bool
    gv_strongly_connected: bool
    matrices_irreducible: bool
    irreducible_lattice_asserted: bool
    interpretation_supported: bool


@dataclass(frozen=True)
class K0Result:
    kernel_rank: int
    k0_rank: int
    k1_rank: int
    hypotheses: K0Hypotheses


def _follower_rows(labels: list[int], primed: list[int], flip: int) -> list[tuple]:
    """The rows s of a transition matrix: (t, 1) for every t with
    primed[t] = labels[s], except t = s ^ flip.

    The pairs of each primed label form one sorted tuple, shared by every
    row with that label; row s is that tuple with (s ^ flip, 1) cut out, or
    the tuple itself when it does not hold that pair.
    """
    followers: dict[int, list[tuple[int, int]]] = {}
    for t, x in enumerate(primed):
        followers.setdefault(x, []).append((t, 1))
    shared = {x: tuple(pairs) for x, pairs in followers.items()}
    rows = []
    for s, x in enumerate(labels):
        base = shared.get(x, ())
        k = bisect_left(base, (s ^ flip,))  # (t,) sorts before every pair (t, 1)
        if k < len(base) and base[k][0] == s ^ flip:
            base = base[:k] + base[k + 1 :]
        rows.append(base)
    return rows


def build_tiling(r: tuple[DirectedSquare, ...], c: SquareComplex) -> TilingSystem:
    """Transition matrices from the expanded directed squares.

    Each directed edge gets an integer label, keyed by (edge id, reversed);
    the rows of m1 and m2 are then cut from one shared list per primed
    label (_follower_rows): t^h = t ^ 2 is dropped from row s of m1 and
    t^v = t ^ 1 from row s of m2.
    """
    index: dict[tuple[str, bool], int] = {}

    def labels(refs) -> list[int]:
        return [index.setdefault((ref.edge, ref.reversed), len(index)) for ref in refs]

    n = len(r)
    m1 = _follower_rows(labels(t.b for t in r), labels(t.b_prime for t in r), 2)
    m2 = _follower_rows(labels(t.a for t in r), labels(t.a_prime for t in r), 1)
    return TilingSystem(
        squares=tuple(r),
        m1=IntMatrix(n, n, tuple(m1)),
        m2=IntMatrix(n, n, tuple(m2)),
        n_vertices=len(c.vertices),
    )


def _minus_diagonal(pairs: tuple, i: int) -> tuple:
    """Row i of m - I, from the stored pairs of row i of m."""
    k = bisect_left(pairs, (i,))  # (i,) sorts before every pair (i, x)
    if k < len(pairs) and pairs[k][0] == i:
        x = pairs[k][1] - 1
        return pairs[:k] + (((i, x),) if x else ()) + pairs[k + 1 :]
    return pairs[:k] + ((i, -1),) + pairs[k:]


def stacked_matrix(ts: TilingSystem) -> IntMatrix:
    """The 2n x n matrix (m1 - I) stacked over (m2 - I)."""
    n = len(ts.squares)
    rows = []
    for m in (ts.m1, ts.m2):
        rows.extend(map(_minus_diagonal, m.row_pairs, range(n)))
    return IntMatrix(2 * n, n, tuple(rows))


def matches_factors(stacked: IntMatrix, b: list[int], a: list[int]) -> bool:
    """True iff stacked = (E.F^T - P_h - I over E'.G^T - P_v - I) for the tile labels b, a.

    E[s][x] = [b(s) = x] and F[t][x] = [b'(t) = x] with b'(t) = b(t^h); E'
    and G are the same for a, with a'(t) = a(t^v); P_h and P_v permute tiles
    by t -> t^h and t -> t^v.  The labels are any integers.  Since
    b'(s^h) = b(s), row s of E.F^T - P_h holds a 1 at every t with
    b'(t) = b(s) except s^h: the definition of m1, and of m2 for a.  Each
    expected row is cut out of the shared list of tiles with that primed
    label (_follower_rows, as in build_tiling), so the check costs O(n)
    Python steps and O(nnz) copying.
    """
    n = len(b)
    if stacked.rows != 2 * n or stacked.cols != n or len(a) != n or n % 4:
        return False
    rows = stacked.row_pairs
    for top, labels, flip in ((0, b, 2), (n, a, 1)):
        # tile t ^ 2 is t^h and tile t ^ 1 is t^v
        primed = [labels[t ^ flip] for t in range(n)]
        expected = _follower_rows(labels, primed, flip)
        for s in range(n):
            if rows[top + s] != _minus_diagonal(expected[s], s):
                return False
    return True


def _successors(m: IntMatrix) -> list[list[int]]:
    # edge t -> s whenever m[s][t] = 1
    adj: list[list[int]] = [[] for _ in range(m.cols)]
    for s, pairs in enumerate(m.row_pairs):
        for t, _ in pairs:
            adj[t].append(s)
    return adj


def _scc_count(adj: list[list[int]]) -> int:
    """Number of strongly connected components (iterative Tarjan)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    count = 0
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == index[v]:
                count += 1
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v:
                        break
    return count


def _axis_connectivity(m: IntMatrix) -> AxisConnectivity:
    adj = _successors(m)
    n = len(adj)
    scc = _scc_count(adj)
    strong = n == 0 or scc == 1
    # A strongly connected graph is weakly connected; only a graph with
    # several strong components needs the union-find over its edges.
    weak = strong
    if not strong:
        uf = _UnionFind(n)
        for t in range(n):
            for s in adj[t]:
                uf.union(t, s)
        weak = uf.component_count() == 1
    return AxisConnectivity(
        weakly_connected=weak,
        strongly_connected=strong,
        scc_count=scc,
    )


def _edge_graph_components(
    n_vertices: int,
    endpoint_pairs: list[tuple[int, int]],
    oriented: list[bool],
) -> tuple[EdgeGraphComponent, ...]:
    uf = _UnionFind(n_vertices)
    for x, y in endpoint_pairs:
        uf.union(x, y)
    roots: dict[int, int] = {}
    order: list[int] = []
    for v in range(n_vertices):
        root = uf.find(v)
        if root not in roots:
            roots[root] = len(order)
            order.append(root)
    n_comp = len(order)
    vert_count = [0] * n_comp
    edge_count = [0] * n_comp
    plus_count = [0] * n_comp
    for v in range(n_vertices):
        vert_count[roots[uf.find(v)]] += 1
    for (x, _), is_plus in zip(endpoint_pairs, oriented):
        k = roots[uf.find(x)]
        edge_count[k] += 1
        if is_plus:
            plus_count[k] += 1
    return tuple(
        EdgeGraphComponent(vertices=vert_count[k], edges=edge_count[k], oriented_edges=plus_count[k])
        for k in range(n_comp)
    )


def connectivity(ts: TilingSystem, c: SquareComplex) -> ConnectivityReport:
    """Connectivity of the four derived graphs.

    The directed graphs on tiles (edge t -> s whenever the transition matrix
    entry [s][t] is 1) are reported with weak and strong connectivity, since
    strong connectivity is what matrix irreducibility needs.  The undirected
    edge graphs have the directed vertical (resp. horizontal) edges as
    vertices, one edge per tile joining b(t) to b'(t) (resp. a(t) to a'(t));
    for each component the orientation class keeps one tile out of each
    {t, t^h} (resp. {t, t^v}) pair, namely sigma tags (1, v) (resp. (1, h)).
    """
    horizontal = _axis_connectivity(ts.m1)
    vertical = _axis_connectivity(ts.m2)

    # Directed edge (e, reversed) is vertex 2i + reversed of its edge
    # graph, e the i-th edge of its axis: the order of c.directed_v() and
    # c.directed_h().
    v_pos = {e.id: 2 * i for i, e in enumerate(c.v_edges)}
    h_pos = {e.id: 2 * i for i, e in enumerate(c.h_edges)}

    r = ts.squares
    b_pairs = [
        (v_pos[t.b.edge] + t.b.reversed, v_pos[t.b_prime.edge] + t.b_prime.reversed) for t in r
    ]
    b_plus = [t.sigma_tag in ("1", "v") for t in r]
    a_pairs = [
        (h_pos[t.a.edge] + t.a.reversed, h_pos[t.a_prime.edge] + t.a_prime.reversed) for t in r
    ]
    a_plus = [t.sigma_tag in ("1", "h") for t in r]

    return ConnectivityReport(
        horizontal=horizontal,
        vertical=vertical,
        gh_b_components=_edge_graph_components(2 * len(c.v_edges), b_pairs, b_plus),
        gv_a_components=_edge_graph_components(2 * len(c.h_edges), a_pairs, a_plus),
    )


def k0_rank(
    ts: TilingSystem,
    conn: ConnectivityReport,
    stacked_kernel: IntMatrix,
    irreducible_lattice_asserted: bool = False,
) -> K0Result:
    """Kernel rank of the stacked operator and the derived K-group ranks.

    conn is connectivity(ts, ...) and stacked_kernel a basis of the kernel
    lattice of stacked_matrix(ts), one vector per column; both are computed
    once by the caller.
    The ranks are always computed; the hypothesis flags record whether the
    operator-algebra reading of them (K_0 = K_1 of the boundary crossed
    product, each of rank twice the kernel rank) is supported on this
    instance: a one-vertex complex or an asserted irreducible-lattice
    provenance, plus strong connectivity of both tile graphs.
    """
    kernel_rank = stacked_kernel.cols
    gh = conn.horizontal.strongly_connected
    gv = conn.vertical.strongly_connected
    one_vertex = ts.n_vertices == 1
    irreducible = gh and gv
    hypotheses = K0Hypotheses(
        one_vertex=one_vertex,
        gh_strongly_connected=gh,
        gv_strongly_connected=gv,
        matrices_irreducible=irreducible,
        irreducible_lattice_asserted=irreducible_lattice_asserted,
        interpretation_supported=(one_vertex or irreducible_lattice_asserted) and irreducible,
    )
    return K0Result(
        kernel_rank=kernel_rank,
        k0_rank=2 * kernel_rank,
        k1_rank=2 * kernel_rank,
        hypotheses=hypotheses,
    )
