"""Tiling system of a VH-T complex: tile labels, transition matrices and
derived graphs.

The tiles are the 4n directed squares, each given by the edge codes
(a, b, a', b') of complex_model.EdgeTable (EdgeTable.tiles).  With them
indexed orbit-major (tags 1, v, h, vh at offsets 0..3), the reflections act
on indices by xor on the offset.  The two 0-1 transition matrices encode
tile adjacency:

    m1[s][t] = 1  iff  b(s) = b'(t) and s != t^h      (horizontal: s right of t)
    m2[s][t] = 1  iff  a(s) = a'(t) and s != t^v      (vertical:   s above t)

Columns index the domain, so the image of the basis tile t under the
horizontal transition operator is read off column t of m1.  The stacked
matrix (m1 - I over m2 - I) is the operator whose kernel lattice carries
the degree-2 homology; twice its rank is the boundary-algebra K_0 rank.

An analysis reads the tile and edge graphs, the column sums and the factors
of the stacked operator off the tile labels (label_tiling of the codes);
m1, m2 and the stacked matrix are built only on demand, each from the
labels on its own: for export and on fallback.  build_tiling is the entry
for tiles given as DirectedSquares.

When the labels give the factors, the tiles of an axis are the darts of a
multigraph on its labels, one edge b(t) - b(t^h) per pair {t, t^h} (resp.
a(t) - a(t^v)), and the tile graph is that multigraph's non-backtracking
graph.  connectivity then reads strong and weak connectivity off the label
degrees and label components (_label_axis_connectivity, with the proof);
Tarjan over the tiles is left for tiles without factors and for a label
carried by one tile only.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from treelat.complex_model import DirectedSquare, SquareComplex, _UnionFind
from treelat.zlinalg import IntMatrix


# The labels b(t) and a(t) of every tile, as TilingSystem.factors checks them.
TileLabels = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class TilingSystem:
    """The tiles of a complex, by the integer labels of their sides.

    b[t] and b_prime[t] number the directed vertical edges b(t) and b'(t):
    edge (e, reversed) is 2i + reversed for e the i-th vertical edge, which
    is also its vertex in the edge graph of connectivity; a and a_prime
    number the directed horizontal edges the same way.  m1, m2, stacked and
    factors are derived from the labels on first access, then kept.
    """

    b: tuple[int, ...]
    b_prime: tuple[int, ...]
    a: tuple[int, ...]
    a_prime: tuple[int, ...]
    n_vertices: int

    @cached_property
    def m1(self) -> IntMatrix:
        n = len(self.b)
        return IntMatrix(n, n, tuple(_follower_rows(self.b, self.b_prime, 2)))

    @cached_property
    def m2(self) -> IntMatrix:
        n = len(self.a)
        return IntMatrix(n, n, tuple(_follower_rows(self.a, self.a_prime, 1)))

    @cached_property
    def stacked(self) -> IntMatrix:
        """stacked_matrix(self), built once."""
        return stacked_matrix(self)

    @cached_property
    def factors(self) -> TileLabels | None:
        """(b, a) when b'(t) = b(t^h) and a'(t) = a(t^v) for every tile,
        else None.  O(n): t^h = t ^ 2 and t^v = t ^ 1.

        When it holds, stacked = (E.F^T - P_h - I over E'.G^T - P_v - I),
        with E[s][x] = [b(s) = x] and F[t][x] = [b'(t) = x], E' and G the
        same for a, and P_h, P_v the permutations t -> t^h and t -> t^v.
        Entry [s][t] of E.F^T is [b(s) = b'(t)], and b'(s^h) = b(s), so
        row s of E.F^T - P_h holds a 1 at every t with b'(t) = b(s) except
        s^h: the definition of m1, and likewise of m2 for a.  The stacked
        kernel (homology.structured_kernel_dim) and the commuting square
        read the operator off these factors, and never build it.
        """
        b, a = self.b, self.a
        n = len(b)
        if (
            n % 4
            or self.b_prime != tuple([b[t ^ 2] for t in range(n)])
            or self.a_prime != tuple([a[t ^ 1] for t in range(n)])
        ):
            return None
        return b, a

    @cached_property
    def components(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The label components of the b-b' graph and of the a-a' graph
        (label_components), found once for connectivity and for the count
        of the stacked kernel (homology.structured_kernel_dim)."""
        return label_components(self.b, self.b_prime), label_components(self.a, self.a_prime)

    def column_sums(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The column sums of m1 and of m2, read off the labels."""
        return _column_sums(self.b, self.b_prime, 2), _column_sums(self.a, self.a_prime, 1)


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


def _shared_followers(primed) -> dict[int, tuple]:
    """The sorted pairs (t, 1) of the tiles t with each primed label."""
    followers: dict[int, list[tuple[int, int]]] = {}
    for t, x in enumerate(primed):
        followers.setdefault(x, []).append((t, 1))
    return {x: tuple(pairs) for x, pairs in followers.items()}


def _follower_rows(labels, primed, flip: int) -> list[tuple]:
    """The rows s of a transition matrix: (t, 1) for every t with
    primed[t] = labels[s], except t = s ^ flip.

    The pairs of each primed label form one sorted tuple, shared by every
    row with that label; row s is that tuple with (s ^ flip, 1) cut out, or
    the tuple itself when it does not hold that pair.
    """
    shared = _shared_followers(primed)
    rows = []
    for s, x in enumerate(labels):
        base = shared.get(x, ())
        k = bisect_left(base, (s ^ flip,))  # (t,) sorts before every pair (t, 1)
        if k < len(base) and base[k][0] == s ^ flip:
            base = base[:k] + base[k + 1 :]
        rows.append(base)
    return rows


def _minus_identity_rows(labels, primed, flip: int) -> list[tuple]:
    """The rows s of a transition matrix less the identity, cut from the
    same shared tuples as _follower_rows in one slice pass.

    Both columns s ^ flip and s leave the tuple when it holds them: the
    first is cut from the transition matrix, and at the second 1 - 1 = 0.
    When the tuple does not hold s, (s, -1) goes in its place.
    """
    shared = _shared_followers(primed)
    rows = []
    for s, x in enumerate(labels):
        base = shared.get(x, ())
        cut = s ^ flip
        lo, hi = (s, cut) if s < cut else (cut, s)
        i = bisect_left(base, (lo,))
        i_end = i + (i < len(base) and base[i][0] == lo)
        j = bisect_left(base, (hi,), i_end)
        j_end = j + (j < len(base) and base[j][0] == hi)
        at_lo = ((s, -1),) if lo == s and i == i_end else ()
        at_hi = ((s, -1),) if hi == s and j == j_end else ()
        rows.append(base[:i] + at_lo + base[i_end:j] + at_hi + base[j_end:])
    return rows


def _column_sums(labels, primed, flip: int) -> tuple[int, ...]:
    """Column t of a transition matrix counts the tiles s with
    labels[s] = primed[t], less t ^ flip when it is one of them."""
    count = Counter(labels)
    return tuple([count[x] - (labels[t ^ flip] == x) for t, x in enumerate(primed)])


def label_tiling(tiles: tuple[tuple[int, ...], ...], c: SquareComplex) -> TilingSystem:
    """The tiling system of tiles, the codes (a, b, a', b') of each tile
    (complex_model.EdgeTable), as the integer labels of their sides; O(n),
    and no matrix is built.

    The horizontal labels are the codes themselves and the vertical ones
    the codes less the first vertical code, so both axes number their
    directed edges from 0.
    """
    first = c.edge_table.vertical
    a, b, a_prime, b_prime = zip(*tiles) if tiles else ((), (), (), ())
    return TilingSystem(
        b=tuple([x - first for x in b]),
        b_prime=tuple([x - first for x in b_prime]),
        a=a,
        a_prime=a_prime,
        n_vertices=len(c.vertices),
    )


def build_tiling(r: tuple[DirectedSquare, ...], c: SquareComplex) -> TilingSystem:
    """The tiling system of the expanded directed squares r: label_tiling
    of their codes (EdgeTable.square_codes), the one entry for tiles given
    as DirectedSquares.

    Nothing is built beyond the labels; m1, m2 and stacked are cached
    properties, each built from the labels on its first read, so exporting
    one of them builds neither of the others.
    """
    return label_tiling(c.edge_table.square_codes(r), c)


def stacked_matrix(ts: TilingSystem) -> IntMatrix:
    """The 2n x n matrix (m1 - I) stacked over (m2 - I), cut from the tile
    labels row by row (_minus_identity_rows); neither m1 nor m2 is read."""
    n = len(ts.b)
    rows = _minus_identity_rows(ts.b, ts.b_prime, 2) + _minus_identity_rows(ts.a, ts.a_prime, 1)
    return IntMatrix(2 * n, n, tuple(rows))


def _scc_count(succ: list, flip: int) -> int:
    """Number of strongly connected components (iterative Tarjan) of the
    graph on range(len(succ)) with an edge t -> s for every s in succ[t]
    other than t ^ flip.

    Each frame of the work stack keeps its iterator over succ[v], so it
    resumes where it left off.  A tile gets index n once its component is
    closed: no low link reads it again, so no on-stack flags are needed.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    count = 0
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, followers = work[-1]
            skip = v ^ flip
            for w in followers:
                if w == skip:
                    continue
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    count += 1
                    while True:
                        w = stack.pop()
                        index[w] = n
                        if w == v:
                            break
    return count


def _axis_connectivity(labels, primed, flip: int) -> AxisConnectivity:
    """Connectivity of the tile graph with an edge t -> s whenever
    labels[s] = primed[t] and s != t ^ flip: the graph of m1 for
    (b, b', 2) and of m2 for (a, a', 1).

    The successors of t are one list shared by every tile with the primed
    label of t, and the walks skip t ^ flip in it.
    """
    followers: dict[int, list[int]] = {}
    for s, x in enumerate(labels):
        followers.setdefault(x, []).append(s)
    succ = [followers.get(x, ()) for x in primed]
    n = len(succ)
    scc = _scc_count(succ, flip)
    strong = n == 0 or scc == 1
    # A strongly connected graph is weakly connected; only a graph with
    # several strong components needs the union-find over its edges.
    weak = strong
    if not strong:
        uf = _UnionFind(n)
        for t, ss in enumerate(succ):
            for s in ss:
                if s != t ^ flip:
                    uf.union(t, s)
        weak = uf.component_count() == 1
    return AxisConnectivity(
        weakly_connected=weak,
        strongly_connected=strong,
        scc_count=scc,
    )


def _label_axis_connectivity(labels, component: tuple[int, ...]) -> AxisConnectivity | None:
    """Connectivity of one tile graph read off its label multigraph, or
    None when a label is carried by one tile only.

    labels is b (resp. a) of tiles whose labels give the factors of S
    (TilingSystem.factors), so primed[t] = labels[t ^ flip] with flip 2
    (resp. 1), and component numbers the label components of that axis
    (TilingSystem.components).  No tile edge is walked.

    Darts.  Let U be the multigraph on the labels with one edge
    labels[t] - labels[t ^ flip] per pair {t, t ^ flip}, a loop when the
    two agree; label_components numbers its components.  Read tile t as
    the dart of that edge from labels[t] to labels[t ^ flip], so that
    t ^ flip is its reverse and the darts out of label x are the tiles that carry
    x: the degree of x is their number, a loop counting twice.  The tile
    graph has t -> s iff labels[s] = primed[t] = labels[t ^ flip] and
    s != t ^ flip, that is, iff s leaves the head of t and is not its
    reverse: it is the non-backtracking (Hashimoto) dart graph B of U.
    An arc of B joins two darts of one component of U, so each component
    K of U is counted on its own.  Let every degree be at least 2 (a leaf
    of U, allowed with a warning, leaves this to the tile Tarjan: the dart
    into a leaf has no successor).

    Closed walks.  U is then its own 2-core: every dart e has
    deg(head e) - 1 >= 1 successors and deg(tail e) - 1 >= 1
    predecessors.  Give the arc e -> f through label w the weight
    1 / (deg(w) - 1): the weights out of each dart and into each dart then
    sum to 1, a circulation.  Take an arc e -> f and the darts R that f
    reaches.  No arc leaves R, so no weight does, and by conservation no
    weight enters R either: e lies in R, and f walks back to e.  So every
    arc lies on a closed non-backtracking walk, a walk cannot leave a
    strong component it could not come back from, and the strong
    components of B are its weak components.

    Weak components.  At a label w of degree d, the arcs of B through w
    join each of the d darts into w to the d darts out of w less its own
    reverse: K_{d,d} less a perfect matching.  For d >= 3 that graph is
    connected: any two darts into w share a successor, a dart out of w
    that is neither one's reverse, and every dart out of w has a dart into
    w before it.  For d = 2 it falls into two arcs, e -> f and
    rev f -> rev e, so each of the two darts of an edge at w lies in a
    different piece.  Now let K have a label w of degree >= 3: all darts
    at w lie in one weak component W.  If w and y are joined by an edge,
    both its darts lie in W and are darts at y, so they meet the one piece
    at y when deg y >= 3 and both pieces when deg y = 2, and every dart
    at y lies in W.  K is connected, so all its darts lie in W: K gives
    one strong and one weak component.  Otherwise every degree in K is 2
    and K is a cycle (a loop, two parallel edges, ...): each dart has one
    successor, B permutes the darts of K, and its orbits are the two
    directions round the cycle: two strong and two weak components.

    So scc_count is the number of components of U with a dart, plus the
    number of those that are cycles, and both connectivities hold iff
    there is no tile or scc_count is 1.
    """
    degree = Counter(labels)
    if 1 in degree.values():
        return None
    carried = {component[x] for x in degree}
    branched = {component[x] for x, d in degree.items() if d != 2}
    scc = 2 * len(carried) - len(branched)
    connected = not labels or scc == 1
    return AxisConnectivity(
        weakly_connected=connected,
        strongly_connected=connected,
        scc_count=scc,
    )


def label_components(labels, primed) -> tuple[int, ...]:
    """The component of every label x up to the largest one in labels and
    primed, in the graph with an edge labels[t] - primed[t] for every tile
    t; components are numbered 0, 1, ... in the order of their least label.
    A label no tile carries is a component of its own."""
    size = 1 + max(max(labels, default=-1), max(primed, default=-1))
    uf = _UnionFind(size)
    for x, y in zip(labels, primed):
        uf.union(x, y)
    find = uf.find
    number: dict[int, int] = {}
    return tuple([number.setdefault(find(x), len(number)) for x in range(size)])


def _edge_graph_components(
    n_vertices: int, component: tuple[int, ...], labels, oriented
) -> tuple[EdgeGraphComponent, ...]:
    """The components of the edge graph on range(n_vertices) with an edge
    labels[t] - primed[t] for every tile t, in the order of their least
    vertex, read off component = label_components(labels, primed); each
    edge counts in the component of labels[t], and as oriented when
    oriented[t].  The vertices past the last one component numbers meet no
    edge: each is a component of its own, after all the others."""
    n_comp = 1 + max(component, default=-1) + n_vertices - len(component)
    vert_count = Counter(component)
    edge_count = Counter([component[x] for x in labels])
    plus_count = Counter([component[x] for x, is_plus in zip(labels, oriented) if is_plus])
    return tuple(
        EdgeGraphComponent(
            vertices=vert_count.get(k, 1), edges=edge_count[k], oriented_edges=plus_count[k]
        )
        for k in range(n_comp)
    )


def connectivity(ts: TilingSystem, c: SquareComplex) -> ConnectivityReport:
    """Connectivity of the four derived graphs, read off the tile labels.

    The directed graphs on tiles (edge t -> s whenever the transition matrix
    entry [s][t] is 1) are reported with weak and strong connectivity, since
    strong connectivity is what matrix irreducibility needs.  The undirected
    edge graphs have the directed vertical (resp. horizontal) edges as
    vertices, numbered as the labels are, one edge per tile joining b(t) to
    b'(t) (resp. a(t) to a'(t)); for each component the orientation class
    keeps one tile out of each {t, t^h} (resp. {t, t^v}) pair, namely sigma
    tags (1, v) (resp. (1, h)), the tiles t with t & 2 == 0 (resp.
    t & 1 == 0), tiles being indexed orbit-major.

    When the labels give the factors of S (ts.factors), each tile graph is
    the non-backtracking graph of its label multigraph, and its
    connectivity is read off the label degrees and the label components
    (_label_axis_connectivity).  Tarjan over the tiles, with a union-find
    over them when the graph is not strongly connected (_axis_connectivity),
    is left for an axis that argument does not cover: tiles whose labels
    do not give the factors, or a label carried by one tile only.
    """
    tiles = range(len(ts.b))
    b_plus = [not t & 2 for t in tiles]
    a_plus = [not t & 1 for t in tiles]
    b_components, a_components = ts.components
    horizontal = vertical = None
    if ts.factors is not None:
        horizontal = _label_axis_connectivity(ts.b, b_components)
        vertical = _label_axis_connectivity(ts.a, a_components)
    return ConnectivityReport(
        horizontal=horizontal or _axis_connectivity(ts.b, ts.b_prime, 2),
        vertical=vertical or _axis_connectivity(ts.a, ts.a_prime, 1),
        gh_b_components=_edge_graph_components(2 * len(c.v_edges), b_components, ts.b, b_plus),
        gv_a_components=_edge_graph_components(2 * len(c.h_edges), a_components, ts.a, a_plus),
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
