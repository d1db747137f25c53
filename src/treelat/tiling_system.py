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

The tiles of an orbit are the four reflections of one geometric square, so
b'(t) = b(t^h) and a'(t) = a(t^v) for every tile: build_tiling, the one
entry from tiles to a TilingSystem, checks that once, and a TilingSystem
keeps b and a alone.  An analysis reads the tile and edge graphs, the
label counts and the factors of the stacked operator off those labels; m1,
m2 and the stacked matrix are built only on demand, each from the labels on
its own: for export and for verify's explicit checks, never for analyze.

The tiles of an axis are the darts of a multigraph on its labels, one edge
b(t) - b(t^h) per pair {t, t^h} (resp. a(t) - a(t^v)), and the tile graph
is that multigraph's non-backtracking graph.  connectivity reads strong and
weak connectivity off the label degrees, the label components and, when a
label is carried by one tile only, the 2-core of the multigraph
(_label_axis_connectivity, with the proof); no tile edge is walked.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from treelat.complex_model import SquareComplex, _UnionFind
from treelat.zlinalg import IntMatrix


class _TilingSystemFields(NamedTuple):
    b: tuple[int, ...]
    a: tuple[int, ...]
    n_vertices: int


class TilingSystem(_TilingSystemFields):
    """The tiles of a complex, orbit-major, by the integer labels of their
    sides.

    b[t] numbers the directed vertical edge b(t): edge (e, reversed) is
    2i + reversed for e the i-th vertical edge, which is also its vertex in
    the edge graph of connectivity; a numbers the directed horizontal edges
    the same way.  The primed labels are b'(t) = b[t ^ 2] and
    a'(t) = a[t ^ 1] (build_tiling checks that the tiles have them), and
    the number of tiles is a multiple of 4.  m1, m2, stacked, components
    and label_counts are derived from the labels on first access, then
    kept.

    Then the stacked operator factors: stacked = (E.F^T - P_h - I over
    E'.G^T - P_v - I), with E[s][x] = [b(s) = x] and F[t][x] = [b'(t) = x],
    E' and G the same for a, and P_h, P_v the permutations t -> t^h and
    t -> t^v.  Entry [s][t] of E.F^T is [b(s) = b'(t)], and b'(s^h) = b(s),
    so row s of E.F^T - P_h holds a 1 at every t with b'(t) = b(s) except
    s^h: the definition of m1, and likewise of m2 for a.  The stacked
    kernel (homology.structured_kernel_dim) and the commuting square read
    the operator off these factors, and never build it.

    No __slots__: the cached properties keep their values in the instance
    __dict__.
    """

    @cached_property
    def m1(self) -> IntMatrix:
        n = len(self.b)
        return IntMatrix(n, n, tuple(_follower_rows(self.b, 2)))

    @cached_property
    def m2(self) -> IntMatrix:
        n = len(self.a)
        return IntMatrix(n, n, tuple(_follower_rows(self.a, 1)))

    @cached_property
    def stacked(self) -> IntMatrix:
        """stacked_matrix(self), built once."""
        return stacked_matrix(self)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The label components of the b-b' graph and of the a-a' graph
        (label_components), found once for connectivity and for the count
        of the stacked kernel (homology.structured_kernel_dim)."""
        return label_components(self.b, 2), label_components(self.a, 1)

    @cached_property
    def label_counts(self) -> tuple[Counter, Counter]:
        """The number of tiles that carry each label, for b and for a,
        counted once: the label degrees and edge counts of connectivity,
        the label rows of the count of the stacked kernel
        (homology.structured_kernel_dim) and the column sum range of the
        report (cli.build_report) read them."""
        return Counter(self.b), Counter(self.a)


class AxisConnectivity(NamedTuple):
    weakly_connected: bool
    strongly_connected: bool
    scc_count: int


class EdgeGraphComponent(NamedTuple):
    """One component of an edge graph: |C0| vertices, |C1| edges, |C+| oriented."""

    vertices: int
    edges: int
    oriented_edges: int


class ConnectivityReport(NamedTuple):
    horizontal: AxisConnectivity
    vertical: AxisConnectivity
    gh_b_components: tuple[EdgeGraphComponent, ...]
    gv_a_components: tuple[EdgeGraphComponent, ...]


class K0Hypotheses(NamedTuple):
    one_vertex: bool
    gh_strongly_connected: bool
    gv_strongly_connected: bool
    matrices_irreducible: bool
    interpretation_supported: bool


class K0Result(NamedTuple):
    kernel_rank: int
    k0_rank: int
    k1_rank: int
    hypotheses: K0Hypotheses


def _primed(labels, flip: int) -> list[int]:
    """The primed label labels[t ^ flip] of every tile t: t ^ flip changes
    only the offset k of t in its orbit, so one slice per offset."""
    primed = [0] * len(labels)
    for k in range(4):
        primed[k::4] = labels[k ^ flip :: 4]
    return primed


def _shared_followers(labels, flip: int) -> tuple[dict[int, tuple], list[int]]:
    """The sorted pairs (t, 1) of the tiles t with each primed label, and
    the position of each tile t in the tuple of its own primed label."""
    followers: dict[int, list[tuple[int, int]]] = {}
    position = []
    for t, x in enumerate(_primed(labels, flip)):
        pairs = followers.setdefault(x, [])
        position.append(len(pairs))
        pairs.append((t, 1))
    return {x: tuple(pairs) for x, pairs in followers.items()}, position


def _follower_rows(labels, flip: int) -> list[tuple]:
    """The rows s of a transition matrix: (t, 1) for every t with primed
    label labels[t ^ flip] = labels[s], except t = s ^ flip.

    The pairs of each primed label form one sorted tuple, shared by every
    row with that label; row s is that tuple with (s ^ flip, 1) cut out.
    It always holds that pair, since the primed label of s ^ flip is
    labels[s], at the position of s ^ flip.
    """
    shared, position = _shared_followers(labels, flip)
    rows = []
    for s, x in enumerate(labels):
        base = shared[x]
        k = position[s ^ flip]
        rows.append(base[:k] + base[k + 1 :])
    return rows


def _minus_identity_rows(labels, flip: int) -> list[tuple]:
    """The rows s of a transition matrix less the identity, cut from the
    same shared tuples as _follower_rows.

    Both columns s ^ flip and s leave the tuple when it holds them: the
    first is cut from the transition matrix, and at the second 1 - 1 = 0.
    The tuple always holds s ^ flip, at its position, and holds s iff the
    primed label labels[s ^ flip] of s is labels[s], then at the position
    of s.  When it does not hold s, one bisect places (s, -1).
    """
    shared, position = _shared_followers(labels, flip)
    rows = []
    for s, x in enumerate(labels):
        base = shared[x]
        cut = s ^ flip
        k = position[cut]
        if labels[cut] == x:
            i, j = sorted((k, position[s]))
            row = base[:i] + base[i + 1 : j] + base[j + 1 :]
        else:
            i = bisect_left(base, (s,))  # (s,) sorts before every pair (s, 1)
            if i <= k:
                row = base[:i] + ((s, -1),) + base[i:k] + base[k + 1 :]
            else:
                row = base[:k] + base[k + 1 : i] + ((s, -1),) + base[i:]
        rows.append(row)
    return rows


def build_tiling(tiles: tuple[tuple[int, ...], ...], c: SquareComplex) -> TilingSystem:
    """The tiling system of tiles, the codes (a, b, a', b') of each tile
    (complex_model.EdgeTable), as the integer labels of their sides; O(n),
    and no matrix is built.

    The tiles must be orbit-major, as the directed squares of a complex
    are: their number is a multiple of 4, b'(t) = b(t ^ 2) and
    a'(t) = a(t ^ 1).  Otherwise ValueError.  The horizontal labels are
    the codes themselves and the vertical ones the codes less the first
    vertical code, so both axes number their directed edges from 0.
    m1, m2 and stacked are cached properties, each built from the labels
    on its first read, so exporting one of them builds neither of the
    others.
    """
    first = c.edge_table.vertical
    a, b, a_prime, b_prime = zip(*tiles) if tiles else ((), (), (), ())
    if len(tiles) % 4 or (list(b_prime), list(a_prime)) != (_primed(b, 2), _primed(a, 1)):
        raise ValueError(
            "tiles are not orbit-major: b'(t) = b(t ^ 2) and a'(t) = a(t ^ 1) "
            "must hold for every tile t, and the tiles be a multiple of 4"
        )
    return TilingSystem(b=tuple([x - first for x in b]), a=a, n_vertices=len(c.vertices))


def stacked_matrix(ts: TilingSystem) -> IntMatrix:
    """The 2n x n matrix (m1 - I) stacked over (m2 - I), cut from the tile
    labels row by row (_minus_identity_rows); neither m1 nor m2 is read."""
    n = len(ts.b)
    rows = _minus_identity_rows(ts.b, 2) + _minus_identity_rows(ts.a, 1)
    return IntMatrix(2 * n, n, tuple(rows))


def _label_axis_connectivity(
    labels, flip: int, component: tuple[int, ...], degree: Counter
) -> AxisConnectivity:
    """Connectivity of one tile graph read off its label multigraph.

    labels is b (resp. a) with flip 2 (resp. 1), so the primed label of t
    is labels[t ^ flip], component numbers the label components of that
    axis (TilingSystem.components) and degree counts the tiles of each
    label (TilingSystem.label_counts), which is its degree below.  No tile
    edge is walked.

    Darts.  Let U be the multigraph on the labels with one edge
    labels[t] - labels[t ^ flip] per pair {t, t ^ flip}, a loop when the
    two agree; label_components numbers its components.  Read tile t as
    the dart of that edge from labels[t] to labels[t ^ flip], so that
    t ^ flip is its reverse and the darts out of label x are the tiles
    that carry x: the degree of x is their number, a loop counting twice.
    The tile graph has t -> s iff labels[s] = labels[t ^ flip] and
    s != t ^ flip, that is, iff s leaves the head of t and is not its
    reverse: it is the non-backtracking (Hashimoto) dart graph B of U.
    An arc of B joins two darts of one component of U, so each component
    K of U is counted on its own.

    Weak components.  At a label w of degree d, the arcs of B through w
    join each of the d darts into w to the d darts out of w less its own
    reverse: K_{d,d} less a perfect matching.  For d >= 3 that graph is
    connected: any two darts into w share a successor, a dart out of w
    that is neither one's reverse, and every dart out of w has a dart into
    w before it.  For d = 2 it falls into two arcs, e -> f and
    rev f -> rev e, so each of the two darts of an edge at w lies in a
    different piece; for d = 1 it has no arc.  Now let K have a label w of
    degree >= 3: all darts at w lie in one weak component W.  If w and y
    are joined by an edge, both its darts lie in W and are darts at y, so
    they meet the one piece at y when deg y >= 3 and both pieces when
    deg y = 2, and every dart at y lies in W.  K is connected, so all its
    darts lie in W: one weak component.  Otherwise every degree in K is 1
    or 2 and K is a path or a cycle (a loop, two parallel edges, ...): each
    dart has at most one successor, the next dart in its direction, and
    the darts fall into the two directions along K: two weak components.

    Strong components.  Let every degree in K be at least 2.  Then every
    dart e has deg(head e) - 1 >= 1 successors and deg(tail e) - 1 >= 1
    predecessors.  Give the arc e -> f through label w the weight
    1 / (deg(w) - 1): the weights out of each dart and into each dart then
    sum to 1, a circulation.  Take an arc e -> f and the darts R that f
    reaches.  No arc leaves R, so no weight does, and by conservation no
    weight enters R either: e lies in R, and f walks back to e.  So every
    arc lies on a closed walk, and the strong components of K are its weak
    components.  When a label has degree 1, peel U to its 2-core C,
    cutting a leaf and its edge until no leaf is left (_two_core).  A
    closed walk of B enters each label it passes by one edge and leaves by
    another, or goes round a loop, so its edges form a subgraph with no
    degree below 2, which lies in C.  So each dart of a peeled edge is a
    strong component of its own, and a walk between two darts of C that
    left C could not come back: the strong components of C's darts are
    those of the non-backtracking graph of C, where every degree is at
    least 2.  Cutting a leaf leaves a component connected, so the
    components of C are numbered by component too, a component of U that
    is a tree leaving none.

    So weakly: one component per component of U with a label of
    degree >= 3 and two per other one with a dart (_dart_components); and
    scc_count is twice the number of peeled edges plus the same count on
    C, which is U when no label has degree 1.  Each connectivity holds iff
    there is no tile or its count is 1.
    """
    weak = scc = _dart_components(degree, component)
    if 1 in degree.values():
        core, peeled = _two_core(labels, flip, degree)
        scc = 2 * peeled + _dart_components(core, component)
    return AxisConnectivity(
        weakly_connected=not labels or weak == 1,
        strongly_connected=not labels or scc == 1,
        scc_count=scc,
    )


def _dart_components(degree: dict[int, int], component: tuple[int, ...]) -> int:
    """Two for each component with a label of nonzero degree, less one for
    each component with a label of degree above 2."""
    carried = {component[x] for x, d in degree.items() if d}
    branched = {component[x] for x, d in degree.items() if d > 2}
    return 2 * len(carried) - len(branched)


def _two_core(labels, flip: int, degree: dict[int, int]) -> tuple[dict[int, int], int]:
    """The degree of each label in the 2-core of the label multigraph of
    _label_axis_connectivity, and the number of edges peeled off to reach
    it.  O(n): a label is cut when its degree is 1, so its one dart left
    is not a loop, and its dart list is read once."""
    out: dict[int, list[int]] = {}
    for t, x in enumerate(labels):
        out.setdefault(x, []).append(t)
    core = dict(degree)
    cut: set[int] = set()
    leaves = [x for x, d in core.items() if d == 1]
    while leaves:
        x = leaves.pop()
        if core[x] != 1:  # its last edge went with the other end
            continue
        t = next(t for t in out[x] if t not in cut)
        cut.update((t, t ^ flip))
        y = labels[t ^ flip]
        core[x] -= 1
        core[y] -= 1
        if core[y] == 1:
            leaves.append(y)
    return core, len(cut) // 2


def label_components(labels, flip: int) -> tuple[int, ...]:
    """The component of every label x up to the largest one, in the graph
    with an edge labels[t] - labels[t ^ flip] for every tile t; components
    are numbered 0, 1, ... in the order of their least label.  A label no
    tile carries is a component of its own.

    Tiles t and t ^ flip carry the same edge, so the tiles with
    t & flip == 0 carry each edge once: offsets 0 and 3 ^ flip of each
    orbit, paired with offsets flip and 3.  The union runs once per
    distinct label pair of those."""
    size = 1 + max(labels, default=-1)
    other = 3 ^ flip
    pairs = set(zip(labels[::4], labels[flip::4]))
    pairs.update(zip(labels[other::4], labels[3::4]))
    uf = _UnionFind(size)
    uf.union_all(pairs)
    find = uf.find
    number: dict[int, int] = {}
    return tuple([number.setdefault(find(x), len(number)) for x in range(size)])


def _edge_graph_components(
    n_vertices: int, component: tuple[int, ...], labels, flip: int, count: Counter
) -> tuple[EdgeGraphComponent, ...]:
    """The components of the edge graph on range(n_vertices) with an edge
    labels[t] - labels[t ^ flip] for every tile t, in the order of their
    least vertex, read off component = label_components(labels, flip); each
    edge counts in the component of labels[t], and as oriented when
    t & flip == 0.  count holds the tiles of each label
    (TilingSystem.label_counts), and the oriented tiles are offsets 0 and
    3 ^ flip of each orbit, so both counts add up per label, not per tile.
    The vertices past the last one component numbers meet no edge: each is
    a component of its own, after all the others."""
    n_comp = 1 + max(component, default=-1) + n_vertices - len(component)
    vert_count = Counter(component)
    plus = Counter(labels[::4]) + Counter(labels[3 ^ flip :: 4])
    edge_count, plus_count = Counter(), Counter()
    for by_component, by_label in ((edge_count, count), (plus_count, plus)):
        for x, d in by_label.items():
            by_component[component[x]] += d
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

    Each tile graph is the non-backtracking graph of its label multigraph,
    and its connectivity is read off the label degrees, the label
    components and, when a label has degree 1, the 2-core of that
    multigraph (_label_axis_connectivity).
    """
    b_components, a_components = ts.components
    b_count, a_count = ts.label_counts
    return ConnectivityReport(
        horizontal=_label_axis_connectivity(ts.b, 2, b_components, b_count),
        vertical=_label_axis_connectivity(ts.a, 1, a_components, a_count),
        gh_b_components=_edge_graph_components(2 * len(c.v_edges), b_components, ts.b, 2, b_count),
        gv_a_components=_edge_graph_components(2 * len(c.h_edges), a_components, ts.a, 1, a_count),
    )


def k0_rank(ts: TilingSystem, conn: ConnectivityReport, kernel_rank: int) -> K0Result:
    """Kernel rank of the stacked operator and the derived K-group ranks.

    conn is connectivity(ts, ...) and kernel_rank the rank of the kernel
    lattice of stacked_matrix(ts) (the rank_ker_stacked of the theorem
    verdict); both are computed once by the caller.
    The ranks are always computed; the hypothesis flags record whether the
    operator-algebra reading of them (K_0 = K_1 of the boundary crossed
    product, each of rank twice the kernel rank) is supported on this
    instance: a one-vertex complex whose tile graphs are both strongly
    connected.
    """
    gh = conn.horizontal.strongly_connected
    gv = conn.vertical.strongly_connected
    one_vertex = ts.n_vertices == 1
    irreducible = gh and gv
    hypotheses = K0Hypotheses(
        one_vertex=one_vertex,
        gh_strongly_connected=gh,
        gv_strongly_connected=gv,
        matrices_irreducible=irreducible,
        interpretation_supported=one_vertex and irreducible,
    )
    return K0Result(
        kernel_rank=kernel_rank,
        k0_rank=2 * kernel_rank,
        k1_rank=2 * kernel_rank,
        hypotheses=hypotheses,
    )
