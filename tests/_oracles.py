"""Independent oracles for the test suite.

Deliberately different algorithms from the code under test: ranks and
determinants over exact rationals instead of integer normal forms, and a
reachability closure instead of Tarjan for strong connectivity, and loops
over every cell of a dense matrix for the operations that IntMatrix runs
on its stored nonzeros only (and for the chain maps, which the pipeline
builds as sparse rows).  The rank-identity verifier and H1 keep their
earlier routes here: loops over every entry of every kernel vector, and
the cycle basis of ker d1, read with its solve off the transforms of the
dense Smith schedule.  Helpers that only tests call (the Bareiss
determinant, lattice inclusion, an IntMatrix of dense rows (M), the
difference and vertical stack of two IntMatrix, the reflections of a
tile index by their positional formula) live here too, as do the
transition matrices built one pair at a time or by their definition, and
the edge graphs indexed by directed edge or counted one tile at a time,
which the pipeline replaced with shared label lists and integer indices.
So are the routes the pipeline left for the tile labels: the retraction psi, which the
chain maps no longer carry, the labels read off it, the check of a built
stacked matrix against their factors, the tiling system whose factors
are a given pair of labels (factor_tiling), and Tarjan over the
successor lists of a built transition matrix.  A directed square is read
here as a Square of four Refs, named (edge id, reversed) pairs, and
reflected by sigma_act, the formulas of the paper, where the package
keeps four integer edge codes and reflects them with orbit_codes.  The
validator and the corner checks of the parser keep their Ref route here
too: coverage keyed by pairs of Refs, the incident pairs found by a scan
of all directed-edge pairs, and every vertex read through the edge of
each Ref, where the pipeline reads integer edge codes.
The export path keeps its earlier writers here: triplets with one
formatted line per nonzero, the dense form and the canonical document
written by json.dumps, the stacked matrix re-sliced row by row from the
built m1 and m2, where the pipeline joins strings and cuts each row of S
from the tile labels, and the rows of S cut by two bisects each, where
the pipeline reads the position of each tile off a table.  The sparse rank over F_p (rank_mod_p, with
p a parameter, 2^61 - 1 by default, and rank_mod_prime on an IntMatrix)
moved here from treelat._kernels_py: the package counts the stacked
kernel over Q, with the pivots of its one integer elimination, and the
rank mod p stays as an independent route to that count.  The count
itself keeps two earlier routes here: one orbit column per square
(structured_kernel_dim_by_orbits), and one rank of its whole system,
orbit columns and all (structured_kernel_dim_by_one_rank), where the
certified path of the package clears the orbit columns with triangular
rows first.
"""

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction


def rank_by_fraction_elimination(rows):
    """Rank via Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(n_rows):
            if i != rank and m[i][col] != 0:
                factor = m[i][col] / pv
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def det_by_fraction_elimination(rows):
    """Determinant via Gaussian elimination over Fraction (returns Fraction)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        pv = m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                factor = m[i][col] / pv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


MERSENNE_61 = (1 << 61) - 1


def rank_mod_p(rows, p=MERSENNE_61):
    """Rank over the field F_p of the integer matrix whose row i has the
    nonzero (column, value) pairs rows[i].

    Sparse Gaussian elimination: each live row is a dict {column: entry
    mod p}, and each column keeps the set of live rows it meets.  Pivoting
    is Markowitz-style, to keep fill-in low: the column with the fewest live
    entries, then the shortest live row in it, ties broken by the smaller
    index.  Eliminating a pivot clears its column from every other row, so
    the column and the pivot row leave the active matrix; the rank is the
    number of pivots taken.
    """
    live_rows = {}
    cols = {}
    for i, row in enumerate(rows):
        live = {}
        for j, x in row:
            x %= p
            if x:
                live[j] = x
                cols.setdefault(j, set()).add(i)
        if live:
            live_rows[i] = live
    rank = 0
    while cols:
        fewest = min(map(len, cols.values()))
        j = min([c for c, live in cols.items() if len(live) == fewest])
        col = cols.pop(j)
        pi = min(col, key=lambda r: (len(live_rows[r]), r))
        pivot = live_rows.pop(pi)
        # Row i becomes row i - (row_i[j] / pivot[j]) * pivot: with the
        # pivot row scaled by -1 / pivot[j] once, each update is one
        # multiply-add, and each entry carries its column's row set.
        scale = p - pow(pivot.pop(j), -1, p)
        update = [(c, x * scale % p, cols[c]) for c, x in pivot.items()]
        for i in col:
            if i == pi:
                continue
            row = live_rows[i]
            f = row.pop(j)
            for c, x, live in update:
                y = row.get(c)
                if y is None:
                    row[c] = f * x % p
                    live.add(i)
                else:
                    y = (y + f * x) % p
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        live.discard(i)
            if not row:
                del live_rows[i]
        for c, _, live in update:
            live.discard(pi)
            if not live:
                del cols[c]
        rank += 1
    return rank


def rank_mod_prime(a, p=MERSENNE_61):
    """Rank of the IntMatrix a over F_p.  Never more than its rank over Q,
    since a minor that vanishes over the integers vanishes mod p; less
    exactly when p divides one of the invariant factors of a."""
    return rank_mod_p(a.row_pairs, p)


def strongly_connected_by_closure(matrix_rows):
    """Strong connectivity of the digraph with edge t -> s iff m[s][t] = 1,
    decided by a Floyd-Warshall reachability closure."""
    n = len(matrix_rows)
    if n == 0:
        return True
    reach = [[bool(matrix_rows[s][t]) or s == t for s in range(n)] for t in range(n)]
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


def dense_snf(a):
    """(u, d, v) by the plain dense Smith schedule, transforms included.

    The pivot rule and elementary operations of the dense finisher
    treelat._kernels_py.smith_diagonal, which builds no transform, with u
    and v carried here: the reference that the finisher and
    zlinalg.smith_normal_form, through its elimination and unit split, are
    checked against, entry for entry.  Its v and u are also the independent
    route to kernel bases and solves, where the package runs its sparse
    elimination.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row dst += q * row src, in d and u
        for mat in (d, u):
            mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]

    k = 0
    while k < min(m, n):
        entries = [(abs(d[i][j]), i, j) for i in range(k, m) for j in range(k, n) if d[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)  # least magnitude, then first in row-major order
        swap_rows(k, pi)
        swap_cols(k, pj)
        if d[k][k] < 0:
            add_row(k, k, -2)
        while True:
            while True:  # clear column k below the pivot by row operations
                for i in range(k + 1, m):
                    add_row(i, k, -(d[i][k] // d[k][k]))
                rest = [(d[i][k], i) for i in range(k + 1, m) if d[i][k]]
                if not rest:
                    break
                swap_rows(k, min(rest)[1])
            while True:  # clear row k right of the pivot by column operations
                for j in range(k + 1, n):
                    q = d[k][j] // d[k][k]
                    for mat in (d, v):
                        for row in mat:
                            row[j] -= q * row[k]
                rest = [(d[k][j], j) for j in range(k + 1, n) if d[k][j]]
                if not rest:
                    break
                swap_cols(k, min(rest)[1])
            if all(d[i][k] == 0 for i in range(k + 1, m)):
                break
        bad = [i for i in range(k + 1, m) for j in range(k + 1, n) if d[i][j] % d[k][k]]
        if bad:
            add_row(k, bad[0], 1)
        else:
            k += 1
    return u, d, v


def certified_snf_diagonal(a):
    """The d of dense_snf for the IntMatrix a, as row lists, once its
    certificate holds: u.a.v = d exactly, with det u and det v = +-1 by
    the Bareiss determinant.  The Smith form keeps no transform, so this is
    where the transforms of a Smith decomposition are checked."""
    if a.rows == 0 or a.cols == 0:
        return dense(a)
    u, d, v = dense_snf(dense(a))
    assert M(u).mul(a).mul(M(v)) == M(d)
    assert determinant(M(u)) in (1, -1)
    assert determinant(M(v)) in (1, -1)
    return d


def snf_diagonal(s, cols):
    """The d of the Smith form s of a matrix with cols columns, as lists."""
    factors = s.invariant_factors + (0,) * s.rows
    return [[factors[i] if i == j else 0 for j in range(cols)] for i in range(s.rows)]


def solve_relation_by_search(x, y, ql, qp):
    """The unique (y~, x~, sign) with x*y = sign * y~ * x~, by trying every
    product of ql x qp x {+1, -1}: the exhaustive search that the product
    table of treelat.mozes replaces."""
    from treelat.mozes import RelationSolveError

    target = x * y
    hits = []
    for yt in ql.quats:
        for xt in qp.quats:
            prod = yt * xt
            if prod == target:
                hits.append((yt, xt, 1))
            elif -prod == target:
                hits.append((yt, xt, -1))
    if len(hits) != 1:
        raise RelationSolveError(
            f"relation for ({x}, {y}) has {len(hits)} solutions, expected 1"
        )
    return hits[0]


def triplets_by_dense_scan(rows, cols):
    """Triplet text by testing every entry of every row in order."""
    lines = [f"{len(rows)} {cols}"]
    for i in range(len(rows)):
        for j in range(cols):
            if rows[i][j] != 0:
                lines.append(f"{i + 1} {j + 1} {rows[i][j]}")
    return "\n".join(lines) + "\n"


def write_triplets_by_line(m):
    """Triplet text with one formatted line appended per nonzero."""
    lines = [f"{m.rows} {m.cols}"]
    for i, pairs in enumerate(m.row_pairs, 1):
        for j, x in pairs:
            lines.append(f"{i} {j + 1} {x}")
    return "\n".join(lines) + "\n"


def write_dense_json_by_dumps(m):
    """The dense JSON form, written by json.dumps."""
    import json

    doc = {"rows": m.rows, "cols": m.cols, "entries": dense(m)}
    return json.dumps(doc, indent=2) + "\n"


def serialize_complex_by_dumps(c, metadata=None):
    """The canonical document of c, built as a dict and written by
    json.dumps(indent=2)."""
    import json

    def ref(r):
        return {"edge": r.edge, "reversed": r.reversed}

    squares = square_refs(c)

    doc = {
        "vertices": list(c.vertices),
        "horizontal_edges": [
            {"id": e.id, "origin": e.origin, "terminus": e.terminus} for e in c.h_edges
        ],
        "vertical_edges": [
            {"id": e.id, "origin": e.origin, "terminus": e.terminus} for e in c.v_edges
        ],
        "squares": [
            {"a": ref(t.a), "b": ref(t.b), "a_prime": ref(t.a_prime), "b_prime": ref(t.b_prime)}
            for t in squares
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"


# --- directed squares by (edge, reversed) ---------------------------------------
# The package keeps a directed edge as an integer code and a directed square
# as the tuple of its four codes (complex_model.EdgeTable).  The oracles
# read them back as named (edge id, reversed) pairs and reflect them by
# the formulas of the paper, with no code arithmetic: sigma_act is the
# reference for complex_model.orbit_codes.

SIGMA_TAGS = ("1", "v", "h", "vh")
_TAG_INDEX = {tag: i for i, tag in enumerate(SIGMA_TAGS)}


class Ref(namedtuple("Ref", "edge reversed")):
    """A directed edge: a geometric edge id plus a direction flag."""

    __slots__ = ()

    def bar(self):
        return Ref(self.edge, not self.reversed)

    def display(self):
        return f"~{self.edge}" if self.reversed else self.edge


class Square(namedtuple("Square", "a b a_prime b_prime orbit_id sigma_tag")):
    """A directed square: four Refs, its orbit and its reflection tag."""

    __slots__ = ()

    def labels(self):
        return (self.a, self.b, self.a_prime, self.b_prime)


def sigma_act(t, g):
    """Apply a reflection (one of "1", "v", "h", "vh") to a Square."""
    if g not in _TAG_INDEX:
        raise ValueError(f"unknown reflection {g!r}")
    if g == "1":
        return t
    a, b, ap, bp = t.a, t.b, t.a_prime, t.b_prime
    if g == "v":
        labels = (ap, b.bar(), a, bp.bar())
    elif g == "h":
        labels = (a.bar(), bp, ap.bar(), b)
    else:  # "vh"
        labels = (ap.bar(), bp.bar(), a.bar(), b.bar())
    tag = SIGMA_TAGS[_TAG_INDEX[t.sigma_tag] ^ _TAG_INDEX[g]]
    return Square(*labels, orbit_id=t.orbit_id, sigma_tag=tag)


def directed_edges(c):
    """The Ref of every edge code of c, by code: the edge
    (h_edges + v_edges)[code >> 1], reversed when code & 1."""
    return tuple(Ref(e.id, rev) for e in c.h_edges + c.v_edges for rev in (False, True))


def tile_squares(c, tiles):
    """The Squares of tiles, codes read as Refs, with orbit i >> 2 and
    tag SIGMA_TAGS[i & 3] for the tile at index i."""
    refs = directed_edges(c)
    return tuple(
        Square(*[refs[x] for x in t], i >> 2, SIGMA_TAGS[i & 3]) for i, t in enumerate(tiles)
    )


def square_refs(c):
    """The orbit representatives of c as Squares, square k of orbit k
    with tag 1."""
    refs = directed_edges(c)
    return tuple(Square(*[refs[x] for x in t], k, "1") for k, t in enumerate(c.squares))


def expand_by_sigma(c):
    """Every directed square of c: each orbit representative expanded by
    sigma_act, orbit-major in the order (1, v, h, vh)."""
    return tuple(sigma_act(t, g) for t in square_refs(c) for g in SIGMA_TAGS)


def square_codes(c, squares):
    """The codes (a, b, a', b') of Squares, each Ref at the place of its
    edge id in c.h_edges + c.v_edges."""
    position = {e.id: 2 * i for i, e in enumerate(c.h_edges + c.v_edges)}
    return tuple(tuple(position[r.edge] + r.reversed for r in t.labels()) for t in squares)


def ref_ends(c):
    """The functions origin and terminus of a Ref of c, read through the
    geometric edge of its id."""
    edges = {e.id: e for e in c.h_edges + c.v_edges}

    def origin(r):
        e = edges[r.edge]
        return e.terminus if r.reversed else e.origin

    def terminus(r):
        e = edges[r.edge]
        return e.origin if r.reversed else e.terminus

    return origin, terminus


def psi_matrix(c, tiles):
    """The retraction psi (|E+| x 2|R|): (s, t) -> eps(b(s)) - eps(a(t)),
    as sparse rows over the edge codes of tiles: row code >> 1, sign -1
    when code & 1."""
    from treelat.zlinalg import IntMatrix

    n_edges = len(c.h_edges) + len(c.v_edges)
    n_tiles = len(tiles)
    psi = [[] for _ in range(n_edges)]
    for i, (_, b, _, _) in enumerate(tiles):
        psi[b >> 1].append((i, -1 if b & 1 else 1))
    for i, (a, _, _, _) in enumerate(tiles, n_tiles):
        psi[a >> 1].append((i, 1 if a & 1 else -1))
    return IntMatrix(n_edges, 2 * n_tiles, tuple(map(tuple, psi)))


def M(rows, cols=None):
    """The IntMatrix with these dense rows, of cols columns: by default the
    length of the first row, 0 with no row."""
    from treelat.zlinalg import IntMatrix

    rows = [list(row) for row in rows]
    cols = (len(rows[0]) if rows else 0) if cols is None else cols
    assert all(len(row) == cols for row in rows), "ragged matrix rows"
    pairs = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
    return IntMatrix(len(rows), cols, pairs)


def identity(n):
    return M([[int(i == j) for j in range(n)] for i in range(n)], n)


def dense(m):
    """The rows of the IntMatrix m as lists, read off m.entries."""
    return [list(row) for row in m.entries]


# Dense references for the sparse-row IntMatrix: each takes lists of row
# lists and, where a row list cannot carry it, the column count.


def dense_product(a, b, cols):
    """a.b by the textbook triple loop."""
    inner = len(b)
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def dense_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def dense_column_sums(a, cols):
    return tuple(sum(row[j] for row in a) for j in range(cols))


def dense_is_zero(a):
    return all(x == 0 for row in a for x in row)


def sub(a, b):
    """The IntMatrix a - b, row by row through a dict of the stored pairs."""
    from treelat.zlinalg import IntMatrix

    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch in matrix difference")
    data = []
    for ra, rb in zip(a.row_pairs, b.row_pairs):
        acc = dict(ra)
        for j, y in rb:
            acc[j] = acc.get(j, 0) - y
        data.append(tuple([(j, x) for j, x in sorted(acc.items()) if x]))
    return IntMatrix(a.rows, a.cols, tuple(data))


def vstack(top, bottom):
    """The IntMatrix top stacked over bottom."""
    from treelat.zlinalg import IntMatrix

    if top.cols != bottom.cols:
        raise ValueError("column mismatch in vstack")
    return IntMatrix(top.rows + bottom.rows, top.cols, top.row_pairs + bottom.row_pairs)


# The reflections on tile indices, orbit-major with tags 1, v, h, vh at
# offsets 0..3: keep the orbit bits, flip the offset.


def h_image_index(idx):
    """Index of t^h for the expanded square at idx."""
    return (idx & ~3) | ((idx & 3) ^ 2)


def v_image_index(idx):
    """Index of t^v for the expanded square at idx."""
    return (idx & ~3) | ((idx & 3) ^ 1)


def vh_image_index(idx):
    """Index of t^vh for the expanded square at idx."""
    return (idx & ~3) | ((idx & 3) ^ 3)


def transition_entries_by_definition(c):
    """The entries of m1 and m2 of c straight from the defining conditions,
    by a naive double loop over square labels and positional reflections."""
    r = expand_by_sigma(c)
    n = len(r)
    m1 = [[0] * n for _ in range(n)]
    m2 = [[0] * n for _ in range(n)]
    for t in range(n):
        for s in range(n):
            m1[s][t] = int(r[s].b == r[t].b_prime and s != h_image_index(t))
            m2[s][t] = int(r[s].a == r[t].a_prime and s != v_image_index(t))
    return tuple(map(tuple, m1)), tuple(map(tuple, m2))


def build_tiling_by_pairs(r, c):
    """m1 and m2 of tiling_system.build_tiling for the Squares r, by one
    append per nonzero: tiles grouped by their Ref labels, then every column t
    visited and (t, 1) appended to each row it follows."""
    from treelat.zlinalg import IntMatrix

    n = len(r)
    by_b = {}
    by_a = {}
    for i, s in enumerate(r):
        by_b.setdefault(s.b, []).append(i)
        by_a.setdefault(s.a, []).append(i)
    m1_rows = [[] for _ in range(n)]
    m2_rows = [[] for _ in range(n)]
    for t_idx, t in enumerate(r):
        for s_idx in by_b.get(t.b_prime, ()):
            if s_idx != h_image_index(t_idx):
                m1_rows[s_idx].append((t_idx, 1))
        for s_idx in by_a.get(t.a_prime, ()):
            if s_idx != v_image_index(t_idx):
                m2_rows[s_idx].append((t_idx, 1))
    return (
        IntMatrix(n, n, tuple(map(tuple, m1_rows))),
        IntMatrix(n, n, tuple(map(tuple, m2_rows))),
    )


def successors(m):
    """Successor lists of the tile graph of a transition matrix: an edge
    t -> s whenever m[s][t] = 1."""
    adj = [[] for _ in range(m.cols)]
    for s, pairs in enumerate(m.row_pairs):
        for t, _ in pairs:
            adj[t].append(s)
    return adj


def scc_count_by_index(adj):
    """Number of strongly connected components (iterative Tarjan, each
    frame resuming at a position in its successor list, on-stack flags)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
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


def axis_connectivity_by_matrix(m):
    """The AxisConnectivity of tiling_system._label_axis_connectivity,
    from the built transition matrix m: Tarjan over its successor lists,
    then a union-find over its edges when it is not strongly connected."""
    from treelat import tiling_system

    adj = successors(m)
    n = len(adj)
    scc = scc_count_by_index(adj)
    strong = n == 0 or scc == 1
    weak = strong
    if not strong:
        uf = tiling_system._UnionFind(n)
        for t in range(n):
            uf.union_all((t, s) for s in adj[t])
        weak = uf.component_count() == 1
    return tiling_system.AxisConnectivity(
        weakly_connected=weak,
        strongly_connected=strong,
        scc_count=scc,
    )


def label_components_by_tiles(labels, flip):
    """The numbering of tiling_system.label_components, from a union over
    the pair (t, t ^ flip) of every tile t, both directions of each edge:
    the components of the labels 0 up to the largest, numbered in the
    order of their least label."""
    from treelat.tiling_system import _UnionFind

    size = 1 + max(labels, default=-1)
    uf = _UnionFind(size)
    uf.union_all((x, labels[t ^ flip]) for t, x in enumerate(labels))
    roots = [uf.find(x) for x in range(size)]
    number = {}
    for root in roots:
        number.setdefault(root, len(number))
    return tuple(number[root] for root in roots)


def edge_graph_components_by_pairs(n_vertices, endpoint_pairs, oriented):
    """The EdgeGraphComponent tuple of tiling_system._edge_graph_components,
    from a union-find over the endpoint pairs: components in the order of
    their least vertex, each edge counted in the component of its first
    endpoint."""
    from treelat.tiling_system import EdgeGraphComponent, _UnionFind

    uf = _UnionFind(n_vertices)
    uf.union_all(endpoint_pairs)
    order = {}
    for v in range(n_vertices):
        order.setdefault(uf.find(v), len(order))
    counts = [[0, 0, 0] for _ in order]
    for v in range(n_vertices):
        counts[order[uf.find(v)]][0] += 1
    for (x, _), is_plus in zip(endpoint_pairs, oriented):
        k = order[uf.find(x)]
        counts[k][1] += 1
        counts[k][2] += is_plus
    return tuple(EdgeGraphComponent(*k) for k in counts)


def edge_graph_components_by_tiles(n_vertices, component, labels, oriented):
    """tiling_system._edge_graph_components with one count per tile t: an
    edge of the component of labels[t], oriented when oriented[t]."""
    from collections import Counter

    from treelat.tiling_system import EdgeGraphComponent

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


def stacked_phi2_from_factors(phi2, factors):
    """S.phi2 read off the factors (b, a) of S (TilingSystem), or None
    when phi2 does not alternate: the E-expansion of the per-label sums of
    homology._label_sums, row s of the top block being the sum for b(s)
    and of the bottom block the sum for a(s).

    With S = (E.F^T - P_h - I over E'.G^T - P_v - I) and
    (I + P_h).phi2 = (I + P_v).phi2 = 0, S.phi2 = (E.(F^T.phi2) over
    E'.(G^T.phi2)), and row s of E.X is row b(s) of X.
    """
    from treelat.homology import _alternates, _label_sums
    from treelat.zlinalg import IntMatrix

    b, a = factors
    rows = phi2.row_pairs
    if phi2.rows != len(b) or not _alternates(rows):
        return None
    blocks = []
    for labels, flip in ((b, 2), (a, 1)):
        sums = _label_sums(rows, labels, flip)
        blocks += [sums[x] for x in labels]
    return IntMatrix(2 * len(b), phi2.cols, tuple(blocks))


def label_image_by_chain_maps(ts, maps, image):
    """The label image of homology.structured_kernel_dim, the rows of
    Phi.B^T by label, read off the per-tile chain maps, or None where
    check (1) does not hold at label resolution: the route certified_theorem
    took before it read Phi and L off the labels.  phi2 must be the one
    chain_maps builds, and homology._square_by_labels gives Phi, by label,
    from the rows of phi1 and check (1) from L, the per-label sums of phi2.
    image is the image block B^T of maps.d2."""
    from treelat.homology import _phi2_rows, _square_by_labels
    from treelat.zlinalg import mul_rows

    if maps.phi2.row_pairs != _phi2_rows(len(ts.b)):
        return None
    square = _square_by_labels(ts, maps)
    if square is None or not square[0]:
        return None
    _, _, phi, (b_labels, a_labels) = square
    rows = mul_rows(phi.row_pairs, image.row_pairs, image.cols)
    return dict(zip(b_labels, rows)), dict(zip(a_labels, rows[len(b_labels) :]))


def connectivity_by_refs(ts, c, r):
    """The ConnectivityReport of tiling_system.connectivity, from the
    built m1 and m2 of ts and with the vertices of the edge graphs found
    by Ref among the directed vertical and horizontal edges of c, for the
    sides and sigma tags of the Squares r."""
    from treelat.tiling_system import ConnectivityReport

    refs = directed_edges(c)
    v_index = {ref: i for i, ref in enumerate(refs[2 * len(c.h_edges) :])}
    h_index = {ref: i for i, ref in enumerate(refs[: 2 * len(c.h_edges)])}
    b_pairs = [(v_index[t.b], v_index[t.b_prime]) for t in r]
    b_plus = [t.sigma_tag in ("1", "v") for t in r]
    a_pairs = [(h_index[t.a], h_index[t.a_prime]) for t in r]
    a_plus = [t.sigma_tag in ("1", "h") for t in r]
    return ConnectivityReport(
        horizontal=axis_connectivity_by_matrix(ts.m1),
        vertical=axis_connectivity_by_matrix(ts.m2),
        gh_b_components=edge_graph_components_by_pairs(len(v_index), b_pairs, b_plus),
        gv_a_components=edge_graph_components_by_pairs(len(h_index), a_pairs, a_plus),
    )


def tile_labels(psi):
    """The labels b(s) and a(s) of every tile, as integers, read off psi.

    Column s of psi holds eps(b(s)) and column n + s holds -eps(a(s)), one
    +-1 each; directed edge (e, sign) gets label 2e or 2e + 1.  The a labels
    are shifted past the b labels, so the two never share a value.  None
    when some column is empty.
    """
    n = psi.cols // 2
    shift = 2 * psi.rows
    b = [-1] * n
    a = [-1] * n
    for e, pairs in enumerate(psi.row_pairs):
        for s, x in pairs:
            if s < n:
                b[s] = 2 * e + (x < 0)
            else:
                a[s - n] = shift + 2 * e + (x > 0)
    if -1 in b or -1 in a:
        return None
    return b, a


def matches_factors(stacked, b, a):
    """True iff stacked = (E.F^T - P_h - I over E'.G^T - P_v - I) for the
    tile labels b, a, with b'(t) = b(t^h) and a'(t) = a(t^v): each row of
    the built matrix against the row cut from the shared list of tiles
    with its primed label (the construction of build_tiling)."""
    from treelat.tiling_system import _follower_rows

    n = len(b)
    if stacked.rows != 2 * n or stacked.cols != n or len(a) != n or n % 4:
        return False
    rows = stacked.row_pairs
    for top, labels, flip in ((0, b, 2), (n, a, 1)):
        # tile t ^ 2 is t^h and tile t ^ 1 is t^v
        expected = _follower_rows(labels, flip)
        for s in range(n):
            if rows[top + s] != minus_diagonal(expected[s], s):
                return False
    return True


def minus_diagonal(pairs, i):
    """Row i of m - I, from the stored pairs of row i of m."""
    k = bisect_left(pairs, (i,))  # (i,) sorts before every pair (i, x)
    if k < len(pairs) and pairs[k][0] == i:
        x = pairs[k][1] - 1
        return pairs[:k] + (((i, x),) if x else ()) + pairs[k + 1 :]
    return pairs[:k] + ((i, -1),) + pairs[k:]


def stacked_matrix_by_minus_diagonal(ts):
    """(m1 - I) stacked over (m2 - I), each row re-sliced from the built
    m1 and m2 of ts (the export path before rows were cut from the labels)."""
    from treelat.zlinalg import IntMatrix

    n = len(ts.b)
    rows = []
    for m in (ts.m1, ts.m2):
        rows.extend(map(minus_diagonal, m.row_pairs, range(n)))
    return IntMatrix(2 * n, n, tuple(rows))


def minus_identity_rows_by_bisect(labels, flip):
    """The rows s of a transition matrix less the identity, each cut from
    the sorted tuple of the tiles with primed label labels[s] by two
    bisects, one per column s ^ flip and s (the cut before the pipeline
    read the position of each tile off a table)."""
    shared = {}
    for t in range(len(labels)):
        shared.setdefault(labels[t ^ flip], []).append((t, 1))
    rows = []
    for s, x in enumerate(labels):
        base = tuple(shared[x])
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


def stacked_matrix_by_bisect(ts):
    """(m1 - I) stacked over (m2 - I), each row cut from the tile labels
    of ts by minus_identity_rows_by_bisect."""
    from treelat.zlinalg import IntMatrix

    n = len(ts.b)
    rows = minus_identity_rows_by_bisect(ts.b, 2) + minus_identity_rows_by_bisect(ts.a, 1)
    return IntMatrix(2 * n, n, tuple(rows))


def stacked_factors(stacked, psi):
    """The tile labels (b, a) of psi when the built stacked matrix is the
    product of its factors (matches_factors), else None."""
    if psi.cols != 2 * stacked.cols:
        return None
    labels = tile_labels(psi)
    if labels is None or not matches_factors(stacked, *labels):
        return None
    return labels


def factor_tiling(labels):
    """The TilingSystem whose tiles carry the labels (b, a): the one whose
    factors are (b, a)."""
    from treelat.tiling_system import TilingSystem

    b, a = labels
    return TilingSystem(tuple(b), tuple(a), n_vertices=1)


def dense_equal(a, a_cols, b, b_cols):
    """Same shape and the same entry at every position."""
    return (len(a), a_cols) == (len(b), b_cols) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def dense_chain_maps(c, r):
    """d2, d1, phi2, phi1 and psi as dense row lists, by name, each with
    its column count, for the Squares r of c: every entry accumulated into
    a full matrix, phi1 by a scan of all tiles for each edge.  The row of
    an edge is its place in c.h_edges + c.v_edges."""
    eidx = {e.id: i for i, e in enumerate(c.h_edges + c.v_edges)}
    n_edges = len(eidx)
    n_cells = len(c.squares)
    n_tiles = len(r)
    vidx = {v: i for i, v in enumerate(c.vertices)}

    def eps(ref):
        return eidx[ref.edge], (-1 if ref.reversed else 1)

    d2 = [[0] * n_cells for _ in range(n_edges)]
    for k, t in enumerate(square_refs(c)):
        for ref, sign in ((t.a, 1), (t.b_prime, 1), (t.a_prime, -1), (t.b, -1)):
            row, s = eps(ref)
            d2[row][k] += sign * s

    d1 = [[0] * n_edges for _ in range(len(c.vertices))]
    for e in c.h_edges + c.v_edges:
        j = eidx[e.id]
        d1[vidx[e.terminus]][j] += 1
        d1[vidx[e.origin]][j] -= 1

    phi2 = [[0] * n_cells for _ in range(n_tiles)]
    for k in range(n_cells):
        base = 4 * k
        phi2[base][k] = 1
        phi2[base + 1][k] = -1
        phi2[base + 2][k] = -1
        phi2[base + 3][k] = 1

    phi1 = [[0] * n_edges for _ in range(2 * n_tiles)]
    for e in c.v_edges:
        j = eidx[e.id]
        for i, s in enumerate(r):
            if s.b.edge == e.id:
                phi1[i][j] += -1 if s.b.reversed else 1
    for e in c.h_edges:
        j = eidx[e.id]
        for i, s in enumerate(r):
            if s.a.edge == e.id:
                phi1[n_tiles + i][j] += 1 if s.a.reversed else -1

    psi = [[0] * (2 * n_tiles) for _ in range(n_edges)]
    for i, s in enumerate(r):
        row, sign = eps(s.b)
        psi[row][i] += sign
        row, sign = eps(s.a)
        psi[row][n_tiles + i] -= sign

    return {
        "d2": (d2, n_cells),
        "d1": (d1, n_edges),
        "phi2": (phi2, n_cells),
        "phi1": (phi1, n_edges),
        "psi": (psi, 2 * n_tiles),
    }


def determinant(a):
    """Exact determinant of an IntMatrix by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = dense(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lattice_contains(basis, vectors):
    """True iff every given vector is an integer combination of the basis.

    One test for the whole set, with two Hermite reductions: L(basis) is
    always inside L(basis + vectors), and the two lattices are equal iff
    every vector lies in L(basis).  The Hermite basis is canonical for the
    lattice, so that equality holds iff the two Hermite bases are equal.
    """
    from treelat.zlinalg import hermite_row_basis

    if not vectors:
        return True
    n = len(vectors[0])
    if any(len(vec) != n for vec in list(basis) + list(vectors)):
        raise ValueError("dimension mismatch in lattice inclusion test")
    return hermite_row_basis(list(basis) + list(vectors)) == hermite_row_basis(basis)


def h1_by_cycle_basis(maps):
    """H1 = ker d1 / im d2 by the cycle basis: the columns of d2 written in
    a saturated basis of ker d1 (one exact solve), then the cokernel of
    that coefficient matrix.  Both steps read the transforms of dense_snf,
    not the elimination behind zlinalg's kernels and solves: with
    u.d1.v = d, the cycles are the last columns of v, past the rank of d;
    with u'.K.v' = d' for the matrix K of the cycles, K.y = d2 iff
    d'.z = u'.d2 with y = v'.z."""
    from treelat.zlinalg import IntMatrix, cokernel_invariants

    n = maps.d1.cols
    _, d, v = dense_snf(dense(maps.d1))
    rank = sum(1 for i in range(min(len(d), n)) if d[i][i])
    k = [row[rank:] for row in v]
    if rank == n:
        return cokernel_invariants(M([], maps.d2.cols))
    uk, dk, vk = dense_snf(k)
    image = M(uk).mul(maps.d2).row_pairs
    if any(image[n - rank:]):
        raise AssertionError("boundary image escaped the cycle lattice")
    z = []
    for i, pairs in enumerate(image[: n - rank]):
        if any(x % dk[i][i] for _, x in pairs):
            raise AssertionError("boundary image escaped the cycle lattice")
        z.append(tuple([(j, x // dk[i][i]) for j, x in pairs]))
    y = M(vk).mul(IntMatrix(n - rank, maps.d2.cols, tuple(z)))
    return cokernel_invariants(y)


def dense_verify(c, r, maps, stacked, stacked_kernel, h2_basis):
    """The TheoremVerdict of homology.verify_main_theorem, each check run
    on dense vectors: phi2(H) formed and then multiplied by the stacked
    operator, the reflection symmetries read off the index maps entry by
    entry, and the mu sums accumulated per vector."""
    from treelat.homology import TheoremVerdict

    n_tiles = len(r)
    n_cells = len(c.squares)
    h2_image = maps.phi2.mul(M(h2_basis, n_cells).transpose())

    symmetries = True
    for lam in stacked_kernel:
        for i in range(n_tiles):
            if (
                lam[i] != -lam[h_image_index(i)]
                or lam[i] != -lam[v_image_index(i)]
                or lam[i] != lam[vh_image_index(i)]
            ):
                symmetries = False
    reps = M([[lam[4 * k] for k in range(n_cells)] for lam in stacked_kernel], n_cells)
    reps = reps.transpose()
    in_image = maps.phi2.mul(reps).transpose().entries == tuple(map(tuple, stacked_kernel))

    mu_ok = True
    for lam in stacked_kernel:
        mu_b = {}
        mu_a = {}
        for i, s in enumerate(r):
            mu_b[s.b_prime] = mu_b.get(s.b_prime, 0) + lam[i]
            mu_a[s.a_prime] = mu_a.get(s.a_prime, 0) + lam[i]
        if any(mu_b.values()) or any(mu_a.values()):
            mu_ok = False

    return TheoremVerdict(
        within_hypotheses=all(hd >= 3 and vd >= 3 for hd, vd in c.degrees.values()),
        diagram_commutes=stacked.mul(maps.phi2) == maps.phi1.mul(maps.d2),
        rank_ker_d2=len(h2_basis),
        rank_ker_stacked=len(stacked_kernel),
        phi2_image_in_kernel=stacked.mul(h2_image).is_zero(),
        kernel_in_phi2_image=in_image,
        kernel_symmetries_hold=symmetries,
        mu_vanishes=mu_ok,
    )


def structured_kernel_dim_by_orbits(ts):
    """dim ker S over Q, from the factors of S, with one column per orbit:
    the count of homology.structured_kernel_dim as it was before its orbit
    block left the pass over the tiles.  Its system C carries the orbit
    columns w in every label row and is eliminated whole.

    C, its unknowns y, z (one per label component) and w (one per orbit)
    and its rows (one per distinct tile row, one per label) are those of
    homology.structured_kernel_dim, whose docstring derives them.
    So dim ker_Q S = (#unknowns) - rank_Q(C), and C has a few dozen rows
    (69 x 287 at the Mozes pair (29,37), where S is 2280 x 1140).
    rank_Q(C) is zlinalg.rank(C), the number of pivots of the elimination
    of C's rows.  Before it is taken, the label rows of each edge are
    paired (pair_label_rows), which keeps rank_Q(C) and so the count.

    The components of the two label graphs are ts.components, which
    connectivity reads too.  The rows of C are built in one pass over the
    tiles.
    """
    from treelat.zlinalg import IntMatrix, rank

    b, a = ts.b, ts.a
    n = len(b)
    comp_b, comp_a = ts.components
    # One unknown y per b component, then one z per a component, then w_k
    # per orbit.  A component that holds no label of a tile is an unknown
    # in no row.
    z0 = 1 + max(comp_b, default=-1)
    w0 = z0 + 1 + max(comp_a, default=-1)
    yb = [comp_b[x] for x in b]
    za = [z0 + comp_a[x] for x in a]
    unknowns = len(set(yb)) + len(set(za)) + n // 4

    # One pass over the tiles.  Tile rows: t, t^v, t^h and t^vh give the
    # same one (b(t^h) = b'(t) and a(t^v) = a'(t) are in the components of
    # b(t) and a(t)), so one per orbit, and only the distinct ones.  Label
    # rows: 4 x[t] = 2 y[b(t)] + z[a(t)] - z[aa(t)] + 4 (+-w_k) is summed
    # into the row of label b'(t) and the row of label a'(t); each row
    # starts at -4 y (-4 z) of its own label.
    tile_keys = set()
    b_rows: dict[int, dict[int, int]] = {}
    a_rows: dict[int, dict[int, int]] = {}
    signs = (4, -4, -4, 4)
    for t in range(n):
        y, z1, z2 = yb[t], za[t], za[t ^ 2]
        if not t & 3:
            tile_keys.add((y, yb[t ^ 1], z1, z2))
        w, sign = w0 + (t >> 2), signs[t & 3]
        acc_b = b_rows.get(b[t ^ 2])
        if acc_b is None:
            acc_b = b_rows[b[t ^ 2]] = {y: -4}
        acc_a = a_rows.get(a[t ^ 1])
        if acc_a is None:
            acc_a = a_rows[a[t ^ 1]] = {z1: -4}
        for acc in (acc_b, acc_a):
            acc[y] = acc.get(y, 0) + 2
            acc[z1] = acc.get(z1, 0) + 1
            acc[z2] = acc.get(z2, 0) - 1
            acc[w] = acc.get(w, 0) + sign

    tile_rows = []
    for y1, y2, z1, z2 in tile_keys:
        acc = {}
        for j, x in ((y1, 1), (y2, 1), (z1, -1), (z2, -1)):
            acc[j] = acc.get(j, 0) + x
        tile_rows.append(acc)
    pair_label_rows(b_rows)
    pair_label_rows(a_rows)
    rows = [
        tuple(sorted([(j, x) for j, x in acc.items() if x]))
        for acc in (*tile_rows, *b_rows.values(), *a_rows.values())
    ]
    c = IntMatrix(len(rows), w0 + n // 4, tuple(rows))
    return unknowns - rank(c)


def structured_kernel_dim_by_one_rank(ts, label_image=None):
    """dim ker S over Q, from the factors of S, as one rank of the whole
    system C: the count of homology.structured_kernel_dim before it
    cleared the orbit columns of its certified route with triangular rows.

    C, its unknowns and its rows are those of structured_kernel_dim, whose
    docstring derives them: with label_image None the orbit block is L,
    formed from phi2, and otherwise the label rows of label_image, given
    as the rows of Phi.B^T by label on the certified path, or any rows at
    all, since unknowns - rank_Q(C) is the same number however rank_Q(C)
    is taken.  Here it is zlinalg.rank of C, orbit columns and all.  The
    label counts are counted here, not read off ts.label_counts.
    """
    from collections import Counter

    from treelat.homology import _label_sums, _phi2_rows
    from treelat.tiling_system import _primed
    from treelat.zlinalg import IntMatrix, rank

    b, a = ts.b, ts.a
    n = len(b)
    comp_b, comp_a = ts.components
    z0 = 1 + max(comp_b, default=-1)
    w0 = z0 + 1 + max(comp_a, default=-1)
    yb = [comp_b[x] for x in b]
    za = [z0 + comp_a[x] for x in a]
    unknowns = len(set(yb)) + len(set(za)) + n // 4

    rows = []
    for y1, y2, z1, z2 in set(zip(yb[::4], yb[1::4], za[::4], za[2::4])):
        acc = {}
        for j, x in ((y1, 1), (y2, 1), (z1, -1), (z2, -1)):
            acc[j] = acc.get(j, 0) + x
        rows.append(acc)
    b_primed, a_primed, za_h = _primed(b, 2), _primed(a, 1), _primed(za, 2)
    b_rows = {x: {comp_b[x]: 2 * k - 4} for x, k in Counter(b).items()}
    a_rows = {x: {z0 + comp_a[x]: k - 4} for x, k in Counter(a).items()}
    for by_label, pairs, coeff in (
        (b_rows, zip(b_primed, za), 1),
        (b_rows, zip(b_primed, za_h), -1),
        (a_rows, zip(a_primed, yb), 2),
        (a_rows, zip(a_primed, za_h), -1),
    ):
        for (x, j), k in Counter(pairs).items():
            acc = by_label[x]
            acc[j] = acc.get(j, 0) + coeff * k

    if label_image is None:
        phi2 = _phi2_rows(n)
        label_image = _label_sums(phi2, b, 2), _label_sums(phi2, a, 1)
    for by_label, image in zip((b_rows, a_rows), label_image):
        for x, acc in by_label.items():
            for k, v in image[x]:
                acc[w0 + k] = v
        pair_label_rows(by_label)
    c = list(
        dict.fromkeys(
            tuple(sorted([(j, x) for j, x in acc.items() if x]))
            for acc in (*rows, *b_rows.values(), *a_rows.values())
        )
    )
    return unknowns - rank(IntMatrix(len(c), w0 + n // 4, tuple(c)))


def pair_label_rows(rows: dict[int, dict[int, int]]) -> None:
    """Add the row of label x ^ 1 to the row of each odd label x, in
    place, where both labels have a row.

    A label is a directed edge code, 2i + reversed, so x and x ^ 1 are the
    two directions of one edge.  Each pair is one elementary row
    operation, row x += row x ^ 1 with the even row left as it is, and
    the pairs are disjoint, so the rows span the same space over Q and
    rank_Q(C) is unchanged on every input.  The orbit columns w of the two
    rows of an edge cancel in their sum when its two directions meet each
    orbit with opposite signs, as on the Mozes complexes, so the
    elimination in zlinalg.rank has fewer rows that reach the orbit block,
    and fills less.
    """
    for x, acc in rows.items():
        if x & 1 and x ^ 1 in rows:
            for j, v in rows[x ^ 1].items():
                acc[j] = acc.get(j, 0) + v


# --- validation by Ref ----------------------------------------------------------


def corner_problems_by_refs(text):
    """The corner-incidence messages of complex_model.load_complex for a
    document that passes every structural check: each square's four
    incidences compared through the edge of each Ref, by id."""
    import json

    doc = json.loads(text)
    edges = {e["id"]: e for key in ("horizontal_edges", "vertical_edges") for e in doc[key]}

    def origin(raw):
        return edges[raw["edge"]]["terminus" if raw["reversed"] else "origin"]

    def terminus(raw):
        return edges[raw["edge"]]["origin" if raw["reversed"] else "terminus"]

    corner_checks = (
        ("o(a)", "o(b)", lambda t: (origin(t["a"]), origin(t["b"]))),
        ("t(a)", "o(b_prime)", lambda t: (terminus(t["a"]), origin(t["b_prime"]))),
        ("t(b)", "o(a_prime)", lambda t: (terminus(t["b"]), origin(t["a_prime"]))),
        ("t(a_prime)", "t(b_prime)", lambda t: (terminus(t["a_prime"]), terminus(t["b_prime"]))),
    )
    problems = []
    for k, t in enumerate(doc["squares"]):
        for left, right, get in corner_checks:
            x, y = get(t)
            if x != y:
                problems.append(
                    f"squares[{k}]: corner incidence {left} = {right} fails"
                    f" ('{x}' != '{y}')"
                )
    return problems


def validate_vht_by_refs(c):
    """The ValidationReport of complex_model.validate_vht, by the route it
    replaced: every orbit expanded with sigma_act, coverage counted in a
    dict keyed by pairs of Refs, the incident pairs found by a scan of all
    |H+| x |V+| directed-edge pairs through the edge of each Ref, and the
    components by a union-find over vertex names."""
    from treelat.complex_model import ValidationIssue, ValidationReport, _UnionFind

    origin, _ = ref_ends(c)
    squares = square_refs(c)

    errors = []
    warnings = []

    for v in c.vertices:
        hd, vd = c.degrees[v]
        if hd < 3:
            warnings.append(
                ValidationIssue("low_h_degree", f"horizontal degree {hd} < 3 at vertex {v}")
            )
        if vd < 3:
            warnings.append(
                ValidationIssue("low_v_degree", f"vertical degree {vd} < 3 at vertex {v}")
            )

    if not c.vertices:
        errors.append(ValidationIssue("disconnected", "complex has no vertices"))
    else:
        index = {v: i for i, v in enumerate(c.vertices)}
        uf = _UnionFind(len(c.vertices))
        uf.union_all((index[e.origin], index[e.terminus]) for e in c.h_edges + c.v_edges)
        n_comp = uf.component_count()
        if n_comp > 1:
            errors.append(
                ValidationIssue("disconnected", f"complex has {n_comp} connected components")
            )

    for t in squares:
        if t.a_prime == t.a.bar() and t.b_prime == t.b.bar():
            errors.append(
                ValidationIssue(
                    "orbit_degenerate",
                    f"square {t.orbit_id} equals its vh-image; its reflection orbit has size 2",
                )
            )

    coverage = {}
    for t in squares:
        for g in SIGMA_TAGS:
            s = sigma_act(t, g)
            coverage.setdefault((s.a, s.b), []).append(s)

    directed_h = [Ref(e.id, rev) for e in c.h_edges for rev in (False, True)]
    directed_v = [Ref(e.id, rev) for e in c.v_edges for rev in (False, True)]
    incident = [
        (alpha, beta)
        for alpha in directed_h
        for beta in directed_v
        if origin(alpha) == origin(beta)
    ]
    incident_set = set(incident)

    for pair in incident:
        hits = coverage.get(pair, [])
        alpha, beta = pair
        if not hits:
            errors.append(
                ValidationIssue(
                    "link_uncovered",
                    f"link failure at vertex {origin(alpha)}: corner pair "
                    f"({alpha.display()}, {beta.display()}) not covered by any square",
                )
            )
        elif len(hits) > 1:
            names = ", ".join(f"{s.orbit_id}^{s.sigma_tag}" for s in hits)
            errors.append(
                ValidationIssue(
                    "link_multiple",
                    f"link failure: corner pair ({alpha.display()}, {beta.display()}) "
                    f"covered {len(hits)} times (squares {names})",
                )
            )
            # Each hit is named once, against the first earlier hit that it
            # forces an inversion with.
            for y in range(len(hits)):
                for x in range(y):
                    s1, s2 = hits[x], hits[y]
                    forced = []
                    for r1, r2 in ((s1.a_prime, s2.a_prime), (s1.b_prime, s2.b_prime)):
                        if r1.edge == r2.edge and r1.reversed != r2.reversed:
                            forced.append(r1.edge)
                    same_edges = (
                        s1.a_prime.edge == s2.a_prime.edge
                        and s1.b_prime.edge == s2.b_prime.edge
                    )
                    if forced and same_edges:
                        errors.append(
                            ValidationIssue(
                                "edge_inverted",
                                f"squares {s1.orbit_id}^{s1.sigma_tag} and "
                                f"{s2.orbit_id}^{s2.sigma_tag} share corner "
                                f"({alpha.display()}, {beta.display()}) and force "
                                + " and ".join(f"{e} = ~{e}" for e in forced),
                            )
                        )
                        break
    for pair in coverage:
        if pair not in incident_set:
            alpha, beta = pair
            errors.append(
                ValidationIssue(
                    "link_multiple",
                    f"corner pair ({alpha.display()}, {beta.display()}) is not incident",
                )
            )

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))
