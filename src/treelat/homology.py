"""Cellular chain complex of a VH-T complex and the tiling-kernel comparison.

Coordinates.  Forward edges (the orientation class) are rows in the order
horizontal edges then vertical edges, each in input order; a reversed
reference contributes with sign -1 to the row of its forward edge (the
signed projection written `eps` below).  On the edge codes of
complex_model.EdgeTable, eps(code) is row code >> 1 with sign -1 when
code & 1.  Geometric squares (the input orbit representatives) index the
columns of the boundary map d2; the tiles, the codes (a, b, a', b') of the
4n directed squares (EdgeTable.tiles), index everything on the tiling side.

Maps:

    d2   (|E+| x |R+|):  column t  =  eps(a + b' - a' - b)
    d1   (|X0| x |E+|):  column e  =  t(e) - o(e)
    phi2 (|R|  x |R+|):  column t  =  t - t^v - t^h + t^vh
    phi1 (2|R| x |E+|):  forward vertical b   -> (sum_{b(s)=b} s - sum_{b(s)=~b} s, 0)
                         forward horizontal a -> (0, sum_{a(s)=~a} s - sum_{a(s)=a} s)
    psi  (|E+| x 2|R|):  (s, t) -> eps(b(s)) - eps(a(t))

d1 . d2 = 0 follows from the corner incidences, and the square

    stacked . phi2 = phi1 . d2

commutes exactly, which is what ties ker d2 (the second homology lattice)
to the kernel of the stacked transition operator.  The tiles are
orbit-major, as tiling_system.label_tiling checks, so the tile labels give
the factors of that operator: the square and the count of its kernel read
them, and the operator is built only when phi1 or phi2 is not of the form
chain_maps builds, or when the certificate of the kernel fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from treelat.complex_model import SquareComplex
from treelat.tiling_system import TilingSystem
from treelat.zlinalg import (
    AbelianInvariants,
    IntMatrix,
    Row,
    SmithDecomposition,
    kernel_and_image,
    rank,
)


@dataclass(frozen=True)
class ChainMaps:
    d2: IntMatrix
    d1: IntMatrix
    phi2: IntMatrix
    phi1: IntMatrix
    psi: IntMatrix


@dataclass(frozen=True)
class HomologyReport:
    h0: AbelianInvariants
    h1: AbelianInvariants
    h2_rank: int
    euler_characteristic: int


@dataclass(frozen=True)
class TheoremVerdict:
    """Instance-level check that phi2 maps ker d2 isomorphically onto
    the stacked-operator kernel lattice.

    within_hypotheses is false when some vertex degree is below three; the
    remaining fields are still computed and reported, but the rank identity
    is only guaranteed inside the hypotheses.
    """

    within_hypotheses: bool
    diagram_commutes: bool
    rank_ker_d2: int
    rank_ker_stacked: int
    phi2_image_in_kernel: bool
    kernel_in_phi2_image: bool
    kernel_symmetries_hold: bool
    mu_vanishes: bool

    @property
    def ranks_equal(self) -> bool:
        return self.rank_ker_d2 == self.rank_ker_stacked

    @property
    def holds(self) -> bool:
        return (
            self.diagram_commutes
            and self.ranks_equal
            and self.phi2_image_in_kernel
            and self.kernel_in_phi2_image
            and self.kernel_symmetries_hold
            and self.mu_vanishes
        )


# Tile 4k + i is the orbit-k square with tag (1, v, h, vh)[i].
_PHI2_SIGNS = (1, -1, -1, 1)


def _phi2_rows(n_tiles: int) -> tuple[Row, ...]:
    """The rows of phi2 over n_tiles tiles: row t is signs[t & 3].e_{t >> 2}."""
    return tuple([((t >> 2, _PHI2_SIGNS[t & 3]),) for t in range(n_tiles)])


def chain_maps(c: SquareComplex, tiles: tuple[tuple[int, ...], ...]) -> ChainMaps:
    # Every map is built as canonical sparse rows: each row collects its
    # (column, value) pairs while the columns are visited in increasing
    # order, so it comes out sorted.  d2 reads the codes of c.edge_table's
    # squares and the tiling side the codes of tiles: row code >> 1, sign
    # -1 when code & 1.
    table = c.edge_table
    n_edges = len(table.position)
    n_cells = len(table.squares)
    n_tiles = len(tiles)

    d2: list[list[tuple[int, int]]] = [[] for _ in range(n_edges)]
    for k, (a, b, ap, bp) in enumerate(table.squares):
        column: dict[int, int] = {}
        for code, sign in ((a, 1), (bp, 1), (ap, -1), (b, -1)):
            column[code >> 1] = column.get(code >> 1, 0) + (-sign if code & 1 else sign)
        for row, x in column.items():
            if x:
                d2[row].append((k, x))

    d1: list[list[tuple[int, int]]] = [[] for _ in c.vertices]
    for j, (o, t) in enumerate(zip(table.origin[::2], table.terminus[::2])):
        if t != o:  # a loop has zero boundary
            d1[t].append((j, 1))
            d1[o].append((j, -1))

    phi2 = _phi2_rows(n_tiles)

    # phi1 has a row for b(s) when it is vertical, and for a(s) when it is
    # horizontal: the codes from table.vertical on, and those below it.
    vertical = table.vertical
    phi1 = [((b >> 1, -1 if b & 1 else 1),) if b >= vertical else () for _, b, _, _ in tiles]
    phi1 += [((a >> 1, 1 if a & 1 else -1),) if a < vertical else () for a, _, _, _ in tiles]

    psi: list[list[tuple[int, int]]] = [[] for _ in range(n_edges)]
    for i, (_, b, _, _) in enumerate(tiles):
        psi[b >> 1].append((i, -1 if b & 1 else 1))
    for i, (a, _, _, _) in enumerate(tiles, n_tiles):
        psi[a >> 1].append((i, 1 if a & 1 else -1))

    return ChainMaps(
        d2=IntMatrix(n_edges, n_cells, tuple(map(tuple, d2))),
        d1=IntMatrix(len(c.vertices), n_edges, tuple(map(tuple, d1))),
        phi2=IntMatrix(n_tiles, n_cells, phi2),
        phi1=IntMatrix(2 * n_tiles, n_edges, tuple(phi1)),
        psi=IntMatrix(n_edges, 2 * n_tiles, tuple(map(tuple, psi))),
    )


def homology_report(c: SquareComplex, maps: ChainMaps, s2: SmithDecomposition) -> HomologyReport:
    """Integral homology in degrees 0, 1, 2.

    s2 is a Smith form with the rank and cokernel of d2, computed once by
    the caller: that of the block B^T of zlinalg.kernel_and_image(d2),
    which has the column lattice of d2 in rank(d2) columns instead of |F|.
    It is the one Smith form of an analysis.  H2 is the kernel of d2,
    hence free: only its rank is reported.

    d1 takes none.  It is the incidence matrix of the 1-skeleton: column e
    is t(e) - o(e), and a loop is a zero column.  Let k be the number of
    components (c.component_count).  Every column has coordinate sum zero
    on each component, and v - r is a sum of +-columns along the path to v
    from the root r of its component in a spanning forest; so im d1 is the
    lattice of vectors with sum zero on every component, and the component
    sums map Z^V / im d1 onto Z^k with no kernel.  Hence H0 = coker d1 =
    Z^k, free, and rank(d1) = |V| - k.

    H1 = ker d1 / im d2 sits in the exact sequence

        0 -> ker d1 / im d2 -> Z^E / im d2 -> im d1 -> 0,

    the second map induced by d1.  It splits, since im d1 is a subgroup of
    the free group Z^V and so free.  Hence Z^E / im d2 = H1 + Z^rank(d1):
    H1 has the torsion of the cokernel of d2 and rank(d1) less free rank.
    """
    k = c.component_count
    rank_d1 = len(c.vertices) - k
    coker = s2.cokernel()
    h1 = AbelianInvariants(free_rank=coker.free_rank - rank_d1, torsion=coker.torsion)
    euler = len(c.vertices) - (len(c.h_edges) + len(c.v_edges)) + len(c.squares)
    h2_rank = maps.d2.cols - s2.rank
    return HomologyReport(
        h0=AbelianInvariants(free_rank=k, torsion=()),
        h1=h1,
        h2_rank=h2_rank,
        euler_characteristic=euler,
    )


def _row(acc: dict[int, int]) -> Row:
    """The canonical row of a {column: value} accumulator."""
    return tuple(sorted([(j, x) for j, x in acc.items() if x]))


def structured_kernel_dim(ts: TilingSystem) -> int:
    """dim ker S over Q, from the factors of S.

    S is the 2n x n stacked operator of ts, and its factors are the tile
    labels b, a (TilingSystem), with b'(t) = b(t^h) and a'(t) = a(t^v).
    With bb(t) = b(t^v) and aa(t) = a(t^h), the definition of the
    transition matrices reads M1 = E.F^T - P_h and M2 = E'.G^T - P_v.

    The split below needs only that 2 be invertible, as it is over Q.
    P_h and P_v are commuting involutions, so Q^n is the sum of their four
    joint eigenspaces, and x is in ker S iff (I + P_h)x = E.y and
    (I + P_v)x = E'.z with y = F^T x and z = G^T x.
    Split x that way: its h-even part is 1/2 (I + P_h)x = 1/2 E.y; its
    h-odd, v-even part is 1/2 (I - P_h) 1/2 (I + P_v)x = 1/4 (I - P_h)E'.z;
    its h-odd, v-odd part is phi2.w for one w in Q^|F|, since the columns
    t - t^v - t^h + t^vh of phi2 are a basis of that eigenspace.  So

        x = 1/2 E.y + 1/4 (I - P_h)E'.z + phi2.w.

    Conversely, (y, z, w) gives by that formula a kernel vector with
    F^T x = y and G^T x = z exactly when the conditions C hold:

    - y[b(t)] = y[b'(t)] and z[a(t)] = z[a'(t)] for every tile, that is
      P_h E.y = E.y and P_v E'.z = E'.z, which (I + P_h)x = E.y and
      (I + P_v)x = E'.z force.  So y and z are constant on the components
      of the graphs with edges b(t)-b'(t) and a(t)-a'(t), and C has one
      unknown per component instead of one per label;
    - y[b(t)] + y[bb(t)] = z[a(t)] + z[aa(t)] for every tile: the h-even
      part of (I + P_v)x = E'.z.  Its h-odd part reads
      1/4 (I - P_h)(I + P_v)E'.z = 1/2 (I - P_h)E'.z, which holds once
      P_v E'.z = E'.z; and (I + P_h)x = E.y holds once P_h E.y = E.y;
    - F^T x = y and G^T x = z, one row per label, with x as above.

    Those rows are scaled by 4 to keep integer coefficients, which leaves
    their solutions over Q as they are.  The map (y, z, w) -> x is a
    bijection from the solutions of C onto ker_Q S: onto by the split
    above, and one to one because y and z are read back as F^T x and
    G^T x, and w from the h-odd, v-odd part of x, phi2 being injective.
    So dim ker_Q S = (#unknowns) - rank_Q(C), and C has a few dozen rows
    (69 x 287 at the Mozes pair (29,37), where S is 2280 x 1140).
    rank_Q(C) is zlinalg.rank(C), the number of pivots of the elimination
    of C's rows.  Before it is taken, the label rows of each edge are
    paired (_pair_label_rows), which keeps rank_Q(C) and so the count.

    The components of the two label graphs are ts.components, which
    connectivity reads too.  The rows of C are built in one pass over the
    tiles.
    """
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
    _pair_label_rows(b_rows)
    _pair_label_rows(a_rows)
    rows = [_row(acc) for acc in (*tile_rows, *b_rows.values(), *a_rows.values())]
    c = IntMatrix(len(rows), w0 + n // 4, tuple(rows))
    return unknowns - rank(c)


def _pair_label_rows(rows: dict[int, dict[int, int]]) -> None:
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


def _alternates(rows) -> bool:
    """True iff (I + P_h).X = 0 and (I + P_v).X = 0 for the matrix X with
    these rows, tiles indexed orbit-major.

    The reflections act on tile indices by xor on the offset in the orbit
    (t^v = t ^ 1, t^h = t ^ 2), so the rows of each orbit decide it:
    t^v = 4k + 1 and t^h = 4k + 2 are minus the row of t = 4k, and
    t^vh = 4k + 3 is the row of t.
    """
    return all(
        rows[t + 3] == rows[t]
        and rows[t + 1] == rows[t + 2] == tuple([(j, -x) for j, x in rows[t]])
        for t in range(0, len(rows), 4)
    )


def _label_sums(rows, labels, flip: int) -> dict[int, Row]:
    """Row x of F^T.X, for the matrix X with these rows and F[t][x] =
    [labels[t ^ flip] = x]: the sum of the rows t of X whose primed label
    labels[t ^ flip] is x.  With (b, 2) that is b'(t) = b(t^h), and F^T.X;
    with (a, 1) it is a'(t) = a(t^v), and G^T.X (TilingSystem).
    O(nnz(X)) steps."""
    sums: dict[int, dict[int, int]] = {}
    for t, pairs in enumerate(rows):
        acc = sums.get(labels[t ^ flip])
        if acc is None:
            acc = sums[labels[t ^ flip]] = {}
        for j, x in pairs:
            acc[j] = acc.get(j, 0) + x
    return {x: _row(acc) for x, acc in sums.items()}


def _rows_by_label(rows, labels) -> dict[int, Row] | None:
    """The row of each label, in the order the labels first occur, when
    rows[s] depends on labels[s] alone; else None.  O(n)."""
    by_label: dict[int, Row] = {}
    for row, x in zip(rows, labels):
        if by_label.setdefault(x, row) != row:
            return None
    return by_label


def _square_by_labels(ts: TilingSystem, maps: ChainMaps) -> tuple[IntMatrix, IntMatrix] | None:
    """(L, Phi): S.phi2 and phi1 with one row per label, or None when the
    maps are not of the form that allows it.

    The form: phi2 alternates, and row s of phi1 depends on b(s) alone in
    the top block and on a(s) alone in the bottom one.  Then phi1 =
    (E.Phi_b over E'.Phi_a), row x of Phi_b being the phi1 row of any tile
    with b(s) = x, and S.phi2 = (E.F^T.phi2 over E'.G^T.phi2), the factors
    of S being those of TilingSystem (_label_sums), since
    (I + P_h).phi2 = (I + P_v).phi2 = 0.  Write E^ for the block diagonal
    (E, E'), L for F^T.phi2 over G^T.phi2 and Phi for Phi_b over Phi_a,
    each on the labels that occur, b's then a's.  So S.phi2 = E^.L and
    phi1 = E^.Phi.  E^ has exactly one 1 per row and a 1 in every column,
    so E^.X = E^.Y iff X = Y; and every label b(s) is a primed label
    b'(s ^ 2), so L has a row for it.  Hence S.phi2 = phi1.d2 iff
    L = Phi.d2; (S.phi2).H = 0 iff L.H = 0; and phi1.(d2.H) = 0 iff
    Phi.(d2.H) = 0: each check reads the same with (L, Phi) in place of
    (S.phi2, phi1), on 2|E| rows instead of 2n.
    """
    phi1, phi2 = maps.phi1, maps.phi2
    b, a = ts.b, ts.a
    n = len(b)
    if (phi2.rows, phi1.rows) != (n, 2 * n) or not _alternates(phi2.row_pairs):
        return None
    left: list[Row] = []
    right: list[Row] = []
    for labels, flip, rows in ((b, 2, phi1.row_pairs[:n]), (a, 1, phi1.row_pairs[n:])):
        phi = _rows_by_label(rows, labels)
        if phi is None:
            return None
        sums = _label_sums(phi2.row_pairs, labels, flip)
        left += [sums[x] for x in phi]
        right += phi.values()
    return (
        IntMatrix(len(left), phi2.cols, tuple(left)),
        IntMatrix(len(right), phi1.cols, tuple(right)),
    )


def commuting_square(ts: TilingSystem, maps: ChainMaps, h: IntMatrix) -> tuple[bool, bool]:
    """Checks (1) and (3) of verify_main_theorem, taken once for it and for
    stacked_kernel_basis: (diagram_commutes, phi2_image_in_kernel).

    (1) is S.phi2 = phi1.d2 for the stacked operator S of ts.  (3) is
    S.(phi2.H) = 0 for the basis H of ker d2 in the columns of h, read by
    associativity as phi1.(d2.H) = 0 when (1) holds (its two sides are then
    one matrix) and as (S.phi2).H = 0 otherwise.  Neither reads a stacked
    kernel basis.

    When the maps have the form of _square_by_labels, both checks
    run on its matrices, with one row per label, and neither S nor
    phi1.d2 is formed; that docstring gives the argument that each check
    keeps its value.  Otherwise (phi1 or phi2 not of the form chain_maps
    builds) they run on S.phi2 and phi1 themselves, with S built from the
    labels.
    """
    square = _square_by_labels(ts, maps)
    left, phi1 = square if square is not None else (ts.stacked.mul(maps.phi2), maps.phi1)
    if left == phi1.mul(maps.d2):
        return True, phi1.mul(maps.d2.mul(h)).is_zero()
    return False, left.mul(h).is_zero()


def stacked_kernel_basis(
    ts: TilingSystem,
    maps: ChainMaps,
    h: IntMatrix,
    square: tuple[bool, bool],
) -> IntMatrix:
    """Saturated basis of the kernel lattice K = {x in Z^n : S.x = 0} of
    the stacked operator S of ts, one basis vector per column.

    h holds the basis of ker d2 from its elimination, one vector per
    column, and square is commuting_square(ts, maps, h).  When two checks
    pass, the basis is phi2.h, and S is never built:

    (a) square[1], which is S.(phi2.h) = 0, so L = phi2(ker d2) lies in K;
    (b) dim ker_Q S == |H|, with ker_Q S the kernel over Q counted from
        the factors of S (structured_kernel_dim).

    Why that gives L = K.  dim ker_Q S is rank K: an integer kernel vector
    is a rational one, and a common denominator puts a multiple of each
    rational kernel vector in K.  So by (b) rank K = |H|.  phi2 is
    injective and by (a) carries the |H| independent columns of h into K,
    so rank L = |H| = rank K.  L is saturated in Z^n: phi2 has an
    integer left inverse pi, which reads coordinate 4k of each orbit, and
    ker d2 is saturated in Z^F, since h spans every integer kernel vector
    of d2 (the argument is in _kernels_py.unimodular_elimination).  So if
    m.x = phi2(y) with m != 0 and y in ker d2, then y = m.pi(x), hence
    pi(x) is in ker d2 and x = phi2(pi(x)) is in L.  Last, a saturated
    sublattice of K of full rank is K: for x in K some m != 0 puts m.x in
    L, and saturation puts x in L.

    Otherwise (the torus, the Klein bottle, any instance where the rank
    identity fails) the basis is the one of the elimination of
    S = ts.stacked, zlinalg.kernel_and_image.
    """
    if square[1] and structured_kernel_dim(ts) == h.cols:
        return maps.phi2.mul(h)
    return kernel_and_image(ts.stacked)[0]


def verify_main_theorem(
    c: SquareComplex,
    tiles: tuple[tuple[int, ...], ...],
    maps: ChainMaps,
    kernel: IntMatrix,
    h: IntMatrix,
    square: tuple[bool, bool],
) -> TheoremVerdict:
    """Check, on this instance, every step that ties H2 to the tiling kernel.

    kernel K is a saturated basis of the stacked-kernel lattice and h a
    basis H of ker d2, one vector per column.  (1) the square commutes and
    (3) phi2 carries H into the stacked-kernel lattice are read from square
    (commuting_square), which never reads K: a K certified through (3) is
    still checked by (2), (4) and (5), sparse identities of K itself.
    (2) the kernel ranks of d2 and of the stacked operator agree;
    (4a) each stacked-kernel basis vector is alternating under the
    reflections (negated by v and by h, fixed by vh), and (4b) is phi2 of
    the integer vector of its orbit-representative coordinates: phi2
    applied to rows 4k of K gives K back; (5) for each stacked-kernel basis
    vector the per-directed-edge sums mu(b) = sum over b'(t) = b (and the
    horizontal analogue) all vanish: the 0/1 matrix that groups the tiles
    by b'(t), and the one that groups them by a'(t), each times K, is zero.

    (4b) is read off (4a) when phi2 is the one chain_maps builds, row t =
    signs[t & 3].e_{t >> 2} (_phi2_rows), which is checked in O(n).  Row t
    of phi2.(rows 4k of K) is then signs[t & 3] times row 4(t >> 2) of K.
    So phi2.(rows 4k of K) = K iff rows 4k + 1 and 4k + 2 of K are minus
    row 4k and row 4k + 3 is row 4k, for every k: exactly _alternates(K),
    the check of (4a).  Any other phi2 forms the product.
    """
    n_tiles = len(tiles)
    n_cells = len(c.squares)
    rows = kernel.row_pairs
    symmetries = _alternates(rows)
    phi2 = maps.phi2
    canonical = (kernel.rows, phi2.cols) == (4 * n_cells, n_cells)
    if canonical and phi2.row_pairs == _phi2_rows(kernel.rows):
        in_image = symmetries
    else:
        reps = IntMatrix(n_cells, kernel.cols, rows[::4])
        in_image = phi2.mul(reps) == kernel

    def grouping(codes) -> IntMatrix:
        groups: dict[int, list[tuple[int, int]]] = {}
        for t, code in enumerate(codes):
            groups.setdefault(code, []).append((t, 1))
        return IntMatrix(len(groups), n_tiles, tuple(map(tuple, groups.values())))

    # tiles grouped by the edge code of a side, b' and then a'
    mu_ok = (
        grouping(t[3] for t in tiles).mul(kernel).is_zero()
        and grouping(t[2] for t in tiles).mul(kernel).is_zero()
    )

    within = all(hd >= 3 and vd >= 3 for hd, vd in c.degrees.values())
    return TheoremVerdict(
        within_hypotheses=within,
        diagram_commutes=square[0],
        rank_ker_d2=h.cols,
        rank_ker_stacked=kernel.cols,
        phi2_image_in_kernel=square[1],
        kernel_in_phi2_image=in_image,
        kernel_symmetries_hold=symmetries,
        mu_vanishes=mu_ok,
    )
