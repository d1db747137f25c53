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

d1 . d2 = 0 follows from the corner incidences, and the square

    stacked . phi2 = phi1 . d2

commutes exactly, which is what ties ker d2 (the second homology lattice)
to the kernel of the stacked transition operator.  The tiles are
orbit-major, as tiling_system.build_tiling checks, so the tile labels give
the factors of that operator, and phi1 and phi2 are functions of the
labels too.  analyze builds d2 alone (boundary_d2): check (1) of the
square and the count of the kernel are read off the labels and d2, and
neither phi1, phi2 nor the operator is built.  verify, export and the
explicit checks build the chain maps (chain_maps); the square reads them
one row per label where they have the form chain_maps builds, and the
operator is built only when phi1 or phi2 is not of that form, or when the
certificate of the kernel fails.

Two routes give the verdict on the rank identity.  certified_theorem
reads it off check (1) at label resolution and the count, with no basis
of ker d2 or of the stacked kernel, and returns None where they do not
certify it; verify_main_theorem checks every step on explicit bases of
both kernels.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from treelat.complex_model import SquareComplex
from treelat.tiling_system import TilingSystem, _primed
from treelat.zlinalg import (
    AbelianInvariants,
    IntMatrix,
    Row,
    SmithDecomposition,
    kernel_and_image,
    mul_rows,
    rank,
)


class ChainMaps(NamedTuple):
    d2: IntMatrix
    d1: IntMatrix
    phi2: IntMatrix
    phi1: IntMatrix


class HomologyReport(NamedTuple):
    h0: AbelianInvariants
    h1: AbelianInvariants
    h2_rank: int
    euler_characteristic: int


class TheoremVerdict(NamedTuple):
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


def boundary_d2(c: SquareComplex) -> IntMatrix:
    """d2 of c, one column per square, built as canonical sparse rows: each
    row collects its (column, value) pairs while the columns are visited in
    increasing order, so it comes out sorted.  It reads the codes of
    c.squares: row code >> 1, sign -1 when code & 1."""
    n_edges = len(c.edge_table.position)
    d2: list[list[tuple[int, int]]] = [[] for _ in range(n_edges)]
    for k, (a, b, ap, bp) in enumerate(c.squares):
        column: dict[int, int] = {}
        for code, sign in ((a, 1), (bp, 1), (ap, -1), (b, -1)):
            column[code >> 1] = column.get(code >> 1, 0) + (-sign if code & 1 else sign)
        for row, x in column.items():
            if x:
                d2[row].append((k, x))
    return IntMatrix(n_edges, len(c.squares), tuple(map(tuple, d2)))


def chain_maps(c: SquareComplex, tiles: tuple[tuple[int, ...], ...]) -> ChainMaps:
    """d2 and d1 of c, and phi2 and phi1 on tiles, the codes (a, b, a', b')
    of each tile, each built as canonical sparse rows.  analyze builds d2
    alone (boundary_d2) and reads phi1 and phi2 off the tile labels
    (certified_theorem); verify, export and the explicit checks build
    them here."""
    table = c.edge_table
    n_tiles = len(tiles)
    d2 = boundary_d2(c)

    d1: list[list[tuple[int, int]]] = [[] for _ in c.vertices]
    for j, (o, t) in enumerate(zip(table.origin[::2], table.terminus[::2])):
        if t != o:  # a loop has zero boundary
            d1[t].append((j, 1))
            d1[o].append((j, -1))

    # phi1 has a row for b(s) when it is vertical, and for a(s) when it is
    # horizontal: the codes from table.vertical on, and those below it.
    vertical = table.vertical
    phi1 = [((b >> 1, -1 if b & 1 else 1),) if b >= vertical else () for _, b, _, _ in tiles]
    phi1 += [((a >> 1, 1 if a & 1 else -1),) if a < vertical else () for a, _, _, _ in tiles]
    return ChainMaps(
        d2=d2,
        d1=IntMatrix(len(c.vertices), d2.rows, tuple(map(tuple, d1))),
        phi2=IntMatrix(n_tiles, d2.cols, _phi2_rows(n_tiles)),
        phi1=IntMatrix(2 * n_tiles, d2.rows, tuple(phi1)),
    )


def homology_report(c: SquareComplex, s2: SmithDecomposition) -> HomologyReport:
    """Integral homology in degrees 0, 1, 2.

    s2 is a Smith form with the rank and cokernel of d2, computed once by
    the caller: that of the image block B^T of d2, which has the column
    lattice of d2 in rank(d2) columns instead of |F|, read off the pivots
    of the elimination that gives B^T (zlinalg.image_and_smith_form).  It
    is the one Smith form of an analysis.  H2 is the kernel of d2,
    hence free: only its rank is reported, |F| less rank d2, with one
    column of d2 per square.

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
    h2_rank = len(c.squares) - s2.rank
    return HomologyReport(
        h0=AbelianInvariants(free_rank=k, torsion=()),
        h1=h1,
        h2_rank=h2_rank,
        euler_characteristic=euler,
    )


def _row(acc: dict[int, int]) -> Row:
    """The canonical row of a {column: value} accumulator."""
    return tuple(sorted([(j, x) for j, x in acc.items() if x]))


LabelImage = tuple[dict[int, Row], dict[int, Row]]


def structured_kernel_dim(ts: TilingSystem, label_image: LabelImage | None = None) -> int:
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
    So dim ker_Q S = (#unknowns) - rank_Q(C).

    The rows of C.  The tile rows, y[b(t)] + y[bb(t)] - z[a(t)] - z[aa(t)],
    and the component part Y of each label row are counted over the tiles,
    a few dozen component columns.  The orbit part of the row of label x
    is 4 L[x], for L the label matrix F^T.phi2 over G^T.phi2, with phi2
    the one chain_maps builds (_phi2_rows), read off the labels
    (_label_phi2).
    So C = [[Y, 4 L], [Z, 0]], Z the tile rows, and rank_Q(C) =
    rank_Q [[Y, M], [Z, 0]] for any orbit block M with M.X = 4 L for an X
    of full row rank: multiplying on the right by diag(I, X) keeps rank_Q,
    X having a right inverse over Q.

    With label_image None, M is L itself (_label_phi2): the general path,
    for any labels.  label_image is given when check (1) holds at label
    resolution for the chain maps of a complex (certified_theorem, with
    _phi_image): L = Phi.d2, Phi the phi1 row of each label.  It
    then holds the rows of Phi.B^T by label, a dict for the b labels and
    one for the a labels, B^T the image block of d2
    (zlinalg.image_and_smith_form), and M is Phi.B^T.  The columns of B^T
    are a basis over Q of the column space of d2, so d2 = B^T.X' for a
    rational X' of full row rank r = rank d2, and 4 L = (Phi.B^T).(4 X').
    r <= |F|, so one width of orbit columns serves both paths.

    Before the rank, the row of each reversed label x (x & 1) gets the row
    of its reversal x ^ 1 added, where x ^ 1 is a label too, and each
    repeated row is kept once.  The first is a unimodular row operation and
    the second drops rows that add nothing, so neither changes rank_Q(C).
    With M = Phi.B^T the orbit parts of the sums cancel: the phi1 row of
    the reversed edge x is minus that of x ^ 1, so Phi[x] = -Phi[x ^ 1],
    and so are their rows of Phi.B^T.  A sum row keeps only its component
    part, and C about halves its nonzeros.

    The general path takes rank_Q(C) as one rank of C.  With M = Phi.B^T
    the orbit columns need no elimination: _clear_orbit_parts picks
    r = rank d2 rows of C whose orbit parts are lower triangular with a
    nonzero diagonal, clears the orbit part of every other row with them,
    and rank_Q(C) is r plus the rank of what is left on the component
    columns alone.  Its docstring gives the argument, and shows that a row
    to pick is never missing there; were one missing, the count would
    take the one rank of C.
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

    # Tile rows: t, t^v, t^h and t^vh give the same one (b(t^h) = b'(t)
    # and a(t^v) = a'(t) are in the components of b(t) and a(t)), so one
    # per orbit, and only the distinct ones.
    rows = []
    for y1, y2, z1, z2 in set(zip(yb[::4], yb[1::4], za[::4], za[2::4])):
        acc = {}
        for j, x in ((y1, 1), (y2, 1), (z1, -1), (z2, -1)):
            acc[j] = acc.get(j, 0) + x
        rows.append(acc)
    # Label rows, component part: 4 x[t] less its orbit part,
    # 2 y[b(t)] + z[a(t)] - z[aa(t)], summed into the row of label b'(t)
    # and the row of label a'(t), each row starting at -4 y (-4 z) of its
    # own label.  b(t) is in the component of b'(t), so the row of label x
    # holds 2 y[x] once per tile with b'(t) = x; and a(t) is in the
    # component of a'(t), so the row of label x holds z[x] once per tile
    # with a'(t) = x.  The other terms are counted per (label, unknown).
    b_primed, a_primed, za_h = _primed(b, 2), _primed(a, 1), _primed(za, 2)
    b_count, a_count = ts.label_counts
    b_rows = {x: {comp_b[x]: 2 * k - 4} for x, k in b_count.items()}
    a_rows = {x: {z0 + comp_a[x]: k - 4} for x, k in a_count.items()}
    for by_label, pairs, coeff in (
        (b_rows, zip(b_primed, za), 1),
        (b_rows, zip(b_primed, za_h), -1),
        (a_rows, zip(a_primed, yb), 2),
        (a_rows, zip(a_primed, za_h), -1),
    ):
        for (x, j), k in Counter(pairs).items():
            acc = by_label[x]
            acc[j] = acc.get(j, 0) + coeff * k

    certified = label_image is not None
    if not certified:
        label_image = _label_phi2(ts)
    for by_label, image in zip((b_rows, a_rows), label_image):
        for x, acc in by_label.items():
            for k, v in image[x]:
                acc[w0 + k] = v
        # Reversal sums (see above).
        for x, acc in by_label.items():
            if x & 1 and (other := by_label.get(x ^ 1)) is not None:
                for j, v in other.items():
                    acc[j] = acc.get(j, 0) + v
    # A repeated row adds nothing to the rank: each is kept once.
    c = list(dict.fromkeys(map(_row, (*rows, *b_rows.values(), *a_rows.values()))))
    cleared = _clear_orbit_parts(c, w0) if certified else None
    if cleared is not None:
        r, rest = cleared
        return unknowns - r - rank(IntMatrix(len(rest), w0, tuple(rest)))
    return unknowns - rank(IntMatrix(len(c), w0 + n // 4, tuple(c)))


def _clear_orbit_parts(rows: list[Row], w0: int) -> tuple[int, list[Row]] | None:
    """(r, rest) with rank_Q(rows) = r + rank_Q(rest), rest on the columns
    below w0 alone; or None when the rows do not allow it.

    rows are the distinct rows of the system C of structured_kernel_dim,
    the columns from w0 on its orbit part.  The orbit part of a row ends
    at its last nonzero.  For each orbit column k, one row whose orbit
    part ends at k is picked, one with +-1 there when there is one.  The
    r picked rows have their orbit parts lower triangular with a nonzero
    diagonal, hence independent.  Every other row is reduced from its
    last orbit column down: at column k, with v its entry there and d
    that of the row picked for k, the row becomes (d / g) row - (v / g)
    pick, g = gcd(d, v), and a row so scaled is divided by its content.
    That clears column k and touches only columns below k, the pick
    ending at k.  Scaling by a nonzero number and adding a multiple of
    another row keep the rank over Q, so rank_Q(rows) is that of the picks
    and the rest, whose orbit parts are now zero: r + rank_Q(rest), since
    a relation among them has no pick in it, the picks' orbit parts being
    independent.  When a row reaches an orbit column that no row ends at,
    None.

    With M = Phi.B^T, the certified path, that never happens, and r is the
    rank of d2.  Column k of B^T is pivot row k of the elimination of d2^T
    (zlinalg.image_and_smith_form), nonzero at its pivot edge c_k, where
    every later pivot row is zero: row c_k of B^T ends at column k.  The
    edge c_k lies on a square, since an integer combination of the columns
    of d2 is nonzero there, and every edge on a square is a label of some
    tile.
    Its row of C has orbit part Phi[x].B^T = +-(row c_k of B^T), for the
    label x of c_k that keeps its orbit part through the reversal sums.
    So every orbit column has a row that ends at it, and a picked row is
    never missing.
    """
    picked: dict[int, Row] = {}
    for row in rows:
        if row and row[-1][0] >= w0:
            k, v = row[-1]
            if k not in picked or v in (1, -1) and picked[k][-1][1] not in (1, -1):
                picked[k] = row
    chosen = set(picked.values())
    rest = []
    for row in rows:
        if row in chosen:
            continue
        acc = dict(row)
        while acc and (k := max(acc)) >= w0:
            pick = picked.get(k)
            if pick is None:
                return None
            d, v = pick[-1][1], acc[k]
            g = gcd(d, v)
            scale, q = (d // g, v // g) if d > 0 else (-d // g, -v // g)
            if scale != 1:
                for j in acc:
                    acc[j] *= scale
            for j, x in pick:
                y = acc.get(j, 0) - q * x
                if y:
                    acc[j] = y
                else:
                    del acc[j]
            if scale != 1 and acc:
                content = gcd(*acc.values())
                for j in acc:
                    acc[j] //= content
        rest.append(_row(acc))
    return len(picked), list(dict.fromkeys(rest))


def _alternates(rows) -> bool:
    """True iff (I + P_h).X = 0 and (I + P_v).X = 0 for the matrix X with
    these rows, a tuple, tiles indexed orbit-major.

    The reflections act on tile indices by xor on the offset in the orbit
    (t^v = t ^ 1, t^h = t ^ 2), so the rows of each orbit decide it:
    t^v = 4k + 1 and t^h = 4k + 2 are minus the row of t = 4k, and
    t^vh = 4k + 3 is the row of t.  Each offset is one slice, and rows
    4k + 1 are compared with minus rows 4k orbit by orbit: a negated copy
    of every first row at once would double the pairs of a large kernel.
    """
    first = rows[::4]
    return (
        rows[3::4] == first
        and rows[1::4] == rows[2::4]
        and all(row == tuple([(j, -x) for j, x in pairs]) for row, pairs in zip(rows[1::4], first))
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
    rows[s], a tuple, depends on labels[s] alone; else None.  O(n): the
    last row of each label is kept, and every row compared with it."""
    by_label = dict(zip(labels, rows))
    if tuple(map(by_label.__getitem__, labels)) != rows:
        return None
    return by_label


def _square_by_labels(
    ts: TilingSystem, maps: ChainMaps
) -> tuple[bool, IntMatrix, IntMatrix, tuple[list[int], list[int]]] | None:
    """(commutes, L, Phi, labels): whether check (1) holds at label
    resolution, S.phi2 and phi1 with one row per label, and the labels of
    their rows, b's then a's; or None when the maps are not of the form
    that allows it.

    The form: phi2 alternates, which the caller has checked (_alternates,
    or phi2 is the one chain_maps builds), and row s of phi1 depends on
    b(s) alone in the top block and on a(s) alone in the bottom one.
    Then phi1 =
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

    commutes is L = Phi.d2, compared row by row, and no matrix product is
    formed: row x of Phi.d2 is the sum of s.d2[e] over the pairs (e, s)
    of Phi[x] (zlinalg.mul_rows), which is +-d2[e] itself for the phi1 of
    chain_maps, one pair per row.
    """
    phi1, phi2, d2 = maps.phi1, maps.phi2, maps.d2
    b, a = ts.b, ts.a
    n = len(b)
    if (phi2.rows, phi1.rows, phi1.cols) != (n, 2 * n, d2.rows):
        return None
    left: list[Row] = []
    right: list[Row] = []
    keys = []
    for labels, flip, rows in ((b, 2, phi1.row_pairs[:n]), (a, 1, phi1.row_pairs[n:])):
        phi = _rows_by_label(rows, labels)
        if phi is None:
            return None
        sums = _label_sums(phi2.row_pairs, labels, flip)
        left += map(sums.__getitem__, phi)
        right += phi.values()
        keys.append(list(phi))
    l_rows = tuple(left)
    return (
        l_rows == mul_rows(right, d2.row_pairs, d2.cols),
        IntMatrix(len(l_rows), phi2.cols, l_rows),
        IntMatrix(len(right), phi1.cols, tuple(right)),
        (keys[0], keys[1]),
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
    square = _square_by_labels(ts, maps) if _alternates(maps.phi2.row_pairs) else None
    if square is None:
        left, phi1 = ts.stacked.mul(maps.phi2), maps.phi1
        commutes = left == phi1.mul(maps.d2)
    else:
        commutes, left, phi1, _ = square
    if commutes:
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


def certified_theorem(
    c: SquareComplex, ts: TilingSystem, d2: IntMatrix, image: IntMatrix
) -> TheoremVerdict | None:
    """The TheoremVerdict of verify_main_theorem for the chain maps of c,
    read off check (1) and the count of the stacked kernel alone, or None
    when they do not certify it.

    d2 is that of c (boundary_d2), image its image block B^T
    (zlinalg.image_and_smith_form) and ts the tiles of c
    (tiling_system.build_tiling).  The certificate: check (1),
    S.phi2 = phi1.d2, holds at label resolution (_phi_image), and the count
    dim ker_Q S (structured_kernel_dim, with Phi.B^T as its orbit block)
    equals rank ker d2 = |F| - rank d2, with rank d2 the columns of B^T.
    Neither phi1 nor phi2 is built, and no basis of ker d2 or of ker S is
    formed.  When it holds, every check of verify_main_theorem holds, by
    the proof rather than on a basis:

    (1) holds, checked as above;
    (2) is the count: rank ker S = dim ker_Q S = rank ker d2;
    (3) S.phi2.x = phi1.d2.x = 0 for x in ker d2, by (1);
    (4a), (4b) K = phi2(ker d2) for the kernel lattice K of S, by (3), the
        count and the saturation argument of stacked_kernel_basis.  The
        columns t - t^v - t^h + t^vh of phi2 are negated by v and by h and
        fixed by vh, so every vector of K is; and phi2 applied to rows 4k
        of phi2.x, which are x, gives phi2.x back;
    (5) M1 = E.F^T - P_h (TilingSystem), so by (4a) (M1 - I).K =
        E.F^T.K - (I + P_h).K = E.F^T.K; E has one 1 per row and a 1 in
        every column, so E.Y = 0 iff Y = 0, and F^T.K = 0 iff
        (M1 - I).K = 0; the same holds for G and M2.  F^T and G^T group
        the tiles by b'(t) and by a'(t), so (5) is S.K = 0, true of K.

    When the certificate fails, None, and the caller takes the explicit
    path on chain_maps: kernel_and_image, commuting_square,
    stacked_kernel_basis and verify_main_theorem.
    """
    label_image = _phi_image(ts, c.edge_table.vertical, d2, image)
    if label_image is None:
        return None
    rank_h2 = d2.cols - image.cols
    if structured_kernel_dim(ts, label_image) != rank_h2:
        return None
    return TheoremVerdict(
        within_hypotheses=_within_hypotheses(c),
        diagram_commutes=True,
        rank_ker_d2=rank_h2,
        rank_ker_stacked=rank_h2,
        phi2_image_in_kernel=True,
        kernel_in_phi2_image=True,
        kernel_symmetries_hold=True,
        mu_vanishes=True,
    )


def _label_phi2(ts: TilingSystem) -> LabelImage:
    """L = F^T.phi2 over G^T.phi2 by label, for the phi2 of chain_maps, a
    dict for the b labels and one for the a labels, each in the order the
    labels first occur.

    Row t of phi2 is signs[t & 3].e_{t >> 2} (_phi2_rows), and row x of
    F^T.phi2 sums the rows t of phi2 with b'(t) = x: so the tiles of orbit
    k add the signs (1, -1, -1, 1) at column k of the rows of their primed
    labels, b'(t) for F and a'(t) for G, and the sums of a label that
    occurs twice in the orbit are merged (_label_sums on phi2, without
    phi2).  The columns come in increasing order, so each row comes out
    sorted.
    """
    out = []
    for labels, flip, counts in zip((ts.b, ts.a), (2, 1), ts.label_counts):
        rows: dict[int, list[tuple[int, int]]] = {x: [] for x in counts}
        primed = _primed(labels, flip)
        quads = zip(primed[::4], primed[1::4], primed[2::4], primed[3::4])
        for k, (x0, x1, x2, x3) in enumerate(quads):
            # Four distinct labels, the common case: one entry each.
            if x0 != x1 and x0 != x2 and x0 != x3 and x1 != x2 and x1 != x3 and x2 != x3:
                rows[x0].append((k, 1))
                rows[x1].append((k, -1))
                rows[x2].append((k, -1))
                rows[x3].append((k, 1))
                continue
            acc: dict[int, int] = {}
            for x, sign in zip((x0, x1, x2, x3), _PHI2_SIGNS):
                acc[x] = acc.get(x, 0) + sign
            for x, v in acc.items():
                if v:
                    rows[x].append((k, v))
        out.append({x: tuple(row) for x, row in rows.items()})
    return out[0], out[1]


def _phi_image(
    ts: TilingSystem, vertical: int, d2: IntMatrix, image: IntMatrix
) -> LabelImage | None:
    """The label_image argument of structured_kernel_dim, the rows of
    Phi.B^T by label, a dict for the b labels and one for the a labels,
    when check (1) holds at label resolution for the chain maps of the
    tiles of ts; else None.  vertical is the first vertical edge code
    (complex_model.EdgeTable), and image the image block B^T of d2.

    The argument.  Row s of the phi1 of chain_maps is +-e of b(s) in its
    top block, and +-e of a(s) in its bottom one, a function of the label
    alone, and its phi2 is the canonical one, which alternates.  So both
    are of the form _square_by_labels asks for, and its matrices are read
    off the labels here, with no per-tile map.  Phi holds the phi1 row of
    each label: ((x + vertical) >> 1, s) for a b label x, its code less
    vertical, with s = -1 when x is reversed (x & 1); and (x >> 1, s) for
    an a label x, its code, with s = -1 when x is forward.  A label of the
    wrong axis gets an empty row, as in chain_maps.  L = F^T.phi2 over
    G^T.phi2 (_label_phi2).  By that docstring, S.phi2 = phi1.d2 iff
    L = Phi.d2, compared row by row: row x of Phi.d2 is +-d2[e] for the
    pair (e, +-1) of Phi[x] (zlinalg.mul_rows).
    """
    left_b, left_a = _label_phi2(ts)
    phi = [(((x + vertical) >> 1, -1 if x & 1 else 1),) if x >= 0 else () for x in left_b]
    phi += [((x >> 1, 1 if x & 1 else -1),) if x < vertical else () for x in left_a]
    if (*left_b.values(), *left_a.values()) != mul_rows(phi, d2.row_pairs, d2.cols):
        return None
    rows = mul_rows(phi, image.row_pairs, image.cols)
    return dict(zip(left_b, rows)), dict(zip(left_a, rows[len(left_b) :]))


def _within_hypotheses(c: SquareComplex) -> bool:
    """Every vertex has horizontal and vertical degree at least three."""
    return all(hd >= 3 and vd >= 3 for hd, vd in c.degrees.values())


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

    return TheoremVerdict(
        within_hypotheses=_within_hypotheses(c),
        diagram_commutes=square[0],
        rank_ker_d2=h.cols,
        rank_ker_stacked=kernel.cols,
        phi2_image_in_kernel=square[1],
        kernel_in_phi2_image=in_image,
        kernel_symmetries_hold=symmetries,
        mu_vanishes=mu_ok,
    )
