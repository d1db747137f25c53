"""The full instance-level property battery.

Run on every corpus complex and on randomized valid complexes; every check
is exact.  Where the pipeline computes something one way, the battery
re-derives it another way (naive double loops, dense chain maps, rational
elimination, reachability closure, the rank mod p of the whole stacked
operator, the dense verifier, H1 through the cycle basis of ker d1, the
transition matrices one pair at a time, S.phi2 as a product, Tarjan and
the column sums of the built transition matrices, the built S checked
against the labels read off psi, the kernels, invariant factors and solves
of the elimination against the transforms of the dense Smith schedule).
The directed squares are also read as Squares of (edge, reversed) Refs and
reflected by sigma_act, against the codes the pipeline reads.
"""

import random

from treelat import _kernels_py, tiling_system
from treelat.complex_model import expand_directed_squares
from treelat.homology import (
    chain_maps,
    commuting_square,
    stacked_kernel_basis,
    structured_kernel_dim,
    verify_main_theorem,
)
from treelat.tiling_system import build_tiling, stacked_matrix
from treelat.zlinalg import (
    AbelianInvariants,
    hermite_row_basis,
    image_and_smith_form,
    kernel_and_image,
    kernel_basis,
    lattice_membership,
    smith_normal_form,
    solve_exact,
)
from treelat.zlinalg import rank as zlinalg_rank

from _oracles import (
    M,
    build_tiling_by_pairs,
    certified_snf_diagonal,
    connectivity_by_refs,
    dense_chain_maps,
    dense_column_sums,
    dense_snf,
    dense_verify,
    expand_by_sigma,
    h1_by_cycle_basis,
    h_image_index,
    matches_factors,
    psi_matrix,
    rank_by_fraction_elimination,
    rank_mod_prime,
    ref_ends,
    sigma_act,
    snf_diagonal,
    square_codes,
    stacked_phi2_from_factors,
    strongly_connected_by_closure,
    tile_labels,
    transition_entries_by_definition,
    v_image_index,
    vh_image_index,
)


def maps_of(analysis):
    """The chain maps of an analysed complex, on the tiles the analysis
    read.  analyze builds d2 alone, and never chain_maps."""
    c = analysis.complex
    return chain_maps(c, expand_directed_squares(c))


def assert_instance_properties(analysis):
    c = analysis.complex
    r = expand_by_sigma(c)
    tiles = expand_directed_squares(c)
    ts = analysis.tiling
    maps = maps_of(analysis)
    psi = psi_matrix(c, tiles)

    # four directed squares per geometric square, and the tiles the
    # analysis reads are the codes of their sides
    assert len(r) == len(tiles) == 4 * len(c.squares)
    assert square_codes(c, r) == tiles

    # reflection formulas: flip identities and group laws on every square
    for t in r:
        assert t.a_prime == sigma_act(t, "v").a
        assert t.b_prime == sigma_act(t, "h").b
        assert sigma_act(sigma_act(t, "v"), "h").labels() == sigma_act(t, "vh").labels()

    # transition entries re-derived from the defining conditions
    n = len(r)
    m1, m2 = ts.m1.entries, ts.m2.entries
    assert (m1, m2) == transition_entries_by_definition(c)

    # the rows cut from shared label lists are the per-pair builder's
    assert (ts.m1, ts.m2) == build_tiling_by_pairs(r, c)

    assert_column_sums(c, ts)

    assert_chain_maps_are_the_dense_builders(c, maps, psi)

    # chain complex and commuting square, exactly
    assert maps.d1.mul(maps.d2).is_zero()
    stacked = stacked_matrix(ts)
    assert stacked.mul(maps.phi2).entries == maps.phi1.mul(maps.d2).entries

    # the labels give the factors of S, as the built S checked against the
    # labels read off psi says, and S.phi2 read off them is the product
    assert matches_factors(stacked, *tile_labels(psi))
    assert stacked_phi2_from_factors(maps.phi2, (ts.b, ts.a)) == stacked.mul(maps.phi2)

    # injectivity of the comparison maps
    assert smith_normal_form(maps.phi2).rank == maps.phi2.cols
    assert smith_normal_form(maps.phi1).rank == maps.phi1.cols

    # the retraction is diagonal with positive entries
    assert_positive_diagonal(psi.mul(maps.phi1))

    # strong connectivity agrees with the reachability-closure oracle
    conn = analysis.connectivity
    assert conn.horizontal.strongly_connected == strongly_connected_by_closure(m1)
    assert conn.vertical.strongly_connected == strongly_connected_by_closure(m2)

    # connectivity read off the labels is the one of Tarjan over the built
    # matrices and of the Ref-indexed edge graphs
    assert conn == connectivity_by_refs(ts, c, r)

    # orientation halves every edge-graph component
    for comp in conn.gh_b_components + conn.gv_a_components:
        assert comp.edges == 2 * comp.oriented_edges

    # Smith invariants of the two central matrices: d is the dense
    # schedule's, whose transforms are checked there; and the elimination
    # of each against that schedule
    for matrix in (maps.d2, stacked):
        s = smith_normal_form(matrix)
        assert snf_diagonal(s, matrix.cols) == certified_snf_diagonal(matrix)
        assert_elimination_matches_dense_snf(matrix, random.Random(matrix.rows))
        factors = s.invariant_factors
        assert all(
            factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)
        )
        assert s.rank == rank_by_fraction_elimination(matrix.entries)

    # homology bookkeeping
    hom = analysis.homology
    cells = len(c.vertices) - (len(c.h_edges) + len(c.v_edges)) + len(c.squares)
    assert hom.euler_characteristic == cells
    assert cells == hom.h0.free_rank - hom.h1.free_rank + hom.h2_rank

    # H1 read off the Smith form of d2 is the cycle-basis route's, and H0
    # and rank d1 read off the component count are the Smith form's of d1
    assert hom.h1 == h1_by_cycle_basis(maps)
    assert_h0_is_the_smith_form_of_d1(c, hom, maps.d1)

    # the kernel lattice, certified or not, is the dense Smith form's
    h2_basis = kernel_basis(maps.d2)
    h = M(h2_basis, maps.d2.cols).transpose()
    certified = stacked_kernel_basis(
        ts, maps, h, commuting_square(c, ts, maps, h)
    ).transpose().entries
    dense = kernel_basis(stacked)
    assert hermite_row_basis(certified) == hermite_row_basis(dense)
    assert analysis.k0.kernel_rank == len(dense)

    # the kernel dimension counted from the factors of the stacked operator
    # equals n - rank_p of the whole operator and the dense kernel rank
    structured = structured_kernel_dim(ts)
    assert structured == stacked.cols - rank_mod_prime(stacked) == len(dense)

    # every verdict field equals the dense verifier's: on the analysis's
    # own kernel, on the dense Smith kernel, and on crafted inputs that
    # break the checks (a unit vector, phi2 of one square with some signs
    # of its orbit flipped, a 2-chain with nonzero boundary added to the H2
    # basis)
    verdict = analysis.theorem
    assert verdict == dense_verify(c, r, maps, stacked, certified, h2_basis)
    unit = tuple(int(i == 0) for i in range(n))
    orbits = [
        tuple(signs[i - n + 4] if i >= n - 4 else 0 for i in range(n))
        for signs in ((1, -1, -1, 1), (1, 1, -1, 1), (1, -1, 1, 1), (1, -1, -1, -1), (1, 1, 1, 1))
    ]
    chain = tuple(int(k == 0) for k in range(maps.d2.cols))
    crafted = [((unit,), h2_basis), (certified + (unit,), h2_basis)]
    crafted += [((lam,), h2_basis) for lam in orbits]
    crafted += [((lam, unit), h2_basis) for lam in orbits]
    for kernel, h2 in [(dense, h2_basis), (certified, h2_basis + (chain,)), ((), ())] + crafted:
        expected = dense_verify(c, r, maps, stacked, kernel, h2)
        k = M(kernel, n).transpose()
        h = M(h2, maps.d2.cols).transpose()
        square = commuting_square(c, ts, maps, h)
        assert verify_main_theorem(c, tiles, maps, k, h, square) == expected

    assert verdict.diagram_commutes
    assert verdict.phi2_image_in_kernel

    if verdict.within_hypotheses:
        assert_rank_identity(analysis)


def assert_column_sums(c, ts):
    """The column sums of m1 and m2 against the transverse degrees, and read
    off the label counts: column t sums to count[labels[t ^ flip]] - 1."""
    n = len(ts.b)
    origin, _ = ref_ends(c)
    sums1 = dense_column_sums(ts.m1.entries, n)
    sums2 = dense_column_sums(ts.m2.entries, n)
    for t_idx, t in enumerate(expand_by_sigma(c)):
        assert sums1[t_idx] == c.degrees[origin(t.b_prime)][0] - 1
        assert sums2[t_idx] == c.degrees[origin(t.a_prime)][1] - 1
    b_count, a_count = ts.label_counts
    assert sums1 == tuple(b_count[ts.b[t ^ 2]] - 1 for t in range(n))
    assert sums2 == tuple(a_count[ts.a[t ^ 1]] - 1 for t in range(n))


def assert_chain_maps_are_the_dense_builders(c, maps, psi):
    """The sparse chain maps equal the dense builder's, map by map."""
    for name, (rows, cols) in dense_chain_maps(c, expand_by_sigma(c)).items():
        built = psi if name == "psi" else getattr(maps, name)
        assert built == M(rows, cols), name


def assert_positive_diagonal(m):
    """m is square and diagonal, with positive diagonal entries."""
    assert m.rows == m.cols
    for i, pairs in enumerate(m.row_pairs):
        assert len(pairs) == 1 and pairs[0][0] == i and pairs[0][1] > 0


def assert_h0_is_the_smith_form_of_d1(c, hom, d1):
    """H0 and rank d1, which homology_report reads off the component count,
    are the cokernel and the rank of the dense Smith form of d1."""
    _, d, _ = dense_snf([list(row) for row in d1.entries])
    factors = [d[i][i] for i in range(min(d1.rows, d1.cols)) if d[i][i]]
    assert hom.h0 == AbelianInvariants(d1.rows - len(factors), tuple(x for x in factors if x > 1))
    assert len(c.vertices) - c.component_count == len(factors)


def assert_elimination_matches_dense_snf(a, rng):
    """kernel_and_image and solve_exact on the IntMatrix a, against the
    transforms of dense_snf and the Hermite lattice oracle.  Returns the
    outcomes of the solves, so a caller can see both kinds occur.

    - a.H = 0, and H has cols - rank columns;
    - the columns of H span the lattice of the last cols - rank columns
      of dense_snf's v (equal Hermite bases);
    - B^T has dense_snf's invariant factors, and image_and_smith_form(a),
      from the elimination without its I part, the column lattice of B^T
      and those factors;
    - solve_exact(a, b) is solvable exactly when lattice_membership puts
      b in the span of the columns of a, and then a.x = b.  The targets
      are a random integer combination of the columns, that plus a unit
      vector, and twice a random column plus one."""
    h, image = kernel_and_image(a)
    if a.rows and a.cols:
        _, d, v = dense_snf([list(row) for row in a.entries])
    else:
        d, v = a.entries, [[int(i == j) for j in range(a.cols)] for i in range(a.cols)]
    factors = tuple(d[i][i] for i in range(min(a.rows, a.cols)) if d[i][i])
    rank = len(factors)
    assert a.mul(h).is_zero()
    assert (h.rows, h.cols) == (a.cols, a.cols - rank)
    assert (image.rows, image.cols) == (a.rows, rank)
    tail = [[row[j] for row in v] for j in range(rank, a.cols)]
    assert hermite_row_basis(h.transpose().entries) == hermite_row_basis(tail)
    assert smith_normal_form(image).invariant_factors == factors

    # Without its I part the elimination keeps the column lattice and the
    # rank, and its kernel rows come back empty, one per dimension.
    block, s = image_and_smith_form(a)
    assert (block.rows, block.cols) == (a.rows, rank) == (a.rows, zlinalg_rank(a))
    assert hermite_row_basis(block.transpose().entries) == hermite_row_basis(
        image.transpose().entries
    )
    assert s.invariant_factors == factors
    kernel, _ = _kernels_py.unimodular_elimination(a.transpose().row_pairs, with_transform=False)
    assert kernel == [{}] * (a.cols - rank)

    columns = a.transpose().entries
    combo = [0] * a.rows
    for col in columns:
        k = rng.randint(-2, 2)
        combo = [x + k * y for x, y in zip(combo, col)]
    targets = [combo]
    if a.rows:
        unit = rng.randrange(a.rows)
        targets.append([x + (i == unit) for i, x in enumerate(combo)])
        if columns:
            col = rng.choice(columns)
            targets.append([2 * x + (i == unit) for i, x in enumerate(col)])
    outcomes = []
    for b in targets:
        x = solve_exact(a, M([b], a.rows).transpose())
        solvable = lattice_membership(b, columns)
        assert (x is not None) == solvable
        if x is not None:
            assert a.mul(x) == M([b], a.rows).transpose()
        outcomes.append(solvable)
    return outcomes


def assert_rank_identity(analysis):
    """The instance form of the rank identity, asserted via both lattice
    inclusions and the kernel-vector symmetries."""
    maps = maps_of(analysis)
    stacked = stacked_matrix(analysis.tiling)
    h2_basis = kernel_basis(maps.d2)
    stacked_basis = kernel_basis(stacked)
    verdict = analysis.theorem

    assert verdict.rank_ker_d2 == len(h2_basis)
    assert verdict.rank_ker_stacked == len(stacked_basis)
    assert verdict.ranks_equal
    assert verdict.kernel_symmetries_hold
    assert verdict.kernel_in_phi2_image
    assert verdict.mu_vanishes
    assert verdict.holds

    r = expand_by_sigma(analysis.complex)
    n = len(r)
    for lam in stacked_basis:
        for i in range(n):
            assert lam[i] == -lam[h_image_index(i)]
            assert lam[i] == -lam[v_image_index(i)]
            assert lam[i] == lam[vh_image_index(i)]
        for ref_slot in ("b_prime", "a_prime"):
            sums = {}
            for i, s in enumerate(r):
                key = getattr(s, ref_slot)
                sums[key] = sums.get(key, 0) + lam[i]
            assert all(total == 0 for total in sums.values())

    # the two kernel lattices coincide under phi2, both inclusions
    image = maps.phi2.mul(M(h2_basis, maps.phi2.cols).transpose()).transpose().entries
    for vec in image:
        assert lattice_membership(vec, stacked_basis)
    for lam in stacked_basis:
        assert lattice_membership(lam, image)
    assert hermite_row_basis(image) == hermite_row_basis(stacked_basis)


def retarget(analysis, slot, orbit_major=False):
    """The tiles of the analysis, as codes, with side slot ("b_prime" or
    "a_prime") of tile 0 moved to another directed edge of its axis.

    With orbit_major, the unprimed side of the tile that slot reads, b of
    tile 2 or a of tile 1, moves to that edge too: the tiles keep
    b'(t) = b(t ^ 2) and a'(t) = a(t ^ 1), so build_tiling takes them,
    but they are no longer the directed squares of the complex."""
    table = analysis.complex.edge_table
    tiles = list(table.tiles)
    i, j, flip = (3, 1, 2) if slot == "b_prime" else (2, 0, 1)
    axis = range(table.vertical, len(table.origin)) if i == 3 else range(table.vertical)
    old = tiles[0][i]
    new = next(x for x in axis if x != old)
    tiles[0] = tiles[0][:i] + (new,) + tiles[0][i + 1 :]
    if orbit_major:
        tiles[flip] = tiles[flip][:j] + (new,) + tiles[flip][j + 1 :]
    return tuple(tiles)


def assert_tampered_tiles_build_the_operator_once(monkeypatch, analysis, slot):
    """Retarget one side of a tile and its orbit-major partner: the labels
    of the tampered tiles give the factors of their S, as the built S
    checked against the labels read off psi says, but S is not the
    operator of the complex; S is built once, from the tampered tiles, for
    the square and the kernel both.
    Returns (tiles, chain maps, H2 basis, kernel, verdict, S)."""
    c = analysis.complex
    tiles = retarget(analysis, slot, orbit_major=True)
    maps = chain_maps(c, tiles)
    ts = build_tiling(tiles, c)
    stacked = stacked_matrix(ts)
    assert ts != analysis.tiling
    assert matches_factors(stacked, *tile_labels(psi_matrix(c, tiles)))

    original = tiling_system.stacked_matrix
    built = []

    def counted(tiling):
        built.append(tiling)
        return original(tiling)

    monkeypatch.setattr(tiling_system, "stacked_matrix", counted)
    h2_basis = kernel_basis(maps.d2)
    h = M(h2_basis, maps.d2.cols).transpose()
    square = commuting_square(c, ts, maps, h)
    kernel = stacked_kernel_basis(ts, maps, h, square)
    assert built == [ts]
    assert ts.stacked == stacked
    verdict = verify_main_theorem(c, tiles, maps, kernel, h, square)
    return tiles, maps, h2_basis, kernel, verdict, stacked
