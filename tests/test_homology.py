import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelat import cli, homology, tiling_system, zlinalg
from treelat.cli import analyze_document
from treelat.complex_model import expand_directed_squares, load_complex
from treelat.homology import (
    chain_maps,
    commuting_square,
    homology_report,
    stacked_kernel_basis,
    structured_kernel_dim,
    verify_main_theorem,
)
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import build_tiling, stacked_matrix
from treelat.zlinalg import (
    IntMatrix,
    hermite_row_basis,
    kernel_and_image,
    kernel_basis,
    smith_normal_form,
)

import _complexes
import _oracles
from _battery import (
    assert_chain_maps_are_the_dense_builders,
    assert_h0_is_the_smith_form_of_d1,
    assert_instance_properties,
    assert_positive_diagonal,
    assert_tampered_tiles_build_the_operator_once,
    maps_of,
)
from _oracles import (
    M,
    dense_verify,
    expand_by_sigma,
    factor_tiling,
    h1_by_cycle_basis,
    psi_matrix,
    rank_mod_prime,
    stacked_factors,
    stacked_phi2_from_factors,
    structured_kernel_dim_by_orbits,
    tile_squares,
)


def test_d1_composed_with_d2_vanishes(corpus):
    for name, analysis in corpus.items():
        assert maps_of(analysis).d1.mul(analysis.d2).is_zero(), name


def test_torus_classical_homology(torus):
    hom = torus.homology
    assert (hom.h0.free_rank, hom.h0.torsion) == (1, ())
    assert (hom.h1.free_rank, hom.h1.torsion) == (2, ())
    assert hom.h2_rank == 1
    assert hom.euler_characteristic == 0


def test_torus_d2_column_is_zero(torus):
    assert torus.d2.is_zero()


def test_klein_bottle_homology(klein):
    hom = klein.homology
    assert (hom.h0.free_rank, hom.h0.torsion) == (1, ())
    assert (hom.h1.free_rank, hom.h1.torsion) == (1, (2,))
    assert hom.h2_rank == 0
    assert hom.euler_characteristic == 0


def test_two_vertex_klein_bottle_homology():
    # Two vertices, so d1 is not zero and H1 is Z^E / im d2 less the
    # free rank of im d1; the cycle-basis route gives the same group.
    _, a = analyze_document(_complexes.two_vertex_klein_doc())
    assert not maps_of(a).d1.is_zero()
    hom = a.homology
    assert (hom.h0.free_rank, hom.h0.torsion) == (1, ())
    assert (hom.h1.free_rank, hom.h1.torsion) == (1, (2,))
    assert hom.h2_rank == 0
    assert hom.euler_characteristic == 0
    assert hom.h1 == h1_by_cycle_basis(maps_of(a))
    assert_instance_properties(a)


def test_f2xf2_homology(f2xf2):
    hom = f2xf2.homology
    assert (hom.h1.free_rank, hom.h1.torsion) == (4, ())
    assert hom.h2_rank == 4
    assert hom.euler_characteristic == 1


def test_mozes513_homology(mozes513):
    hom = mozes513.homology
    assert hom.euler_characteristic == 12  # (p-1)(l-1)/4 with one vertex
    assert hom.h2_rank == 11
    assert hom.h1.free_rank == 0  # finite abelianization
    assert (hom.h0.free_rank, hom.h0.torsion) == (1, ())


def test_mozes517_homology(mozes517):
    hom = mozes517.homology
    assert hom.euler_characteristic == 16
    assert hom.h2_rank == 15
    assert hom.h1.free_rank == 0


def test_one_vertex_d1_is_zero(mozes513):
    d1 = maps_of(mozes513).d1
    assert d1.is_zero()
    assert (d1.rows, d1.cols) == (1, 10)


@pytest.mark.parametrize(
    "doc",
    [
        _complexes.torus_doc(),
        _complexes.klein_doc(),
        _complexes.two_vertex_klein_doc(),
        _complexes.f2xf2_doc(),
        # an annulus, one edge times a vertical loop, whose first edge is a
        # bridge; then invalid but loadable: two components of loops only,
        # and two components, each a theta graph times a vertical loop,
        # where d1 is not zero
        _complexes.product_doc((2, [(0, 1)]), (1, [(0, 0)])),
        _complexes.two_torus_components_doc(),
        _complexes.product_doc((2, [(0, 1), (0, 1), (0, 1)]), (2, [(0, 0), (1, 1)])),
    ],
    ids=[
        "torus", "klein", "two_vertex_klein", "f2xf2", "annulus", "two_tori", "theta_x_two_loops"
    ],
)
def test_h0_and_rank_d1_are_those_of_the_smith_form_of_d1(doc):
    c = load_complex(doc)
    maps = chain_maps(c, c.edge_table.tiles)
    hom = homology_report(c, smith_normal_form(kernel_and_image(maps.d2)[1]))
    assert_h0_is_the_smith_form_of_d1(c, hom, maps.d1)
    assert hom.h1 == h1_by_cycle_basis(maps)


def test_euler_characteristic_consistency(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        hom = analysis.homology
        cells = len(c.vertices) - (len(c.h_edges) + len(c.v_edges)) + len(c.squares)
        assert hom.euler_characteristic == cells
        assert cells == hom.h0.free_rank - hom.h1.free_rank + hom.h2_rank


def test_diagram_commutes_exactly(corpus):
    for analysis in corpus.values():
        stacked = stacked_matrix(analysis.tiling)
        maps = maps_of(analysis)
        lhs = stacked.mul(maps.phi2)
        rhs = maps.phi1.mul(analysis.d2)
        assert lhs.entries == rhs.entries


def test_phi_maps_injective(corpus):
    for analysis in corpus.values():
        maps = maps_of(analysis)
        assert smith_normal_form(maps.phi2).rank == maps.phi2.cols
        assert smith_normal_form(maps.phi1).rank == maps.phi1.cols


def test_psi_phi1_diagonal_positive(corpus):
    for analysis in corpus.values():
        psi = psi_matrix(analysis.complex, analysis.complex.edge_table.tiles)
        assert_positive_diagonal(psi.mul(maps_of(analysis).phi1))


def test_psi_phi1_entries_are_twice_transverse_degrees(mozes513):
    # one-vertex (p+1, l+1)-regular complex: 2(l+1) on horizontal rows,
    # 2(p+1) on vertical rows
    c = mozes513.complex
    prod = psi_matrix(c, c.edge_table.tiles).mul(maps_of(mozes513).phi1).entries
    eidx = {e.id: i for i, e in enumerate(c.h_edges + c.v_edges)}
    for e in c.h_edges:
        assert prod[eidx[e.id]][eidx[e.id]] == 2 * (13 + 1)
    for e in c.v_edges:
        assert prod[eidx[e.id]][eidx[e.id]] == 2 * (5 + 1)


def test_verdict_on_mozes(mozes513, mozes517):
    for analysis in (mozes513, mozes517):
        verdict = analysis.theorem
        assert verdict.within_hypotheses
        assert verdict.holds
        assert verdict.rank_ker_d2 == verdict.rank_ker_stacked


def test_verdict_on_f2xf2(f2xf2):
    verdict = f2xf2.theorem
    assert verdict.within_hypotheses
    assert verdict.holds
    assert verdict.rank_ker_d2 == verdict.rank_ker_stacked == 4


def test_verdict_on_torus_outside_hypotheses(torus):
    verdict = torus.theorem
    assert not verdict.within_hypotheses
    assert verdict.diagram_commutes
    assert (verdict.rank_ker_d2, verdict.rank_ker_stacked) == (1, 4)
    assert not verdict.ranks_equal
    assert verdict.phi2_image_in_kernel
    assert not verdict.kernel_symmetries_hold
    assert not verdict.mu_vanishes
    assert not verdict.holds


def test_verifier_flags_each_failed_edge_sum(mozes513):
    # The verifier checks whatever kernel basis it is given, so a vector
    # e_s - e_t built for the purpose must fail the mu check exactly when
    # one of its two per-edge sums does not vanish.
    a = mozes513
    r = expand_by_sigma(a.complex)
    tiles = a.complex.edge_table.tiles
    n = len(r)
    stacked = stacked_matrix(a.tiling)
    h2_basis = kernel_basis(a.d2)
    h = M(h2_basis, a.d2.cols).transpose()
    maps = maps_of(a)

    def mu_vanishes(vectors):
        k = M(vectors, n).transpose()
        return verify_main_theorem(
            a.complex, tiles, maps, k, h, commuting_square(a.tiling, maps, h)
        ).mu_vanishes

    def difference(s, t):
        lam = [0] * n
        lam[s] += 1
        lam[t] -= 1
        return tuple(lam)

    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    same_b = next(
        (s, t) for s, t in pairs if r[s].b_prime == r[t].b_prime and r[s].a_prime != r[t].a_prime
    )
    same_a = next(
        (s, t) for s, t in pairs if r[s].a_prime == r[t].a_prime and r[s].b_prime != r[t].b_prime
    )
    assert mu_vanishes(())
    assert not mu_vanishes((difference(*same_b),))
    assert not mu_vanishes((difference(*same_a),))
    assert mu_vanishes(kernel_basis(stacked))


def test_verifier_rejects_a_unit_vector(mozes513):
    # e_0 is neither alternating under the reflections nor phi2 of its
    # orbit-representative coordinates, and its mu sums do not vanish.
    a = mozes513
    stacked = stacked_matrix(a.tiling)
    h2_basis = kernel_basis(a.d2)
    tiles = a.complex.edge_table.tiles
    unit = (tuple(int(i == 0) for i in range(len(tiles))),)
    k = M(unit, len(tiles)).transpose()
    h = M(h2_basis, a.d2.cols).transpose()
    maps = maps_of(a)
    verdict = verify_main_theorem(a.complex, tiles, maps, k, h, commuting_square(a.tiling, maps, h))
    assert not verdict.kernel_symmetries_hold
    assert not verdict.kernel_in_phi2_image
    assert not verdict.mu_vanishes
    r = expand_by_sigma(a.complex)
    assert verdict == dense_verify(a.complex, r, maps, stacked, unit, h2_basis)


def test_verifier_flags_a_tampered_operator(monkeypatch, mozes513):
    # Move a'(t) of tile 0, and with it a(t^v), to another horizontal edge:
    # the stacked operator of those tiles, built once, gains and loses
    # nonzeros in columns 0 and 1 of its M2 block, so S.phi2 no longer
    # equals phi1.d2 and the square no longer commutes.
    tiles, maps, h2_basis, kernel, verdict, stacked = (
        assert_tampered_tiles_build_the_operator_once(monkeypatch, mozes513, "a_prime")
    )
    assert not verdict.diagram_commutes
    vectors = kernel.transpose().entries
    r = tile_squares(mozes513.complex, tiles)
    assert verdict == dense_verify(mozes513.complex, r, maps, stacked, vectors, h2_basis)


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (5, 29), (13, 17), (17, 29)])
def test_factored_square_equals_the_product_on_the_ladder(p, l):
    c = load_complex(generate_mozes_complex(p, l))
    tiles = expand_directed_squares(c)
    maps = chain_maps(c, tiles)
    ts = build_tiling(tiles, c)
    stacked = stacked_matrix(ts)
    factors = (ts.b, ts.a)
    assert stacked_factors(stacked, psi_matrix(c, tiles)) is not None
    assert stacked_phi2_from_factors(maps.phi2, factors) == stacked.mul(maps.phi2)


def test_non_alternating_phi2_takes_the_product(monkeypatch, mozes513):
    # Negate one row of phi2: it no longer alternates under the
    # reflections, so check (1) builds S and forms the product S.phi2
    # instead of reading it off the factors of S, and the verdict is the
    # dense verifier's.
    a = mozes513
    stacked = stacked_matrix(a.tiling)
    ts = build_tiling(a.complex.edge_table.tiles, a.complex)
    factors = (ts.b, ts.a)
    chain = maps_of(a)
    rows = list(chain.phi2.row_pairs)
    rows[0] = tuple([(j, -x) for j, x in rows[0]])
    phi2 = IntMatrix(chain.phi2.rows, chain.phi2.cols, tuple(rows))
    maps = chain._replace(phi2=phi2)
    assert stacked_phi2_from_factors(chain.phi2, factors) is not None
    assert stacked_phi2_from_factors(phi2, factors) is None

    h2_basis = kernel_basis(a.d2)
    h = M(h2_basis, a.d2.cols).transpose()
    original = IntMatrix.mul
    left_factors = []

    def mul(self, other):
        left_factors.append(self)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "mul", mul)
    built = []
    original_stacked = tiling_system.stacked_matrix

    def stacked_matrix_counted(tiling):
        built.append(tiling)
        return original_stacked(tiling)

    monkeypatch.setattr(tiling_system, "stacked_matrix", stacked_matrix_counted)
    assert commuting_square(ts, maps_of(a), h) == (True, True)
    assert built == []
    square = commuting_square(ts, maps, h)
    assert built == [ts] and ts.stacked == stacked
    assert sum(x is ts.stacked for x in left_factors) == 1

    kernel = kernel_basis(stacked)
    k = M(kernel, stacked.cols).transpose()
    verdict = verify_main_theorem(a.complex, a.complex.edge_table.tiles, maps, k, h, square)
    assert not verdict.diagram_commutes
    r = expand_by_sigma(a.complex)
    assert verdict == dense_verify(a.complex, r, maps, stacked, kernel, h2_basis)


def test_stacked_kernel_certificate_steps(corpus):
    # Each step of the argument in stacked_kernel_basis, on every corpus
    # complex; the torus and the Klein bottle are the ones it does not
    # certify, and they take the elimination of S.
    for name, a in corpus.items():
        maps = maps_of(a)
        stacked = stacked_matrix(a.tiling)
        h2_basis = kernel_basis(maps.d2)
        cells = maps.phi2.cols
        image = maps.phi2.mul(M(h2_basis, cells).transpose())
        vectors = image.transpose().entries
        # phi2(H) lies in the kernel, and phi2 has an integer left inverse:
        # coordinate 4k of each orbit.
        assert stacked.mul(image).is_zero(), name
        assert tuple(tuple(lam[4 * k] for k in range(cells)) for lam in vectors) == h2_basis
        # phi2(ker d2) is saturated: unit invariant factors, full rank.
        factors = smith_normal_form(image).invariant_factors
        assert factors == (1,) * len(h2_basis), name
        # F_p rank bounds the kernel rank from above, phi2(H) from below.
        dense = kernel_basis(stacked)
        upper = stacked.cols - rank_mod_prime(stacked)
        assert upper >= len(dense) >= len(h2_basis), name
        certified = upper == len(h2_basis)
        assert certified == (name not in ("torus", "klein")), name
        h = M(h2_basis, cells).transpose()
        square = commuting_square(a.tiling, maps, h)
        basis = stacked_kernel_basis(a.tiling, maps, h, square).transpose().entries
        assert (basis == vectors) == certified, name
        assert hermite_row_basis(basis) == hermite_row_basis(dense), name


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (13, 17)])
def test_stacked_kernel_matches_dense_oracle_on_mozes(p, l):
    _, a = analyze_document(generate_mozes_complex(p, l))
    stacked = stacked_matrix(a.tiling)
    h = M(kernel_basis(a.d2), a.d2.cols).transpose()
    maps = maps_of(a)
    square = commuting_square(a.tiling, maps, h)
    certified = stacked_kernel_basis(a.tiling, maps, h, square).transpose().entries
    assert len(certified) == a.homology.h2_rank == (p - 1) * (l - 1) // 4 - 1
    assert hermite_row_basis(certified) == hermite_row_basis(kernel_basis(stacked))


def test_verifier_tests_phi2_image_against_the_operator(mozes513):
    # phi2 of a 2-chain with nonzero boundary is not a kernel vector
    # (stacked.phi2 = phi1.d2 and phi1 is injective), whatever basis of the
    # kernel the verifier is handed.
    a = mozes513
    stacked = stacked_matrix(a.tiling)
    kernel = kernel_basis(stacked)
    h2_basis = kernel_basis(a.d2)
    cells = a.d2.cols
    chain = tuple(int(k == 0) for k in range(cells))
    assert not a.d2.mul(M([chain], cells).transpose()).is_zero()

    k = M(kernel, stacked.cols).transpose()
    tiles = a.complex.edge_table.tiles
    maps = maps_of(a)

    def image_in_kernel(basis):
        h = M(basis, cells).transpose()
        return verify_main_theorem(
            a.complex, tiles, maps, k, h, commuting_square(a.tiling, maps, h)
        ).phi2_image_in_kernel

    assert image_in_kernel(h2_basis)
    assert image_in_kernel(())
    assert not image_in_kernel(h2_basis + (chain,))


def test_chain_maps_match_the_dense_builder_on_mozes513(mozes513_doc):
    c = load_complex(mozes513_doc)
    maps = chain_maps(c, c.edge_table.tiles)
    assert_chain_maps_are_the_dense_builders(c, maps, psi_matrix(c, c.edge_table.tiles))


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (13, 17)])
def test_structured_count_matches_rank_mod_p_and_dense_kernel(p, l):
    _, a = analyze_document(generate_mozes_complex(p, l))
    stacked = stacked_matrix(a.tiling)
    dim = structured_kernel_dim_by_orbits(a.tiling)
    psi = psi_matrix(a.complex, a.complex.edge_table.tiles)
    factors = factor_tiling(stacked_factors(stacked, psi))
    assert dim == structured_kernel_dim_by_orbits(factors) == structured_kernel_dim(a.tiling)
    assert dim == stacked.cols - rank_mod_prime(stacked) == len(kernel_basis(stacked))
    assert dim == (p - 1) * (l - 1) // 4 - 1


def test_structured_count_matches_rank_mod_p_at_17_29():
    _, a = analyze_document(generate_mozes_complex(17, 29))
    stacked = stacked_matrix(a.tiling)
    dim = structured_kernel_dim_by_orbits(a.tiling)
    psi = psi_matrix(a.complex, a.complex.edge_table.tiles)
    factors = factor_tiling(stacked_factors(stacked, psi))
    assert dim == structured_kernel_dim_by_orbits(factors) == structured_kernel_dim(a.tiling)
    assert dim == stacked.cols - rank_mod_prime(stacked)
    assert a.k0.kernel_rank == a.homology.h2_rank == 16 * 28 // 4 - 1


@pytest.mark.parametrize("doc", ["torus_doc", "klein_doc", "two_vertex_klein_doc"])
def test_structured_count_is_the_kernel_rank_off_the_certificate(doc):
    # The certificate fails on these, but the labels still give the factors
    # of S, so the count over Q runs, and it is the rank of the kernel.
    _, a = analyze_document(getattr(_complexes, doc)())
    stacked = stacked_matrix(a.tiling)
    dim = structured_kernel_dim_by_orbits(a.tiling)
    assert dim == structured_kernel_dim(a.tiling)
    assert dim == len(kernel_basis(stacked)) == stacked.cols - rank_mod_prime(stacked)
    assert dim > a.homology.h2_rank


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_h=st.integers(1, 3), n_v=st.integers(1, 3))
def test_structured_count_is_the_kernel_rank_on_random_one_vertex_complexes(seed, n_h, n_v):
    doc = _complexes.random_one_vertex_doc(random.Random(seed), n_h, n_v)
    _, a = analyze_document(doc)
    stacked = stacked_matrix(a.tiling)
    dim = structured_kernel_dim_by_orbits(a.tiling)
    assert dim == structured_kernel_dim(a.tiling)
    assert dim == len(kernel_basis(stacked)) == stacked.cols - rank_mod_prime(stacked)


def _certified(a):
    """(H2 basis, h, square, certified kernel) of an analysis, recomputed."""
    h2_basis = kernel_basis(a.d2)
    h = M(h2_basis, a.d2.cols).transpose()
    maps = maps_of(a)
    square = commuting_square(a.tiling, maps, h)
    return h2_basis, h, square, stacked_kernel_basis(a.tiling, maps, h, square)


def _count_builds(monkeypatch):
    built = []
    original = tiling_system.stacked_matrix

    def counted(tiling):
        built.append(tiling)
        return original(tiling)

    monkeypatch.setattr(tiling_system, "stacked_matrix", counted)
    return built


@pytest.mark.parametrize("p,l", [(5, 13), (13, 17)])
def test_certified_path_forms_no_product_over_the_tiles(monkeypatch, p, l):
    # The square is read one row per label and the theorem block is
    # certified: chain_maps is never called, so neither phi1 nor phi2
    # exists, and no product has a left factor with a row per tile: no
    # phi1.d2 nor phi1.(d2.H), no kernel phi2.H nor phi2.reps; S is never
    # built.
    doc = generate_mozes_complex(p, l)
    products = []
    original = IntMatrix.mul

    def mul(self, other):
        products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "mul", mul)
    maps = []
    monkeypatch.setattr(cli, "chain_maps", lambda *args: maps.append(args))
    built = _count_builds(monkeypatch)
    _, a = analyze_document(doc)
    assert a.theorem.holds and built == [] and maps == []
    n = len(a.tiling.b)
    assert not any(left.rows in (n, 2 * n) for left, _ in products)


def test_phi1_not_a_function_of_its_label_takes_the_product(monkeypatch, mozes513):
    # Give tile 0 the phi1 row of a tile with another label b(s): the rows
    # of label b(0) disagree, so the square builds S and forms both
    # products, and the verdict is the dense verifier's.
    a = mozes513
    ts = build_tiling(a.complex.edge_table.tiles, a.complex)
    chain = maps_of(a)
    rows = list(chain.phi1.row_pairs)
    other = next(s for s in range(len(ts.b)) if rows[s] != rows[0])
    rows[0] = rows[other]
    maps = chain._replace(phi1=IntMatrix(len(rows), chain.phi1.cols, tuple(rows)))
    h2_basis, h, _, kernel = _certified(a)
    built = _count_builds(monkeypatch)
    square = commuting_square(ts, maps, h)
    assert built == [ts]
    verdict = verify_main_theorem(a.complex, a.complex.edge_table.tiles, maps, kernel, h, square)
    assert not verdict.diagram_commutes
    stacked = stacked_matrix(a.tiling)
    vectors = kernel.transpose().entries
    r = expand_by_sigma(a.complex)
    assert verdict == dense_verify(a.complex, r, maps, stacked, vectors, h2_basis)


def test_phi1_of_the_wrong_labels_fails_at_label_resolution(monkeypatch, mozes513):
    # Swap the phi1 rows of two b labels on every tile that carries them:
    # each row still depends on its label alone, so the square stays at
    # label resolution, builds no S, and finds that it does not commute;
    # (3) is then read as L.H = 0.  Both agree with the dense verifier.
    a = mozes513
    ts = build_tiling(a.complex.edge_table.tiles, a.complex)
    n = len(ts.b)
    chain = maps_of(a)
    rows = list(chain.phi1.row_pairs)
    by_label = {x: rows[s] for s, x in enumerate(ts.b)}
    x, y = sorted(by_label)[:2]
    by_label[x], by_label[y] = by_label[y], by_label[x]
    rows[:n] = [by_label[b] for b in ts.b]
    maps = chain._replace(phi1=IntMatrix(len(rows), chain.phi1.cols, tuple(rows)))
    h2_basis, h, _, kernel = _certified(a)
    built = _count_builds(monkeypatch)
    square = commuting_square(ts, maps, h)
    assert built == [] and square == (False, True)
    verdict = verify_main_theorem(a.complex, a.complex.edge_table.tiles, maps, kernel, h, square)
    stacked = stacked_matrix(a.tiling)
    vectors = kernel.transpose().entries
    r = expand_by_sigma(a.complex)
    assert verdict == dense_verify(a.complex, r, maps, stacked, vectors, h2_basis)


def test_alternating_but_not_canonical_phi2_gets_the_dense_verdict(monkeypatch, mozes513):
    # 2.phi2 alternates, so the square stays at label resolution (and
    # fails: S.(2 phi2) = 2 phi1.d2); it is not the phi2 of chain_maps, so
    # (4b) forms phi2.reps = 2K != K, while (4a) still holds.
    a = mozes513
    ts = build_tiling(a.complex.edge_table.tiles, a.complex)
    chain = maps_of(a)
    phi2 = chain.phi2
    doubled = IntMatrix(
        phi2.rows, phi2.cols, tuple(tuple((j, 2 * x) for j, x in row) for row in phi2.row_pairs)
    )
    maps = chain._replace(phi2=doubled)
    h2_basis, h, _, kernel = _certified(a)
    built = _count_builds(monkeypatch)
    square = commuting_square(ts, maps, h)
    assert built == [] and square == (False, True)
    verdict = verify_main_theorem(a.complex, a.complex.edge_table.tiles, maps, kernel, h, square)
    assert verdict.kernel_symmetries_hold and not verdict.kernel_in_phi2_image
    stacked = stacked_matrix(a.tiling)
    vectors = kernel.transpose().entries
    r = expand_by_sigma(a.complex)
    assert verdict == dense_verify(a.complex, r, maps, stacked, vectors, h2_basis)


def test_tampered_kernel_flips_both_fourth_checks_together(mozes513):
    # With the phi2 of chain_maps, (4b) is read off (4a): a kernel changed
    # in one entry of any orbit offset fails both, a scaled kernel passes
    # both, and every verdict is the dense verifier's.
    a = mozes513
    h2_basis, h, square, kernel = _certified(a)
    stacked = stacked_matrix(a.tiling)
    vectors = kernel.transpose().entries
    n = len(a.complex.edge_table.tiles)
    cases = []
    for t in (0, 1, 2, 3, n - 1):
        lam = list(vectors[0])
        lam[t] += 1
        cases.append(((tuple(lam),) + vectors[1:], False))
    for scale in (2, -1):
        cases.append((tuple(tuple(scale * x for x in lam) for lam in vectors), True))
    maps = maps_of(a)
    for basis, holds in cases:
        k = M(basis, n).transpose()
        verdict = verify_main_theorem(a.complex, a.complex.edge_table.tiles, maps, k, h, square)
        assert verdict.kernel_symmetries_hold == verdict.kernel_in_phi2_image == holds
        r = expand_by_sigma(a.complex)
        assert verdict == dense_verify(a.complex, r, maps, stacked, basis, h2_basis)


def test_structured_count_ignores_labels_no_tile_carries(mozes513):
    # Spread the labels out (x -> 2x + 1): the labels in between carry no
    # tile and are unknowns in no row, so the count does not change.
    b, a = mozes513.tiling.b, mozes513.tiling.a
    spread = (tuple(2 * x + 1 for x in b), tuple(2 * x + 1 for x in a))
    for count in (structured_kernel_dim_by_orbits, structured_kernel_dim):
        assert count(factor_tiling(spread)) == count(factor_tiling((b, a))) == 11
        assert count(mozes513.tiling) == 11


def _pair_both_label_rows(rows):
    """Both rows of each pair replaced by their sum: two row operations
    that leave two equal rows, no longer one that keeps the rank."""
    for x in [x for x in rows if x & 1 and x ^ 1 in rows]:
        total = dict(rows[x])
        for j, v in rows[x ^ 1].items():
            total[j] = total.get(j, 0) + v
        rows[x], rows[x ^ 1] = total, dict(total)


@pytest.mark.parametrize("p,l", [(5, 13), (5, 17), (13, 17)])
def test_label_rows_are_paired_by_one_row_operation(monkeypatch, p, l):
    # Row x += row x ^ 1 for each odd label x keeps rank(C), so the count
    # is the dense one; on the Mozes complexes each pair sum is free of the
    # orbit columns, so only the even label rows reach them.  Replacing
    # both rows of a pair lowers the rank, and the count leaves the dense
    # oracle.
    _, a = analyze_document(generate_mozes_complex(p, l))
    stacked = stacked_matrix(a.tiling)
    dense = stacked.cols - rank_mod_prime(stacked)
    systems = []
    original = zlinalg.rank

    def spy(c):
        systems.append(c)
        return original(c)

    monkeypatch.setattr(zlinalg, "rank", spy)
    assert structured_kernel_dim_by_orbits(a.tiling) == dense == len(kernel_basis(stacked))
    (c,) = systems
    b, lab = a.tiling.b, a.tiling.a
    orbit0 = c.cols - len(b) // 4
    meets_orbits = sum(any(j >= orbit0 for j, _ in row) for row in c.row_pairs)
    assert meets_orbits == (len(set(b)) + len(set(lab))) // 2
    monkeypatch.setattr(_oracles, "pair_label_rows", _pair_both_label_rows)
    assert structured_kernel_dim_by_orbits(a.tiling) != dense
