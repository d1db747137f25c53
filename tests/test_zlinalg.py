import hashlib
import random

import pytest

from treelat.zlinalg import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    hermite_row_basis,
    image_and_smith_form,
    kernel_basis,
    lattice_membership,
    rank,
    smith_normal_form,
    solve_exact,
)

from treelat import _kernels_py
from treelat.cli import analyze_document
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import stacked_matrix

import _complexes
from _complexes import LADDER, random_batch_documents
from _battery import assert_elimination_matches_dense_snf, maps_of
from _oracles import (
    M,
    identity,
    certified_snf_diagonal,
    dense,
    dense_equal,
    dense_is_zero,
    dense_product,
    dense_transpose,
    det_by_fraction_elimination,
    determinant,
    MERSENNE_61,
    lattice_contains,
    rank_by_fraction_elimination,
    rank_mod_prime,
    snf_diagonal,
    sub,
)


def random_matrix(rng, max_dim=8, span=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return M([[rng.randint(-span, span) for _ in range(n)] for _ in range(m)], n)


def test_snf_identity():
    s = smith_normal_form(identity(4))
    assert s.invariant_factors == (1, 1, 1, 1)
    assert snf_diagonal(s, 4) == dense(identity(4))


def test_snf_zero_matrix():
    s = smith_normal_form(M([[0] * 5] * 3))
    assert s.invariant_factors == ()
    assert snf_diagonal(s, 5) == [[0] * 5] * 3


def test_snf_small_example():
    s = smith_normal_form(M([[2, 4], [6, 8]]))
    assert s.invariant_factors == (2, 4)


def test_snf_decomposition_properties_random():
    rng = random.Random(20240)
    for _ in range(250):
        a = random_matrix(rng)
        s = smith_normal_form(a)
        # d is the oracle's, entry for entry, and the oracle's u a v = d
        # exactly, with u and v unimodular by the Bareiss determinant
        d = certified_snf_diagonal(a)
        assert s.rows == a.rows
        assert snf_diagonal(s, a.cols) == d
        # canonical form: positive factors, divisibility chain, diagonal d
        factors = s.invariant_factors
        assert all(x > 0 for x in factors)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        for i in range(a.rows):
            for j in range(a.cols):
                if i != j:
                    assert d[i][j] == 0
        # rank against the rational-elimination oracle
        assert len(factors) == rank_by_fraction_elimination(a.entries)


def test_snf_deterministic():
    rng = random.Random(5)
    a = random_matrix(rng, max_dim=6)
    assert smith_normal_form(a) == smith_normal_form(a)


def test_kernel_rank_one():
    basis = kernel_basis(M([[1, 1], [1, 1]]))
    assert len(basis) == 1
    assert basis[0] in ((1, -1), (-1, 1))


def test_kernel_of_empty_map():
    assert kernel_basis(M([], 3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_kernel_vectors_annihilated_and_saturated():
    rng = random.Random(99)
    for _ in range(120):
        a = random_matrix(rng, max_dim=6, span=6)
        basis = kernel_basis(a)
        assert len(basis) == a.cols - smith_normal_form(a).rank
        for vec in basis:
            col = M([vec], a.cols).transpose()
            assert a.mul(col).is_zero()
        # saturation: random integer combinations stay inside, and any
        # integer kernel vector lies in the span of the basis
        if basis:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            combo = [
                sum(k * vec[i] for k, vec in zip(coeffs, basis))
                for i in range(a.cols)
            ]
            assert lattice_membership(combo, basis)


def test_cokernel_examples():
    assert cokernel_invariants(identity(3)) == AbelianInvariants(0, ())
    assert cokernel_invariants(M([[3]])) == AbelianInvariants(0, (3,))
    assert cokernel_invariants(M([[2, 0], [0, 0]])) == AbelianInvariants(1, (2,))


def test_membership_examples():
    assert lattice_membership((2, -2), [(1, -1)])
    assert not lattice_membership((1, 0), [(2, 0)])
    assert lattice_membership((0, 0), [])
    assert not lattice_membership((1, 0), [])
    with pytest.raises(ValueError):
        lattice_membership((1, 0), [(1, 0, 0)])


def test_membership_against_solver():
    rng = random.Random(4711)
    for _ in range(150):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        x = [rng.randint(-8, 8) for _ in range(n)]
        b = M(basis, n).transpose()
        via_solver = solve_exact(b, M([x], n).transpose()) is not None
        assert lattice_membership(x, basis) == via_solver


def test_hermite_canonical_shape():
    h = hermite_row_basis([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    pivots = []
    for row in h:
        j = next(i for i, x in enumerate(row) if x)
        assert row[j] > 0
        pivots.append(j)
        for prev in h[: h.index(row)]:
            assert 0 <= prev[j] < row[j]
    assert pivots == sorted(pivots)


def test_hermite_is_lattice_invariant():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        basis = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        h = hermite_row_basis(basis)
        # shuffling, negating, and adding multiples of other vectors does not
        # change the integer row span
        mangled = [list(row) for row in basis]
        rng.shuffle(mangled)
        if len(mangled) > 1:
            mangled[0] = [x + 2 * y for x, y in zip(mangled[0], mangled[1])]
        mangled[-1] = [-x for x in mangled[-1]]
        assert hermite_row_basis(mangled) == h
        assert hermite_row_basis(h) == h


def test_solve_exact():
    a = M([[2, 0], [0, 3]])
    b = M([[4], [9]])
    x = solve_exact(a, b)
    assert x is not None and a.mul(x).entries == b.entries
    assert solve_exact(a, M([[1], [1]])) is None


def test_determinant_against_oracle():
    rng = random.Random(271828)
    for _ in range(200):
        n = rng.randint(0, 6)
        a = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], n)
        assert determinant(a) == det_by_fraction_elimination(a.entries)


def sparse_random_matrix(rng, max_dim=9):
    """Random shape, density and entry range: from 0/+-1 and sparse, like
    the pipeline's maps, to dense with entries far from units."""
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    span = rng.choice((1, 2, 9, 40))
    density = rng.random()
    return M([
            [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ], n)


def test_kernel_follows_the_dense_schedule(mozes513):
    # Entry for entry, the dense finisher alone and the Smith form through
    # the elimination and the unit split.  Neither keeps a transform; the
    # oracle's, on the same input, satisfy u a v = d and are unimodular.
    rng = random.Random(1414)
    inputs = [sparse_random_matrix(rng) for _ in range(500)]
    inputs = [a for a in inputs if a.rows and a.cols]
    inputs += [stacked_matrix(mozes513.tiling), mozes513.d2]
    for a in inputs:
        d = certified_snf_diagonal(a)
        assert _kernels_py.smith_diagonal(dense(a)) == d
        assert snf_diagonal(smith_normal_form(a), a.cols) == d


def test_snf_divisibility_fold_with_zero_rows():
    # No unit entry: the pivot 2 does not divide 3, so rows are folded until
    # the pivots divide each other; the zero rows are never pivots.
    a = M([[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 0], [0, 0, 4]])
    s = smith_normal_form(a)
    assert s.invariant_factors == (1, 2, 12)
    assert snf_diagonal(s, a.cols) == certified_snf_diagonal(a)


def test_unit_pivot_splits_only_where_no_kept_row_touches_its_column():
    # The elimination takes the pivot -2 in column 0 first, then the unit
    # -1 in column 1, which the kept row (-2, -1) touches.  Split off all
    # the same, the unit would leave that row alone, whose Smith form is
    # (1), and the factors would read (1, 1); but det a = 2.
    a = M([[-2, 0], [-1, -1]])
    s = smith_normal_form(a)
    assert s.invariant_factors == (1, 2)
    assert snf_diagonal(s, a.cols) == certified_snf_diagonal(a)
    # The same pivots, read by image_and_smith_form, give the Smith form
    # of the image block.
    image, s = image_and_smith_form(a)
    assert s.invariant_factors == (1, 2)
    assert snf_diagonal(s, image.cols) == certified_snf_diagonal(image)


def test_smith_form_of_the_image_blocks_matches_the_oracle():
    # image_and_smith_form reads the Smith form of the image block B^T off
    # the pivot rows of the one elimination of d2^T, which are B's rows;
    # smith_normal_form eliminates B's rows again.  Both give the oracle's
    # diagonal, and the block's columns are the pivot rows of the
    # elimination of d2^T without its I part.
    batch = random_batch_documents(1)
    assert len(batch) == 128
    docs = [generate_mozes_complex(p, l) for p, l in LADDER] + batch
    docs += [
        _complexes.torus_doc(),
        _complexes.f2xf2_doc(),
        _complexes.klein_doc(),
        _complexes.two_vertex_klein_doc(),
    ]
    for doc in docs:
        _, a = analyze_document(doc)
        image, s = image_and_smith_form(a.d2)
        d2t = a.d2.transpose().row_pairs
        _, pivots = _kernels_py.unimodular_elimination(d2t, with_transform=False)
        columns = tuple(tuple(sorted(image_k.items())) for _, image_k, _ in pivots)
        assert image.rows == a.d2.rows and image.transpose().row_pairs == columns
        d = certified_snf_diagonal(image)
        cols = image.cols
        assert snf_diagonal(s, cols) == snf_diagonal(smith_normal_form(image), cols) == d


# sha256 of repr(unimodular_elimination(rows, with_transform)): the kernel
# rows and the pivots (column, image, transform), every dict in its
# insertion order.  A change of the pivot rule, or of the order in which
# rows are reduced and their entries set, changes the digest.
PINNED_ELIMINATIONS = {
    ("d2^T (13,17)", True): "64cea77f68976f9e5b587ac95be212c58cab6a31f3c193ff18d2c405e78d8a4a",
    ("d2^T (13,17)", False): "94e89c05ce9dd2bdeb7593df880bcfb3faca62e85e0534f2e8fab874a2048ff9",
    ("S^T torus", True): "2ecd2dfe16f597c7c94bd5924d03514a6a21a25edecb55d7726ab4f75d53fd57",
}


def test_elimination_output_is_pinned(torus):
    # Pivots, images, transforms and kernel rows, all in order: the pivot
    # rule and the order of the row operations decide each of them.
    _, a = analyze_document(generate_mozes_complex(13, 17))
    rows = {
        "d2^T (13,17)": a.d2.transpose().row_pairs,
        "S^T torus": stacked_matrix(torus.tiling).transpose().row_pairs,
    }
    for (name, with_transform), digest in PINNED_ELIMINATIONS.items():
        out = _kernels_py.unimodular_elimination(rows[name], with_transform)
        assert hashlib.sha256(repr(out).encode()).hexdigest() == digest, name


def test_image_blocks_with_only_unit_pivots_skip_the_dense_finisher(monkeypatch):
    # Where every pivot of the elimination of d2 is a unit, B is triangular
    # with unit diagonal on its pivot columns, and the split leaves the
    # dense finisher nothing to do: on 64 of the 128 documents of seed 1.
    # Every other one leaves it some rows.
    original = _kernels_py.smith_diagonal
    seen = []

    def spy(rows):
        seen.append(rows)
        return original(rows)

    monkeypatch.setattr(_kernels_py, "smith_diagonal", spy)
    split = kept = 0
    for doc in random_batch_documents(1):
        seen.clear()
        _, a = analyze_document(doc)
        (rows,) = seen
        _, pivots = _kernels_py.unimodular_elimination(
            a.d2.transpose().row_pairs, with_transform=False
        )
        if all(image[c] in (1, -1) for c, image, _ in pivots):
            assert rows == []
            split += 1
        else:
            kept += len(rows) > 0
    assert split == 64 and kept == 64


def test_elimination_matches_the_dense_schedule_on_random_matrices():
    # Every shape from 0 x n and m x 0 up, with zero rows and columns, 0/+-1
    # and sparse to dense with entries far from units.
    rng = random.Random(1931)
    inputs = [M([], n) for n in range(4)]
    inputs += [M([[]] * m, 0) for m in range(1, 4)]
    inputs += [sparse_random_matrix(rng) for _ in range(300)]
    for _ in range(250):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        inputs.append(M(random_with_zero_lines(rng, m, n), n))
    outcomes = set()
    for a in inputs:
        outcomes.update(assert_elimination_matches_dense_snf(a, rng))
    assert outcomes == {True, False}
    assert sum(a.rows == 0 or a.cols == 0 for a in inputs) >= 7


@pytest.mark.parametrize("p,l", LADDER)
def test_elimination_matches_the_dense_schedule_on_the_ladder(p, l):
    _, a = analyze_document(generate_mozes_complex(p, l))
    assert_elimination_matches_dense_snf(a.d2, random.Random(p * l))


@pytest.mark.parametrize("doc", ["torus_doc", "klein_doc", "two_vertex_klein_doc"])
def test_elimination_matches_the_dense_schedule_off_the_certificate(doc):
    # The complexes whose stacked kernel verify takes from the elimination
    # of S.
    _, a = analyze_document(getattr(_complexes, doc)())
    for matrix in (a.d2, maps_of(a).d1, a.tiling.stacked):
        assert_elimination_matches_dense_snf(matrix, random.Random(matrix.rows))


def test_lattice_contains_matches_membership():
    rng = random.Random(1729)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        vectors = []
        for _ in range(rng.randint(1, 4)):
            if basis and rng.random() < 0.6:
                coeffs = [rng.randint(-3, 3) for _ in basis]
                vectors.append([sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)])
            else:
                vectors.append([rng.randint(-6, 6) for _ in range(n)])
        expected = all(lattice_membership(x, basis) for x in vectors)
        assert lattice_contains(basis, vectors) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_lattice_contains_edge_cases():
    assert lattice_contains([(1, -1)], [])
    assert lattice_contains([], [(0, 0)])
    assert not lattice_contains([], [(1, 0)])
    assert not lattice_contains([(2, 0)], [(2, 0), (1, 0)])
    with pytest.raises(ValueError):
        lattice_contains([(1, 0, 0)], [(1, 0)])


def test_sparse_product_matches_dense_definition():
    rng = random.Random(314)
    for _ in range(200):
        a = sparse_random_matrix(rng, max_dim=6)
        cols = rng.randint(0, 6)
        b = M([[rng.choice((0, 0, 1, -1, 5)) for _ in range(cols)] for _ in range(a.cols)], cols)
        a_dense, b_dense = a.entries, b.entries
        expected = [
            [sum(a_dense[i][k] * b_dense[k][j] for k in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert a.mul(b) == M(expected, b.cols)


def test_product_shares_one_negated_row_per_source_row(mozes513):
    # Rows 4k + 1 and 4k + 2 of phi2 both weigh row k of H by -1: the
    # product holds one negated copy of that row for both, row 4k and
    # 4k + 3 are row k itself, and the product is the dense one.
    maps = maps_of(mozes513)
    h = M(kernel_basis(maps.d2), maps.d2.cols).transpose()
    rows = maps.phi2.mul(h).row_pairs
    for t in range(0, len(rows), 4):
        assert rows[t] is rows[t + 3] is h.row_pairs[t >> 2]
        assert rows[t + 1] is rows[t + 2]
    h_dense = h.entries
    expected = [
        [sum(x * h_dense[k][j] for k, x in enumerate(row)) for j in range(h.cols)]
        for row in maps.phi2.entries
    ]
    assert maps.phi2.mul(h) == M(expected, h.cols)


def test_rank_mod_prime_counts_invariant_factors_prime_to_p(mozes513):
    # The Smith form is a change of basis over Z, which stays invertible
    # mod p, so the rank over F_p is the number of invariant factors that p
    # does not divide.  Tiny primes divide some of them, and the rank drops.
    rng = random.Random(2305843)
    stacked = stacked_matrix(mozes513.tiling)
    dropped = 0
    for prime in (MERSENNE_61, 2, 3):
        inputs = [sparse_random_matrix(rng) for _ in range(300)]
        inputs += [random_matrix(rng) for _ in range(100)] + [stacked]
        for a in inputs:
            factors = smith_normal_form(a).invariant_factors
            expected = sum(1 for x in factors if x % prime)
            assert rank_mod_prime(a, prime) == expected
            dropped += expected < len(factors)
    assert dropped > 50
    assert rank_mod_prime(stacked, 2) == 67  # invariant factors 2 and 4 at (5,13)


def test_rank_mod_prime_edge_cases():
    assert rank_mod_prime(M([], 0)) == 0
    assert rank_mod_prime(M([[]] * 3, 0)) == 0
    assert rank_mod_prime(M([], 3)) == 0
    assert rank_mod_prime(M([[0] * 5] * 4)) == 0
    p = MERSENNE_61
    assert rank_mod_prime(M([[p, 2 * p], [-p, 0]])) == 0
    assert rank_mod_prime(M([[p + 1, 0], [0, 2]])) == 2
    assert rank_mod_prime(identity(7)) == 7


def scrambled_diagonal(rng, m, n, factors):
    """An m x n matrix with the given invariant-factor candidates on its
    diagonal, hidden by random unimodular row and column operations."""
    rows = [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)] for i in range(m)]
    for _ in range(2 * (m + n)):
        q = rng.choice((-2, -1, 1, 2))
        if m > 1 and rng.random() < 0.5:
            i, k = rng.sample(range(m), 2)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[k])]
        elif n > 1:
            j, k = rng.sample(range(n), 2)
            for row in rows:
                row[j] += q * row[k]
    return M(rows, n)


def test_rank_is_the_rank_over_the_rationals():
    # rank counts the pivots of the elimination of the rows of a.  It is
    # the rank over Q: invariant factors divisible by 2 and 3, which drop
    # the rank over F_2 and F_3, do not drop it.
    rng = random.Random(20261019)
    inputs = [M([], n) for n in range(4)] + [M([[]] * m, 0) for m in range(1, 4)]
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        inputs.append(M(random_with_zero_lines(rng, m, n), n))
    inputs += [sparse_random_matrix(rng) for _ in range(150)]
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        factors = [rng.choice((0, 1, 2, 3, 4, 6, 12)) for _ in range(min(m, n))]
        inputs.append(scrambled_diagonal(rng, m, n, factors))
    dropped = {2: 0, 3: 0}
    for a in inputs:
        expected = rank_by_fraction_elimination(a.entries)
        assert rank(a) == expected
        assert rank(a.transpose()) == expected
        for p in dropped:
            dropped[p] += rank_mod_prime(a, p) < expected
    assert len(inputs) >= 500
    assert min(dropped.values()) > 50


def random_with_zero_lines(rng, m, n):
    """Dense rows of an m x n matrix with some rows and columns all zero."""
    rows = [[rng.choice((0, 0, 0, 1, -1, 3, -40)) for _ in range(n)] for _ in range(m)]
    for i in rng.sample(range(m), rng.randint(0, m)):
        rows[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, n)):
        for row in rows:
            row[j] = 0
    return rows


def test_sparse_rows_match_the_dense_references():
    rng = random.Random(4242)
    shapes = [(0, 0), (0, 5), (5, 0), (0, 1), (1, 0)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(300)]
    for m, n in shapes:
        dense = random_with_zero_lines(rng, m, n)
        a = M(dense, n)
        # Canonical storage: the nonzeros of each row, sorted by column.
        for row, pairs in zip(dense, a.row_pairs):
            assert list(pairs) == [(j, x) for j, x in enumerate(row) if x]
        assert (a.rows, a.cols) == (m, n)
        assert a.entries == tuple(map(tuple, dense))
        t = a.transpose()
        assert (t.rows, t.cols) == (n, m)
        assert t.entries == tuple(map(tuple, dense_transpose(dense, n)))
        assert t.transpose() == a
        assert a.is_zero() == dense_is_zero(dense)
        k = rng.randint(0, 6)
        b_dense = random_with_zero_lines(rng, n, k)
        product = a.mul(M(b_dense, k))
        assert (product.rows, product.cols) == (m, k)
        assert product.entries == tuple(map(tuple, dense_product(dense, b_dense, k)))
        other = random_with_zero_lines(rng, m, n)
        diff = sub(a, M(other, n))
        expected = [tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(dense, other)]
        assert diff.entries == tuple(expected)


def test_equality_is_the_dense_equality():
    rng = random.Random(77)
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a_dense = random_with_zero_lines(rng, m, n)
        if rng.random() < 0.5:
            b_dense, b_cols = [list(row) for row in a_dense], n
            if m and n and rng.random() < 0.5:
                b_dense[rng.randrange(m)][rng.randrange(n)] += rng.choice((1, -1))
        else:
            b_cols = rng.randint(0, 4)
            b_dense = random_with_zero_lines(rng, rng.randint(0, 4), b_cols)
        a = M(a_dense, n)
        b = M(b_dense, b_cols)
        same = dense_equal(a_dense, n, b_dense, b_cols)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)
    assert M([], 3) != M([], 4)
    assert M([[]] * 3, 0) != M([[]] * 4, 0)
    eye = IntMatrix(3, 3, (((0, 1),), ((1, 1),), ((2, 1),)))
    assert hash(eye.entries) == hash(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
