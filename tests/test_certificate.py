"""analyze's certified theorem block against the explicit checks.

analyze reads the theorem block off check (1) at label resolution and the
count of the stacked kernel on the component unknowns
(homology.certified_theorem), with no basis of ker d2 or of ker S; verify
forms both bases and checks them (homology.verify_main_theorem).  Here the
count is held to the orbit-column count it replaced
(_oracles.structured_kernel_dim_by_orbits) and, on the certified route, to
the one rank of its whole system that the triangular rows replaced
(_oracles.structured_kernel_dim_by_one_rank), also on crafted orbit blocks;
and the theorem block of analyze to that of verify and of the dense
verifier, on the ladder, the small complexes, the presentation battery,
random one-vertex complexes and products, and tampered tiles, d2 and
chain maps.  Check (1) at label resolution has one implementation,
homology._label_square, which reads Phi and L off the tile labels and
which analyze's certificate and verify's square both call; its L, Phi and
verdict, and the label image analyze counts with, are held to those read
back out of the per-tile chain maps (_oracles.square_by_labels), on the
ladder, the small complexes, the presentation battery, random complexes
and products of two cycles.  verify reaches it only through an O(n) form
test of its own phi1 and phi2, and every tampered phi1 or phi2 takes the
dense square.
"""

import json
import random

import pytest

from treelat import cli, homology, tiling_system
from treelat.complex_model import load_complex, validate_vht
from treelat.homology import structured_kernel_dim
from treelat.mozes import generate_mozes_complex
from treelat.tiling_system import build_tiling, connectivity, k0_rank, stacked_matrix
from treelat.zlinalg import (
    IntMatrix,
    image_and_smith_form,
    kernel_and_image,
    kernel_basis,
    rank,
    smith_normal_form,
)

import _complexes
from _complexes import LADDER
from _battery import retarget
from _oracles import (
    dense_verify,
    factor_tiling,
    label_image_by_chain_maps,
    label_sums,
    square_by_labels,
    structured_kernel_dim_by_one_rank,
    structured_kernel_dim_by_orbits,
    tile_squares,
)
from test_presentation import FIXED, TRANSFORMS, document


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def small_documents() -> dict[str, str]:
    """The small complexes, both Klein bottles and the products of two
    cycles, where d2 has a left kernel, so the rows of the orbit block
    Phi.B^T that the count takes with check (1) have relations."""
    docs = {
        name: getattr(_complexes, f"{name}_doc")()
        for name in ("torus", "f2xf2", "klein", "two_vertex_klein")
    }
    docs["C3xC4"] = _complexes.product_doc(cycle(3), cycle(4))
    docs["C5xC5"] = _complexes.product_doc(cycle(5), cycle(5))
    return docs


def random_documents(seed: int) -> dict[str, str]:
    """One-vertex complexes with 2-5 edges per axis and products of two
    multigraphs of minimum degree 3, as the random batch draws them."""
    rng = random.Random(seed)
    docs = {}
    for n_h in range(2, 6):
        for n_v in range(2, 6):
            docs[f"ov{seed}-{n_h}x{n_v}"] = _complexes.random_one_vertex_doc(rng, n_h, n_v)
    for k in range(8):
        g1 = _complexes.random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        g2 = _complexes.random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        docs[f"pr{seed}-{k}"] = _complexes.product_doc(g1, g2)
    return docs


def presentation_documents() -> dict[str, str]:
    """The fixed documents of the presentation battery and their random
    families, each also under every change of presentation at once."""
    docs = {}
    keys = [*FIXED, *[(family, s) for family in ("one_vertex", "product") for s in range(4)]]
    for key in keys:
        text = document(key)
        doc = json.loads(text)
        rng = random.Random(7)
        for name in sorted(TRANSFORMS):
            TRANSFORMS[name](doc, rng)
        docs[str(key)] = text
        docs[f"{key} moved"] = json.dumps(doc)
    return docs


def corpus(group: str) -> dict[str, str]:
    if group == "ladder":
        return {f"{p},{l}": generate_mozes_complex(p, l) for p, l in LADDER}
    if group == "small":
        return small_documents()
    if group == "presentation":
        return presentation_documents()
    return random_documents(int(group[-1]))


GROUPS = ("ladder", "small", "presentation", "random1", "random2", "random3")


def valid(text):
    c = load_complex(text)
    v = validate_vht(c)
    return (c, v) if not v.errors else None


def spy_clearing(monkeypatch):
    """Record what every call of homology._clear_orbit_parts returns: (r,
    rest) when the triangular rows clear the orbit columns, else None."""
    original = homology._clear_orbit_parts
    seen = []

    def spy(rows, w0):
        seen.append(original(rows, w0))
        return seen[-1]

    monkeypatch.setattr(homology, "_clear_orbit_parts", spy)
    return seen


def label_image(c, ts, d2, image):
    """The label image that certified_theorem hands the count, the rows of
    Phi.B^T by label, or None where check (1) fails at label resolution."""
    commutes, _, phi = homology._label_square(ts, c.edge_table.vertical, d2)
    return homology._phi_image(phi, image) if commutes else None


def assert_counts_agree(c, ts, maps, cleared):
    """The count with either orbit block, L and, when check (1) holds,
    Phi.B^T, equals the orbit-column oracle; with Phi.B^T it also equals
    the one rank of its whole system, and the triangular rows clear its
    orbit columns, rank d2 of them.  L, Phi, check (1) and the label image,
    Phi.B^T, read off the labels of ts (homology._label_square), are those
    read back out of the chain maps of c on its tiles, the image None
    exactly where check (1) fails on them.  cleared is spy_clearing's
    record.  Returns the label image."""
    oracle = structured_kernel_dim_by_orbits(ts)
    assert structured_kernel_dim(ts) == oracle
    phi2 = maps.phi2.row_pairs
    assert homology._label_phi2(ts) == (label_sums(phi2, ts.b, 2), label_sums(phi2, ts.a, 1))
    commutes, l_rows, (phi_b, phi_a) = homology._label_square(ts, c.edge_table.vertical, maps.d2)
    reference = square_by_labels(ts, maps)
    assert reference[0] == commutes and reference[1].row_pairs == l_rows
    assert reference[2].row_pairs == (*phi_b.values(), *phi_a.values())
    assert reference[3] == (list(phi_b), list(phi_a))
    image = image_and_smith_form(maps.d2)[0]
    certified = label_image(c, ts, maps.d2, image)
    assert certified == label_image_by_chain_maps(ts, maps, image)
    if certified is not None:
        del cleared[:]
        assert structured_kernel_dim(ts, certified) == oracle
        assert structured_kernel_dim_by_one_rank(ts, certified) == oracle
        ((r, rest),) = cleared
        assert r == image.cols
        w0 = len(set(ts.components[0])) + len(set(ts.components[1]))
        assert all(j < w0 for row in rest for j, _ in row)
    return certified


@pytest.mark.parametrize("group", GROUPS)
def test_count_on_component_unknowns_matches_the_orbit_oracle(monkeypatch, group):
    cleared = spy_clearing(monkeypatch)
    certified = 0
    for name, text in corpus(group).items():
        loaded = valid(text)
        if loaded is None:
            continue
        c, _ = loaded
        tiles = c.edge_table.tiles
        ts = build_tiling(tiles, c)
        if assert_counts_agree(c, ts, homology.chain_maps(c, tiles), cleared) is not None:
            certified += 1
    assert certified > 0


@pytest.mark.parametrize("name", ["torus", "klein", "two_vertex_klein", "C3xC4", "C5xC5"])
def test_count_reads_the_left_kernel_of_d2(monkeypatch, name):
    # d2 has a left kernel here, so the label rows of the orbit block
    # Phi.B^T have relations beyond the pairs of the two directions of an
    # edge, and check (1) still holds: rank d2 < |E|.
    c, _ = valid(small_documents()[name])
    tiles = c.edge_table.tiles
    maps = homology.chain_maps(c, tiles)
    image = image_and_smith_form(maps.d2)[0]
    assert image.rows > image.cols
    cleared = spy_clearing(monkeypatch)
    assert assert_counts_agree(c, build_tiling(tiles, c), maps, cleared) is not None


def scaled(label_image, m):
    return tuple(
        {x: tuple((k, m * v) for k, v in row) for x, row in by_label.items()}
        for by_label in label_image
    )


@pytest.mark.parametrize("name", ["5,13", "13,17", "f2xf2", "C5xC5"])
def test_count_with_non_unit_diagonals(monkeypatch, name):
    # M = 2 Phi.B^T and -3 Phi.B^T keep rank_Q(C), and every triangular
    # row then has a non-unit diagonal: each reduction scales the row, and
    # the count stays that of Phi.B^T (rank H2 on the ladder, where the
    # certificate holds).
    ladder = corpus("ladder")
    c, _ = valid({**ladder, **small_documents()}[name])
    tiles = c.edge_table.tiles
    ts = build_tiling(tiles, c)
    maps = homology.chain_maps(c, tiles)
    image = image_and_smith_form(maps.d2)[0]
    certified = label_image(c, ts, maps.d2, image)
    cleared = spy_clearing(monkeypatch)
    count = structured_kernel_dim(ts, certified)
    if name in ladder:
        assert count == maps.d2.cols - image.cols
    for m in (2, -3):
        crafted = scaled(certified, m)
        assert structured_kernel_dim(ts, crafted) == count
        assert structured_kernel_dim_by_one_rank(ts, crafted) == count
    assert [r for r, _ in cleared] == [image.cols] * 3


def crafted_image(rng, ts, first, width):
    """A label image for the labels of ts with random rows: the i-th label
    of an axis gets a row ending at the i-th orbit column of first, ...,
    width - 1, round and round, with a diagonal of 1, -1, 2 or -3, and
    random entries before it.  With first > 0 no row ends at column 0;
    with a small width most rows are reduced, and what is left of them
    decides the count."""
    ends = range(first, width) or range(width)
    image = []
    for labels in (ts.b, ts.a):
        rows = {}
        for i, x in enumerate(sorted(set(labels))):
            k = ends[i % len(ends)]
            row = [(j, rng.randint(-2, 2)) for j in range(k)]
            row.append((k, rng.choice((1, -1, 2, -3))))
            rows[x] = tuple((j, v) for j, v in row if v)
        image.append(rows)
    return tuple(image)


def test_count_on_crafted_orbit_blocks(monkeypatch):
    # Random labels, among them labels whose reversal is no label, with
    # random orbit blocks: unknowns - rank(C) is one number however the
    # rank is taken, so the count is the one-rank oracle's on every block.
    # The triangular rows clear some blocks; where a reduced row reaches
    # an orbit column that no row ends at, the count takes the one rank.
    rng = random.Random(11)
    cleared = spy_clearing(monkeypatch)
    lonely = 0
    for _ in range(300):
        n = 4 * rng.randint(1, 4)
        labels = [tuple(rng.randrange(7) for _ in range(n)) for _ in range(2)]
        ts = factor_tiling(labels)
        lonely += any(x ^ 1 not in ts.b for x in ts.b)
        crafted = crafted_image(rng, ts, rng.randint(0, 1), rng.randint(1, n // 4))
        assert structured_kernel_dim(ts, crafted) == structured_kernel_dim_by_one_rank(ts, crafted)
    assert lonely > 0
    assert None in cleared
    assert sum(x is not None and x[0] > 1 for x in cleared) > 50


def test_clearing_keeps_the_rank_of_random_systems():
    # r + rank(rest) is the rank of the rows, on small random systems of a
    # few component columns and a few orbit columns, where one row left
    # unreduced, or reduced by a pick that does not end at its column,
    # shows in the rank.
    rng = random.Random(5)
    cleared = 0
    for _ in range(400):
        w0, width = rng.randint(1, 3), rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = [(j, rng.choice((0, 0, 1, -1, 2))) for j in range(w0 + width)]
            rows.append(tuple((j, v) for j, v in row if v))
        rows = list(dict.fromkeys(rows))
        result = homology._clear_orbit_parts(rows, w0)
        if result is None:
            continue
        r, rest = result
        assert all(j < w0 for row in rest for j, _ in row)
        expected = rank(IntMatrix(len(rows), w0 + width, tuple(rows)))
        assert r + rank(IntMatrix(len(rest), w0, tuple(rest))) == expected, rows
        cleared += 1
    assert cleared > 100


def test_count_of_an_empty_tiling(monkeypatch):
    cleared = spy_clearing(monkeypatch)
    ts = factor_tiling(((), ()))
    assert structured_kernel_dim(ts, ({}, {})) == 0 == structured_kernel_dim(ts)
    assert structured_kernel_dim_by_one_rank(ts, ({}, {})) == 0
    assert cleared == [(0, [])]


@pytest.mark.parametrize("slot", ["b_prime", "a_prime"])
def test_count_on_tampered_tiles_takes_the_orbit_block(mozes513, slot):
    # Check (1) fails on the tampered tiles, so there is no label image and
    # the count keeps the orbit block; it is still the kernel rank of S.
    c = mozes513.complex
    tiles = retarget(mozes513, slot, orbit_major=True)
    ts = build_tiling(tiles, c)
    maps = homology.chain_maps(c, tiles)
    image = image_and_smith_form(maps.d2)[0]
    assert label_image(c, ts, maps.d2, image) is None
    assert assert_counts_agree(c, ts, maps, []) is None
    assert structured_kernel_dim(ts) == len(kernel_basis(stacked_matrix(ts)))


def dense_theorem(c, tiles, maps):
    stacked = stacked_matrix(build_tiling(tiles, c))
    verdict = dense_verify(
        c, tile_squares(c, tiles), maps, stacked, kernel_basis(stacked), kernel_basis(maps.d2)
    )
    return cli._theorem_dict(verdict)


@pytest.mark.parametrize("group", GROUPS)
def test_analyze_theorem_block_is_verify_and_dense_verify(runner, tmp_path, group):
    for name, text in corpus(group).items():
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, analyzed, _ = runner("analyze", str(path), "--json")
        verify_code, verified, _ = runner("verify", str(path), "--json")
        assert code == verify_code, name
        if code != 0:
            continue
        theorem = json.loads(analyzed)["theorem"]
        assert theorem == json.loads(verified)["theorem"], name
        c, _ = valid(text)
        tiles = c.edge_table.tiles
        assert theorem == dense_theorem(c, tiles, homology.chain_maps(c, tiles)), name


def cycle_products() -> dict[str, str]:
    """The products Cm x Ck of two cycles, m <= 12 and k <= 5."""
    return {
        f"C{m}xC{k}": _complexes.product_doc(cycle(m), cycle(k))
        for m in range(1, 13)
        for k in range(1, 6)
    }


# The valid documents of each group whose verdict holds: every one of the
# ladder and the random batch, the F2 x F2 of the small complexes, 22 of
# the 28 valid presentation documents, and no product of two cycles.
HOLDS = {
    "ladder": 6,
    "small": 1,
    "presentation": 22,
    "random1": 24,
    "random2": 24,
    "random3": 24,
    "cycles": 0,
}


@pytest.mark.parametrize("group", [*GROUPS, "cycles"])
def test_label_resolution_verdict_is_the_explicit_verdict(group):
    # The differential oracle of analyze's one route: Phi and L read off
    # the labels give the label image that the per-tile chain maps give,
    # and the verdict read off the labels, d2 and ranks is the one of the
    # explicit checks on chain_maps, on every document, whether it holds
    # or not.
    docs = cycle_products() if group == "cycles" else corpus(group)
    holds = 0
    for name, text in docs.items():
        loaded = valid(text)
        if loaded is None:
            continue
        c, v = loaded
        tiles = c.edge_table.tiles
        ts = build_tiling(tiles, c)
        d2 = homology.boundary_d2(c)
        maps = homology.chain_maps(c, tiles)
        assert maps.d2 == d2, name
        image = image_and_smith_form(d2)[0]
        certified = label_image(c, ts, d2, image)
        assert certified == label_image_by_chain_maps(ts, maps, image), name
        explicit = cli._explicit_theorem(c, tiles, ts, maps)
        theorem = homology.certified_theorem(c, ts, d2, image)
        assert theorem == explicit, name
        assert cli._analyze(c, v).theorem == explicit, name
        holds += explicit.holds
    assert holds == HOLDS[group]


def negated(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.rows, m.cols, tuple(tuple((j, -x) for j, x in row) for row in m.row_pairs))


def bumped(m: IntMatrix) -> IntMatrix:
    """m with 1 added to entry (0, 0)."""
    rows = list(m.row_pairs)
    entry = dict(rows[0])
    entry[0] = entry.get(0, 0) + 1
    rows[0] = tuple(sorted((j, x) for j, x in entry.items() if x))
    return IntMatrix(m.rows, m.cols, tuple(rows))


def tampered_maps(maps):
    """Chain maps changed one way each: phi1 not a function of the label,
    phi2 not alternating, phi2 negated, 1 added to entry (0, 0) of d2, and
    phi1 with d2 both negated, which keeps check (1)."""
    phi1 = list(maps.phi1.row_pairs)
    phi1[0] = next(row for row in phi1 if row != phi1[0])
    phi2 = list(maps.phi2.row_pairs)
    phi2[1] = phi2[0]

    def with_rows(m, rows):
        return IntMatrix(m.rows, m.cols, tuple(rows))

    return {
        "phi1_row": maps._replace(phi1=with_rows(maps.phi1, phi1)),
        "phi2_row": maps._replace(phi2=with_rows(maps.phi2, phi2)),
        "phi2_negated": maps._replace(phi2=negated(maps.phi2)),
        "d2_entry": maps._replace(d2=bumped(maps.d2)),
        "phi1_d2_negated": maps._replace(phi1=negated(maps.phi1), d2=negated(maps.d2)),
    }


TAMPERED_DOCS = {
    "mozes513": lambda: generate_mozes_complex(5, 13),
    "f2xf2": _complexes.f2xf2_doc,
    "klein": _complexes.klein_doc,
}


def tampered_inputs(c):
    """The tiles and the d2 that analyze reads, (tiles, d2), changed one
    way each: 1 added to entry (0, 0) of d2; d2 negated; every label of
    every tile reversed; and both, which keeps check (1) at label
    resolution, since the phi1 row of a reversed label is minus that of the
    label, so (L with its rows permuted by the reversal) = Phi.(-d2)."""
    tiles = c.edge_table.tiles
    d2 = homology.boundary_d2(c)
    reversed_tiles = tuple(tuple(code ^ 1 for code in tile) for tile in tiles)
    return {
        "d2_entry": (tiles, bumped(d2)),
        "d2_negated": (tiles, negated(d2)),
        "labels_reversed": (reversed_tiles, d2),
        "labels_reversed_d2_negated": (reversed_tiles, negated(d2)),
    }


@pytest.mark.parametrize("doc", sorted(TAMPERED_DOCS))
def test_tampered_maps_give_analyze_the_verdict_of_verify(monkeypatch, doc):
    # analyze reads phi1 and phi2 off the tile labels, so its inputs are
    # tampered instead: the tiles and d2 it reads, through the names it
    # calls.  Its verdict, homology and K-ranks are those of the explicit
    # checks on the chain maps of those tiles with that d2, and of the
    # dense verifier, whether check (1) holds on them or not.
    c, v = valid(TAMPERED_DOCS[doc]())
    commutes = []
    for name, (tiles, d2) in tampered_inputs(c).items():
        monkeypatch.setattr(cli, "expand_directed_squares", lambda c, tiles=tiles: tiles)
        # chain_maps, on the explicit path, reads d2 through homology
        for module in (cli, homology):
            monkeypatch.setattr(module, "boundary_d2", lambda c, d2=d2: d2)
        analyzed = cli._analyze(c, v)
        ts = build_tiling(tiles, c)
        maps = homology.chain_maps(c, tiles)
        assert maps.d2 is d2
        verified = cli._explicit_theorem(c, tiles, ts, maps)
        assert analyzed.theorem == verified, name
        assert cli._theorem_dict(analyzed.theorem) == dense_theorem(c, tiles, maps), name
        # The homology and K-ranks of an analysis from the explicit
        # elimination of d2 and the Smith form of its own image block.
        smith = smith_normal_form(kernel_and_image(d2)[1])
        assert analyzed.homology == homology.homology_report(c, smith), name
        assert analyzed.k0 == k0_rank(ts, connectivity(ts, c), verified.rank_ker_stacked), name
        if analyzed.theorem.diagram_commutes:
            commutes.append(name)
    # Check (1) holds only on the changes that keep it, on the Klein bottle
    # too, where the count fails all the same.  d2 = 0 on F2 x F2, so
    # negating it changes nothing, and L = Phi.d2 = 0 there holds with the
    # labels reversed too.
    assert commutes == {
        "mozes513": ["labels_reversed_d2_negated"],
        "f2xf2": ["d2_negated", "labels_reversed", "labels_reversed_d2_negated"],
        "klein": ["labels_reversed_d2_negated"],
    }[doc]


def spy_dense_squares(monkeypatch):
    """Record the right factor of every product S.X formed, S a stacked
    operator built through tiling_system.stacked_matrix: commuting_square
    forms S.phi2 only on its dense square, and nothing else multiplies by
    S."""
    built, products = [], []
    original_stacked, original_mul = tiling_system.stacked_matrix, IntMatrix.mul

    def stacked(ts):
        built.append(original_stacked(ts))
        return built[-1]

    def mul(self, other):
        if any(self is s for s in built):
            products.append(other)
        return original_mul(self, other)

    monkeypatch.setattr(tiling_system, "stacked_matrix", stacked)
    monkeypatch.setattr(IntMatrix, "mul", mul)
    return products


@pytest.mark.parametrize("doc", sorted(TAMPERED_DOCS))
def test_tampered_chain_maps_give_verify_the_dense_verdict(monkeypatch, runner, tmp_path, doc):
    # Chain maps changed one way each reach verify through chain_maps, and
    # its verdict is the dense verifier's.  analyze never calls
    # chain_maps, so it keeps the verdict of the untampered maps, whether
    # that holds or not.
    dense = spy_dense_squares(monkeypatch)
    text = TAMPERED_DOCS[doc]()
    path = tmp_path / "doc.json"
    path.write_text(text)
    c, v = valid(text)
    tiles = c.edge_table.tiles
    ts = build_tiling(tiles, c)
    d2 = homology.boundary_d2(c)
    theorem = homology.certified_theorem(c, ts, d2, image_and_smith_form(d2)[0])
    assert theorem == cli._explicit_theorem(c, tiles, ts, homology.chain_maps(c, tiles))
    assert theorem.holds == (doc != "klein")
    assert dense == []
    went_dense = []
    for name, maps in tampered_maps(homology.chain_maps(c, tiles)).items():
        calls = []
        monkeypatch.setattr(cli, "chain_maps", lambda c, tiles, maps=maps: calls.append(1) or maps)
        code, out, err = runner("verify", str(path), "--json")
        assert code == 0, err
        if dense:
            assert dense == [maps.phi2], name
            went_dense.append(name)
            del dense[:]
        assert json.loads(out)["theorem"] == dense_theorem(c, tiles, maps), name
        assert calls == [1], name
        del calls[:]
        analyzed = cli._analyze(c, v)
        assert analyzed.theorem == theorem and calls == [], name
    # The form test sends every change of phi1 or phi2 to the dense square;
    # a changed d2, like the untampered maps above, stays at label
    # resolution.
    assert went_dense == ["phi1_row", "phi2_row", "phi2_negated", "phi1_d2_negated"]


@pytest.mark.parametrize("slot", ["b_prime", "a_prime"])
@pytest.mark.parametrize("orbit_major", [True, False])
def test_tampered_tiles_give_analyze_the_verdict_of_verify(mozes513, slot, orbit_major):
    c, v = valid(generate_mozes_complex(5, 13))
    tiles = retarget(mozes513, slot, orbit_major=orbit_major)
    c.edge_table.tiles = tiles
    maps = homology.chain_maps(c, tiles)
    if not orbit_major:
        # build_tiling refuses tiles that are not orbit-major, on both paths
        with pytest.raises(ValueError):
            cli._analyze(c, v)
        with pytest.raises(ValueError):
            cli._explicit_theorem(c, tiles, build_tiling(tiles, c), maps)
        return
    analyzed = cli._analyze(c, v)
    assert analyzed.theorem == cli._explicit_theorem(c, tiles, build_tiling(tiles, c), maps)
    assert cli._theorem_dict(analyzed.theorem) == dense_theorem(c, tiles, maps)
    assert not analyzed.theorem.diagram_commutes
