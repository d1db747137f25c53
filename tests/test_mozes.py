import hashlib
import json

import pytest

from treelat import mozes
from treelat.complex_model import load_complex, orbit_codes, validate_vht
from treelat.mozes import (
    GeneratorSet,
    MozesParameterError,
    Quaternion,
    RelationSolveError,
    build_mozes_complex,
    generate_mozes_complex,
    norm_quaternions,
)

from _oracles import sigma_act, solve_relation_by_search, square_refs


def q(a0, a1, a2, a3):
    return Quaternion(a0, a1, a2, a3)


def solve_by_table(x, y, ql, qp):
    """(y~, x~, sign) with x*y = sign * y~ * x~, from the relation table."""
    coords = mozes._coords
    table = mozes._relation_table(list(map(coords, ql.quats)), list(map(coords, qp.quats)))
    j, i, sign = mozes._solve_pair(table, coords(x), coords(y))
    return ql.quats[j], qp.quats[i], sign


def test_quaternion_arithmetic():
    x = q(1, 2, 0, 0)
    y = q(3, 0, 2, 0)
    assert x * y == q(3, 6, 2, 4)
    assert x.conjugate() == q(1, -2, 0, 0)
    assert (x * y).norm() == x.norm() * y.norm() == 65
    assert -x == q(-1, -2, 0, 0)


def test_norm_quaternions_p5():
    gens = norm_quaternions(5)
    assert gens.prime == 5
    assert gens.quats == (
        q(1, -2, 0, 0),
        q(1, 0, -2, 0),
        q(1, 0, 0, -2),
        q(1, 0, 0, 2),
        q(1, 0, 2, 0),
        q(1, 2, 0, 0),
    )


def test_norm_quaternions_p13():
    gens = norm_quaternions(13)
    assert len(gens.quats) == 14
    assert q(3, 2, 0, 0) in gens.quats and q(3, -2, 0, 0) in gens.quats
    assert q(1, 2, 2, 2) in gens.quats and q(1, -2, -2, -2) in gens.quats


def test_norm_quaternions_counts():
    for p in (5, 13, 17, 29, 37):
        gens = norm_quaternions(p)
        assert len(gens.quats) == p + 1
        for x in gens.quats:
            assert x.norm() == p
            assert x.a0 > 0 and x.a0 % 2 == 1
            assert x.a1 % 2 == x.a2 % 2 == x.a3 % 2 == 0
            assert x.conjugate() in gens.quats
            assert x.conjugate() != x


def test_norm_quaternions_rejections():
    with pytest.raises(MozesParameterError, match="not congruent"):
        norm_quaternions(3)
    with pytest.raises(MozesParameterError, match="not congruent"):
        norm_quaternions(7)
    with pytest.raises(MozesParameterError, match="not prime"):
        norm_quaternions(9)
    with pytest.raises(MozesParameterError, match="not prime"):
        norm_quaternions(1)


def test_solve_relation_commuting_pair():
    q5, q13 = norm_quaternions(5), norm_quaternions(13)
    yt, xt, sign = solve_by_table(q(1, 2, 0, 0), q(3, 2, 0, 0), q13, q5)
    assert (yt, xt, sign) == (q(3, 2, 0, 0), q(1, 2, 0, 0), 1)


def test_solve_relation_noncommuting_pair():
    q5, q13 = norm_quaternions(5), norm_quaternions(13)
    yt, xt, sign = solve_by_table(q(1, 2, 0, 0), q(3, 0, 2, 0), q13, q5)
    assert (yt, xt, sign) == (q(1, -2, 2, -2), q(1, 0, 0, -2), -1)
    assert q(1, 2, 0, 0) * q(3, 0, 2, 0) == -(yt * xt)


def test_solve_relation_unique_for_all_pairs():
    for p, l in ((5, 13), (5, 17), (13, 17), (13, 5)):
        qp, ql = norm_quaternions(p), norm_quaternions(l)
        for x in qp.quats:
            for y in ql.quats:
                yt, xt, sign = solve_by_table(x, y, ql, qp)
                assert (yt, xt, sign) == solve_relation_by_search(x, y, ql, qp), (p, l, x, y)
                assert x * y == (yt * xt if sign == 1 else -(yt * xt))


def test_solve_relation_rejects_bad_input():
    q5, q13 = norm_quaternions(5), norm_quaternions(13)

    with pytest.raises(RelationSolveError, match="0 solutions"):
        solve_by_table(q(1, 0, 0, 0), q(3, 2, 0, 0), q13, q5)
    # a repeated generator gives the pairs it solves two solutions
    x = q5.quats[0]
    y = next(y for y in q13.quats if solve_by_table(x, y, q13, q5)[1] == x)
    doubled = GeneratorSet(prime=5, quats=q5.quats + (x,))
    for solve in (solve_by_table, solve_relation_by_search):
        with pytest.raises(RelationSolveError, match="2 solutions"):
            solve(x, y, q13, doubled)


def test_generation_multiplies_each_pair_twice(monkeypatch):
    # one product table of (p+1)(l+1) entries plus one x*y per pair; a
    # search per pair would make (p+1)(l+1) products for every pair.  The
    # generator multiplies int 4-tuples, with the one product _product.
    calls = 0
    product = mozes._product

    def counting_product(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    monkeypatch.setattr(mozes, "_product", counting_product)
    build_mozes_complex(5, 13)
    assert 0 < calls <= 2 * (5 + 1) * (13 + 1)


# sha256 of the generated documents, as the per-pair search produced them
GENERATED_SHA256 = {
    (5, 13): "969c757dca13c16907daf5d16cbffec96456b58d1c92757e3d270978d36d6ab5",
    (13, 17): "ea660ac88044ef86516c23ce9cc9418ffbc1d1b7f9c6786eb08878b7f1f2c823",
    (17, 29): "7663916f8bb4812b9958af76f55630e3e58dd3fe6277c17099a51c0c94820424",
    (29, 37): "b29ce497581e470f6095d3ef4d0a8268ad178db3b6f73122b29dd4acffba0d80",
    (5, 17): "72082618c08cfbc7256fd7f3f7b61b4f997c4c48284f9ee4586acf5b6dfc40f4",
    (5, 29): "76c0d8e9409ced4fd1bf09d2052eff81cd10906a2f2f24463967b6cd0f8cce4f",
    (89, 97): "05b2e897f8a298fa2f09ddbb531b8d093666c9153b3c61390ce1bc42ab714f25",
}


def test_generated_documents_match_pinned_digests():
    for (p, l), digest in GENERATED_SHA256.items():
        doc = generate_mozes_complex(p, l)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, (p, l)


def test_generation_reflects_codes_without_hashing_refs(monkeypatch):
    # the squares are solved, reflected by orbit_codes once per emitted
    # square and checked as integer edge codes, and the complex holds those
    # codes, each the code of its edge id and direction in the document
    reflected = []

    def counted(*square):
        reflected.append(square)
        return orbit_codes(*square)

    monkeypatch.setattr(mozes, "orbit_codes", counted)
    c = build_mozes_complex(13, 17)
    assert all(type(x) is int for t in c.squares for x in t)
    assert len(reflected) == len(c.squares) == 14 * 18 // 4
    doc = generate_mozes_complex(13, 17)
    assert hashlib.sha256(doc.encode()).hexdigest() == GENERATED_SHA256[(13, 17)]
    assert load_complex(doc).squares == c.squares


def coords(quats):
    """The generators as the int 4-tuples the generator works on."""
    return [(x.a0, x.a1, x.a2, x.a3) for x in quats]


def test_generation_rejects_squares_fixed_by_vh(monkeypatch):
    # (y~, x~) = (conj y, conj x) makes every square its own vh-image, so
    # each orbit holds two pairs
    xs, ys = coords(norm_quaternions(5).quats), coords(norm_quaternions(13).quats)

    def conjugates(table, x, y):
        return ys.index((y[0], -y[1], -y[2], -y[3])), xs.index((x[0], -x[1], -x[2], -x[3])), 1

    monkeypatch.setattr(mozes, "_solve_pair", conjugates)
    with pytest.raises(RelationSolveError, match=r"^reflection orbit of pair \(0, 0\) is not free$"):
        build_mozes_complex(5, 13)


def test_generation_rejects_a_wrong_solution(monkeypatch):
    # a wrong x~ at the first pair: its reflections are the squares of
    # other pairs, solved correctly, and differ from them
    solve = mozes._solve_pair
    first = coords(norm_quaternions(5).quats)[0], coords(norm_quaternions(13).quats)[0]

    def wrong_at_first(table, x, y):
        jt, it, sign = solve(table, x, y)
        return (jt, (it + 1) % 6, sign) if (x, y) == first else (jt, it, sign)

    monkeypatch.setattr(mozes, "_solve_pair", wrong_at_first)
    with pytest.raises(
        RelationSolveError,
        match=r"^reflection image of pair \(0, 0\) disagrees with the solved square at \(\d+, \d+\)$",
    ):
        build_mozes_complex(5, 13)


def test_generate_counts_5_13():
    c = load_complex(generate_mozes_complex(5, 13))
    assert len(c.vertices) == 1
    assert len(c.h_edges) == 3
    assert len(c.v_edges) == 7
    assert len(c.squares) == 21


def test_generate_counts_5_17():
    c = load_complex(generate_mozes_complex(5, 17))
    assert len(c.h_edges) == 3
    assert len(c.v_edges) == 9
    assert len(c.squares) == 27


def test_generate_validates_without_warnings():
    for p, l in ((5, 13), (13, 5)):
        rep = validate_vht(load_complex(generate_mozes_complex(p, l)))
        assert not rep.errors and not rep.warnings


def test_generate_rejections():
    with pytest.raises(MozesParameterError, match="distinct"):
        generate_mozes_complex(5, 5)
    with pytest.raises(MozesParameterError):
        generate_mozes_complex(3, 5)
    with pytest.raises(MozesParameterError):
        generate_mozes_complex(5, 4)


def test_generate_metadata_and_determinism():
    doc1 = generate_mozes_complex(5, 13)
    doc2 = generate_mozes_complex(5, 13)
    assert doc1 == doc2
    meta = json.loads(doc1)["metadata"]
    assert meta == {"construction": "mozes", "p": 5, "l": 13}


def test_sigma_closure_regenerates_pairs():
    # applying a reflection to any generated square gives the square solved
    # for the image pair, and the four pairs of each orbit are distinct
    c = build_mozes_complex(5, 13)
    by_corner = {}
    for t in square_refs(c):
        for g in ("1", "v", "h", "vh"):
            image = sigma_act(t, g)
            key = (image.a, image.b)
            assert key not in by_corner
            by_corner[key] = image
    assert len(by_corner) == (5 + 1) * (13 + 1)


def test_degrees_are_p_plus_one(mozes513):
    c = mozes513.complex
    assert c.degrees["v0"] == (6, 14)


def test_larger_pair_13_17_matches_closed_forms():
    # above the desk-scale targets: 252 directed squares, stacked 504x252
    from treelat.cli import analyze_document

    _, analysis = analyze_document(generate_mozes_complex(13, 17))
    assert analysis is not None
    hom = analysis.homology
    assert hom.euler_characteristic == 12 * 16 // 4 == 48
    assert analysis.k0.k0_rank == 12 * 16 // 2 - 2 == 94
    assert hom.h2_rank == 47
    assert hom.h1.free_rank == 0
    assert analysis.theorem.holds and analysis.theorem.within_hypotheses
