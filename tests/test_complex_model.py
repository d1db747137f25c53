import json
import random
import time

import pytest
from hypothesis import given, settings

from treelat.complex_model import (
    ComplexFormatError,
    DegenerateOrbitError,
    SquareComplex,
    expand_directed_squares,
    load_complex,
    orbit_codes,
    serialize_complex,
    validate_vht,
)
from treelat.mozes import generate_mozes_complex

import _complexes
from _complexes import one_vertex_doc, ref, square
from _oracles import (
    SIGMA_TAGS,
    Ref,
    corner_problems_by_refs,
    directed_edges,
    expand_by_sigma,
    ref_ends,
    serialize_complex_by_dumps,
    sigma_act,
    square_codes,
    square_refs,
    tile_squares,
    validate_vht_by_refs,
)
from test_fuzz_cli import mutated_documents


def load(doc):
    return load_complex(doc)


def test_torus_counts():
    c = load(_complexes.torus_doc())
    assert len(c.vertices) == 1
    assert len(c.h_edges) == 1 and len(c.v_edges) == 1
    assert len(c.squares) == 1
    assert len(c.edge_table.origin) == 4  # two directed edges per edge


def test_unknown_edge_reference():
    doc = one_vertex_doc(["a"], ["b"], [square(ref("a"), ref("b"), ref("c"), ref("b"))])
    with pytest.raises(ComplexFormatError, match="unknown edge 'c'"):
        load(doc)


def test_wrong_edge_role():
    doc = one_vertex_doc(["a"], ["b"], [square(ref("b"), ref("a"), ref("b"), ref("a"))])
    with pytest.raises(ComplexFormatError, match="slot is horizontal"):
        load(doc)


def test_horizontal_edge_in_a_vertical_slot():
    doc = one_vertex_doc(["a"], ["b"], [square(ref("a"), ref("a"), ref("a"), ref("b"))])
    with pytest.raises(ComplexFormatError) as exc:
        load(doc)
    assert exc.value.problems == (
        "squares[0].b: edge 'a' is horizontal but the slot is vertical",
    )


def test_cross_listed_edge_passes_both_slots():
    # an id listed in both edge arrays is reported once, as a duplicate;
    # it fills a horizontal and a vertical slot without a role problem
    doc = one_vertex_doc(["e"], ["e"], [square(ref("e"), ref("e"), ref("e", True), ref("e", True))])
    with pytest.raises(ComplexFormatError) as exc:
        load(doc)
    assert exc.value.problems == ("duplicate edge id 'e'",)


def test_duplicate_edge_id_across_lists():
    doc = json.dumps(
        {
            "vertices": ["v"],
            "horizontal_edges": [{"id": "e", "origin": "v", "terminus": "v"}],
            "vertical_edges": [{"id": "e", "origin": "v", "terminus": "v"}],
            "squares": [],
        }
    )
    with pytest.raises(ComplexFormatError, match="duplicate edge id 'e'"):
        load(doc)


def test_duplicate_vertex_id():
    doc = json.dumps(
        {"vertices": ["v", "v"], "horizontal_edges": [], "vertical_edges": [], "squares": []}
    )
    with pytest.raises(ComplexFormatError, match="duplicate vertex id 'v'"):
        load(doc)


def test_unknown_vertex_in_edge():
    doc = json.dumps(
        {
            "vertices": ["v"],
            "horizontal_edges": [{"id": "a", "origin": "v", "terminus": "w"}],
            "vertical_edges": [],
            "squares": [],
        }
    )
    with pytest.raises(ComplexFormatError, match="unknown vertex 'w'"):
        load(doc)


def test_unknown_keys_rejected():
    doc = json.loads(_complexes.torus_doc())
    doc["extra"] = 1
    with pytest.raises(ComplexFormatError, match="unknown top-level keys"):
        load(json.dumps(doc))
    doc = json.loads(_complexes.torus_doc())
    doc["squares"][0]["color"] = "red"
    with pytest.raises(ComplexFormatError, match="unknown keys"):
        load(json.dumps(doc))


def test_metadata_key_tolerated():
    doc = json.loads(_complexes.torus_doc())
    doc["metadata"] = {"note": "anything"}
    c = load(json.dumps(doc))
    assert len(c.squares) == 1


def test_malformed_json():
    with pytest.raises(ComplexFormatError, match="not valid JSON"):
        load("{nope")


def test_corner_incidence_failure():
    doc = json.dumps(
        {
            "vertices": ["v", "w"],
            "horizontal_edges": [{"id": "a", "origin": "v", "terminus": "w"}],
            "vertical_edges": [{"id": "b", "origin": "v", "terminus": "v"}],
            "squares": [square(ref("a"), ref("b"), ref("a"), ref("b"))],
        }
    )
    with pytest.raises(ComplexFormatError, match="corner incidence"):
        load(doc)


def test_serialize_round_trip():
    doc = serialize_complex(load(_complexes.f2xf2_doc()))
    c = load(doc)
    assert serialize_complex(c) == doc


def test_serialize_matches_the_dumps_oracle():
    # Every corpus document and a Mozes one, with no metadata, empty
    # metadata and nested metadata; a complex with no vertices, edges or
    # squares; ids that need escaping and are not ASCII.
    odd = one_vertex_doc(
        ["\u00e5 \"a\"", "a\\\t2"],
        ["\u2603", "b/\u00e9"],
        [square(ref("\u00e5 \"a\""), ref("\u2603"), ref("a\\\t2", True), ref("b/\u00e9", True))],
        vertex="v\u00e9\n",
    )
    complexes = [
        load(doc())
        for doc in (
            _complexes.torus_doc,
            _complexes.f2xf2_doc,
            _complexes.klein_doc,
            _complexes.two_vertex_klein_doc,
            _complexes.two_torus_components_doc,
        )
    ]
    complexes += [load(odd), load(generate_mozes_complex(5, 13)), SquareComplex((), (), (), ())]
    metadata = (
        None,
        {},
        {"construction": "mozes", "p": 5, "l": 13},
        {"note": "\u00fcber \"x\"", "list": [], "nested": {"a": [1, -2.5, None, True], "b": {}}},
    )
    for c in complexes:
        for m in metadata:
            text = serialize_complex(c, m)
            assert text == serialize_complex_by_dumps(c, m)
            assert serialize_complex(load(text), m) == text
    assert "\\u2603" in serialize_complex(load(odd))


def test_squares_are_the_codes_of_the_raw_document(mozes513_doc):
    # Each square holds the codes (a, b, a', b') read straight off the JSON:
    # {id: 2i} over the horizontal edges and then the vertical ones, plus
    # reversed; and the document written back from them loads to the same
    # complex and text.
    docs = dict(_corpus_documents(), mozes513=mozes513_doc)
    docs.update({name: doc for name, kind, doc in CRAFTED})
    for name, doc in docs.items():
        raw = json.loads(doc)
        edges = raw["horizontal_edges"] + raw["vertical_edges"]
        position = {e["id"]: 2 * i for i, e in enumerate(edges)}
        slots = ("a", "b", "a_prime", "b_prime")
        codes = tuple(
            tuple(position[sq[k]["edge"]] + sq[k]["reversed"] for k in slots)
            for sq in raw["squares"]
        )
        c = load(doc)
        assert c.squares == codes, name
        text = serialize_complex(c)
        assert load(text) == c, name
        assert serialize_complex(load(text)) == text, name


def test_bad_references_keep_their_messages_and_order():
    # A well-formed slot takes its code in one lookup of (edge, reversed);
    # everything else takes the per-slot diagnosis.  Among them: edges
    # that cannot be hashed, reversed as 0 and 1.0 (which hash and compare
    # as False and True) and as null, an id listed on both axes, which
    # either axis accepts, and squares with a fifth key or a missing one.
    doc = json.loads(_complexes.f2xf2_doc())
    doc["squares"][0]["a"] = ["a1", False]
    doc["squares"][0]["b_prime"] = {"edge": "b1", "reversed": False, "sign": 1, "x": 0}
    doc["squares"][1]["b"] = {"edge": "b1", "reversed": 1}
    doc["squares"][1]["a_prime"] = {"edge": "zz", "reversed": True}
    doc["squares"][2]["b"] = {"edge": "a1", "reversed": True}
    for axis in ("horizontal_edges", "vertical_edges"):
        doc[axis].append({"id": "x", "origin": "v", "terminus": "v"})
    doc["squares"] += [
        square(ref(["a1"]), ref({"id": "b1"}, True), ref("a1", 0), ref("b1", 1.0)),
        square(ref("x"), ref("x", True), ref("a2", None), {"edge": "b2", "sign": 1}),
        dict(square(ref("a1"), ref("b1"), ref("a1"), ref("b1")), c=1),
        {"a": ref("a1"), "b": ref("b1"), "a_prime": ref("a1")},
    ]
    with pytest.raises(ComplexFormatError) as exc:
        load(json.dumps(doc))
    assert exc.value.problems == (
        "duplicate edge id 'x'",
        "squares[0].a must be an object",
        "squares[0].b_prime: unknown keys ['sign', 'x']",
        "squares[1].b: need edge (string) and reversed (boolean)",
        "squares[1].a_prime: unknown edge 'zz'",
        "squares[2].b: edge 'a1' is horizontal but the slot is vertical",
        "squares[4].a: need edge (string) and reversed (boolean)",
        "squares[4].b: need edge (string) and reversed (boolean)",
        "squares[4].a_prime: need edge (string) and reversed (boolean)",
        "squares[4].b_prime: need edge (string) and reversed (boolean)",
        "squares[5].a_prime: need edge (string) and reversed (boolean)",
        "squares[5].b_prime: unknown keys ['sign']",
        "squares[6]: unknown keys ['c']",
        "squares[7]: missing keys ['b_prime']",
    )


def test_bad_edges_keep_their_messages_and_order():
    # A well-formed edge, a dict of exactly id, origin and terminus, all
    # strings, with both ends known, is taken in one hit; everything else
    # takes the per-edge diagnosis.  Among them: edges that are not
    # objects, a fourth key, an unknown key in place of a known one,
    # missing keys, fields that are not strings (or cannot be hashed),
    # unknown ends, keys in another order, and ids listed twice on one
    # axis and across the axes.
    def edge(i, o="v", t="v"):
        return {"id": i, "origin": o, "terminus": t}

    doc = {
        "vertices": ["v", "u"],
        "horizontal_edges": [
            edge("a1"),
            ["a2"],
            "a3",
            None,
            dict(edge("a4"), color="red"),
            {"id": "a5", "origin": "v", "weight": 1},
            {"id": "a6", "origin": "v"},
            {},
            edge(7),
            edge("a8", None),
            edge("a9", "w", "x"),
            edge("a10", "u", ["v"]),
            edge("a11"),
            edge("a11", "u", "u"),
            edge("a12", "v", "u"),
        ],
        "vertical_edges": [
            edge("b1"),
            edge("a1"),
            5,
            {"terminus": "v", "id": "b2", "origin": "z"},
            {"id": "b3", "terminus": "v", "origin": "v", "id2": "b3"},
            edge("b4", "v", True),
            edge("a12", "u", "v"),
            edge("b1", "u", "u"),
        ],
        "squares": [],
    }
    with pytest.raises(ComplexFormatError) as exc:
        load(json.dumps(doc))
    assert exc.value.problems == (
        "horizontal_edges[1] must be an object",
        "horizontal_edges[2] must be an object",
        "horizontal_edges[3] must be an object",
        "horizontal_edges[4]: unknown keys ['color']",
        "horizontal_edges[5]: unknown keys ['weight']",
        "horizontal_edges[6]: missing keys ['terminus']",
        "horizontal_edges[7]: missing keys ['id', 'origin', 'terminus']",
        "horizontal_edges[8]: id, origin and terminus must be strings",
        "horizontal_edges[9]: id, origin and terminus must be strings",
        "horizontal_edges[10] ('a9'): unknown vertex 'w'",
        "horizontal_edges[10] ('a9'): unknown vertex 'x'",
        "horizontal_edges[11]: id, origin and terminus must be strings",
        "vertical_edges[2] must be an object",
        "vertical_edges[3] ('b2'): unknown vertex 'z'",
        "vertical_edges[4]: unknown keys ['id2']",
        "vertical_edges[5]: id, origin and terminus must be strings",
        "duplicate edge id 'a11'",
        "duplicate edge id 'a1'",
        "duplicate edge id 'a12'",
        "duplicate edge id 'b1'",
    )
    # With the bad edges gone, the edges keep their ids, ends and order,
    # keys in any order.
    doc["horizontal_edges"] = [edge("a1"), edge("a2", "v", "u")]
    doc["vertical_edges"] = [{"terminus": "u", "id": "b1", "origin": "u"}]
    c = load(json.dumps(doc))
    assert [(e.id, e.origin, e.terminus) for e in c.h_edges + c.v_edges] == [
        ("a1", "v", "v"),
        ("a2", "v", "u"),
        ("b1", "u", "u"),
    ]


# --- reflections and expansion ------------------------------------------------


def test_torus_expansion_matches_reflection_formulas():
    c = load(_complexes.torus_doc())
    tiles = expand_directed_squares(c)
    assert tiles == ((0, 2, 0, 2), (0, 3, 0, 3), (1, 2, 1, 2), (1, 3, 1, 3))
    r = tile_squares(c, tiles)
    a = Ref("a", False)
    b = Ref("b", False)
    assert r[0].labels() == (a, b, a, b)
    assert r[1].labels() == (a, b.bar(), a, b.bar())
    assert r[2].labels() == (a.bar(), b, a.bar(), b)
    assert r[3].labels() == (a.bar(), b.bar(), a.bar(), b.bar())
    assert [t.sigma_tag for t in r] == ["1", "v", "h", "vh"]


KLEIN_TABLE = {
    ("1", "1"): "1", ("1", "v"): "v", ("1", "h"): "h", ("1", "vh"): "vh",
    ("v", "1"): "v", ("v", "v"): "1", ("v", "h"): "vh", ("v", "vh"): "h",
    ("h", "1"): "h", ("h", "v"): "vh", ("h", "h"): "1", ("h", "vh"): "v",
    ("vh", "1"): "vh", ("vh", "v"): "h", ("vh", "h"): "v", ("vh", "vh"): "1",
}


def test_sigma_group_laws(corpus):
    # all sixteen composition identities of the Klein four-group, on every
    # directed square of every corpus complex
    for analysis in corpus.values():
        for t in expand_by_sigma(analysis.complex):
            assert sigma_act(t, "1") == t
            for (g, h), gh in KLEIN_TABLE.items():
                lhs = sigma_act(sigma_act(t, h), g)
                rhs = sigma_act(t, gh)
                assert lhs.labels() == rhs.labels()
                assert lhs.sigma_tag == rhs.sigma_tag
                assert lhs.orbit_id == rhs.orbit_id


def test_expanded_orbits_have_four_distinct_tags(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        r = tile_squares(c, expand_directed_squares(c))
        for base in range(0, len(r), 4):
            orbit = r[base : base + 4]
            assert [t.sigma_tag for t in orbit] == ["1", "v", "h", "vh"]
            assert len({t.orbit_id for t in orbit}) == 1
            assert len({t.labels() for t in orbit}) == 4
            rep = orbit[0]
            for t, g in zip(orbit, ("1", "v", "h", "vh")):
                assert t.labels() == sigma_act(rep, g).labels()


def test_flip_identities(corpus):
    # a'(t) = a(t^v) and b'(t) = b(t^h) for every directed square
    for analysis in corpus.values():
        c = analysis.complex
        for t in tile_squares(c, expand_directed_squares(c)):
            assert t.a_prime == sigma_act(t, "v").a
            assert t.b_prime == sigma_act(t, "h").b


def test_expansion_is_four_to_one(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        assert len(expand_directed_squares(c)) == len(c.edge_table.tiles) == 4 * len(c.squares)


def test_expansion_rejects_degenerate_orbit():
    doc = one_vertex_doc(
        ["a"], ["b"], [square(ref("a"), ref("b"), ref("a", True), ref("b", True))]
    )
    with pytest.raises(DegenerateOrbitError):
        expand_directed_squares(load(doc))


def test_reversal_is_fixed_point_free(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        table = c.edge_table
        refs = directed_edges(c)
        for code, d in enumerate(refs):
            assert d.bar() != d
            assert d.bar().bar() == d
            assert refs[code ^ 1] == d.bar()
            assert table.origin[code ^ 1] == table.terminus[code]


# --- validation ----------------------------------------------------------------


def test_torus_validation_warns_on_degrees():
    c = load(_complexes.torus_doc())
    rep = validate_vht(c)
    assert not rep.errors
    kinds = [w.kind for w in rep.warnings]
    assert kinds == ["low_h_degree", "low_v_degree"]
    assert "horizontal degree 2 < 3 at vertex v" in rep.warnings[0].message
    assert c.degrees["v"] == (2, 2)


def test_f2xf2_validation_clean():
    c = load(_complexes.f2xf2_doc())
    rep = validate_vht(c)
    assert not rep.errors and not rep.warnings
    assert c.degrees["v"] == (4, 4)


def test_duplicated_square_link_failure():
    # F2 x F2 with one square doubled and another dropped
    squares = [
        square(ref("a1"), ref("b1"), ref("a1"), ref("b1")),
        square(ref("a1"), ref("b1"), ref("a1"), ref("b1")),
        square(ref("a2"), ref("b1"), ref("a2"), ref("b1")),
        square(ref("a2"), ref("b2"), ref("a2"), ref("b2")),
    ]
    rep = validate_vht(load(one_vertex_doc(["a1", "a2"], ["b1", "b2"], squares)))
    assert rep.errors
    messages = " | ".join(e.message for e in rep.errors)
    assert "(a1, b2) not covered" in messages
    assert "(a1, b1) covered 2 times" in messages


def test_uncovered_corner_reported_per_pair():
    rep = validate_vht(load(one_vertex_doc(["a"], ["b"], [])))
    uncovered = [e for e in rep.errors if e.kind == "link_uncovered"]
    assert len(uncovered) == 4  # all of {a,~a} x {b,~b}


def test_forced_edge_inversion_detected():
    squares = [
        square(ref("a"), ref("b"), ref("c"), ref("d")),
        square(ref("a"), ref("b"), ref("c", True), ref("d")),
    ]
    rep = validate_vht(load(one_vertex_doc(["a", "c"], ["b", "d"], squares)))
    inverted = [e for e in rep.errors if e.kind == "edge_inverted"]
    assert inverted and "c = ~c" in inverted[0].message


def test_orbit_degeneracy_is_an_error():
    doc = one_vertex_doc(
        ["a"], ["b"], [square(ref("a"), ref("b"), ref("a", True), ref("b", True))]
    )
    rep = validate_vht(load(doc))
    assert any(e.kind == "orbit_degenerate" for e in rep.errors)


def test_disconnected_complex_is_an_error():
    rep = validate_vht(load(_complexes.two_torus_components_doc()))
    disconnected = [e.message for e in rep.errors if e.kind == "disconnected"]
    assert disconnected == ["complex has 2 connected components"]


def test_link_count_identity(corpus):
    # sum over vertices of h-degree * v-degree equals |expanded squares|
    for analysis in corpus.values():
        c = analysis.complex
        total = sum(h * w for h, w in c.degrees.values())
        assert total == len(c.edge_table.tiles)


def test_one_vertex_corner_map_is_onto_all_pairs(f2xf2):
    c = f2xf2.complex
    pairs = {(t.a, t.b) for t in tile_squares(c, expand_directed_squares(c))}
    refs = directed_edges(c)
    vertical = c.edge_table.vertical
    assert pairs == {(al, be) for al in refs[:vertical] for be in refs[vertical:]}


def test_random_one_vertex_complexes_validate():
    rng = random.Random(1234)
    for _ in range(8):
        doc = _complexes.random_one_vertex_doc(rng, rng.randint(2, 3), rng.randint(2, 3))
        rep = validate_vht(load(doc))
        assert not rep.errors, rep.errors


def test_random_product_complexes_validate():
    rng = random.Random(987)
    for _ in range(5):
        g1 = _complexes.random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        g2 = _complexes.random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        rep = validate_vht(load(_complexes.product_doc(g1, g2)))
        assert not rep.errors, rep.errors
        assert not rep.warnings


# --- edge codes and the validation oracle ---------------------------------------


def test_edge_table_numbers_each_directed_edge_once(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        table = c.edge_table
        origin, terminus = ref_ends(c)
        refs = [Ref(e.id, rev) for e in c.h_edges + c.v_edges for rev in (False, True)]
        assert table.vertical == 2 * len(c.h_edges)
        assert len(table.origin) == len(table.terminus) == len(refs)
        for code, ref_ in enumerate(refs):
            assert table.position[ref_.edge] + ref_.reversed == code
            assert c.vertices[table.origin[code]] == origin(ref_)
            assert c.vertices[table.terminus[code]] == terminus(ref_)
        # the codes of every tile are those of its sides, each orbit
        # expanded by sigma_act
        assert table.tiles == square_codes(c, expand_by_sigma(c))


def test_orbit_codes_are_the_codes_of_sigma_act(corpus):
    for analysis in corpus.values():
        c = analysis.complex
        for t, codes in zip(square_refs(c), c.squares):
            assert orbit_codes(*codes) == square_codes(c, [sigma_act(t, g) for g in SIGMA_TAGS])


def _corpus_documents():
    docs = {
        name: getattr(_complexes, name)()
        for name in (
            "torus_doc",
            "f2xf2_doc",
            "klein_doc",
            "two_vertex_klein_doc",
            "two_torus_components_doc",
        )
    }
    # the random complexes of the property battery (tests/test_properties.py)
    rng = random.Random(20260810)
    for k in range(10):
        docs[f"one_vertex{k}"] = _complexes.random_one_vertex_doc(
            rng, rng.randint(2, 3), rng.randint(2, 3)
        )
    rng = random.Random(424242)
    for k in range(6):
        g1 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
        g2 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
        docs[f"product{k}"] = _complexes.product_doc(g1, g2)
    docs["low_degree_product"] = _complexes.product_doc(
        (2, [(0, 1), (0, 1)]), _complexes.random_multigraph(random.Random(77), 2, 2, 3)
    )
    return docs


# One document per validation error kind: (name, kind, document).
CRAFTED = (
    ("uncovered", "link_uncovered", one_vertex_doc(["a"], ["b"], [])),
    (
        "covered twice",
        "link_multiple",
        one_vertex_doc(
            ["a1", "a2"],
            ["b1", "b2"],
            [
                square(ref("a1"), ref("b1"), ref("a1"), ref("b1")),
                square(ref("a1"), ref("b1"), ref("a1"), ref("b1")),
                square(ref("a2"), ref("b1"), ref("a2"), ref("b1")),
                square(ref("a2"), ref("b2"), ref("a2"), ref("b2")),
            ],
        ),
    ),
    (
        "covered three times",
        "link_multiple",
        one_vertex_doc(
            ["a", "c"],
            ["b", "d"],
            [
                square(ref("a"), ref("b"), ref("c"), ref("d")),
                square(ref("a"), ref("b"), ref("c", True), ref("d")),
                square(ref("a"), ref("b"), ref("c"), ref("d")),
            ],
        ),
    ),
    (
        "inverted",
        "edge_inverted",
        one_vertex_doc(
            ["a", "c"],
            ["b", "d"],
            [
                square(ref("a"), ref("b"), ref("c"), ref("d")),
                square(ref("a"), ref("b"), ref("c", True), ref("d")),
            ],
        ),
    ),
    (
        "degenerate",
        "orbit_degenerate",
        one_vertex_doc(["a"], ["b"], [square(ref("a"), ref("b"), ref("a", True), ref("b", True))]),
    ),
    ("disconnected", "disconnected", _complexes.two_torus_components_doc()),
)


def test_validation_matches_the_ref_oracle_on_the_corpus():
    for name, doc in _corpus_documents().items():
        c = load(doc)
        assert validate_vht(c) == validate_vht_by_refs(c), name


def test_validation_matches_the_ref_oracle_on_the_ladder(mozes513_doc, mozes517_doc):
    docs = [mozes513_doc, mozes517_doc]
    docs += [generate_mozes_complex(p, l) for p, l in ((5, 29), (13, 17))]
    for doc in docs:
        c = load(doc)
        report = validate_vht(c)
        assert not report.errors
        assert report == validate_vht_by_refs(c)


def test_validation_matches_the_ref_oracle_on_each_error_kind():
    for name, kind, doc in CRAFTED:
        c = load(doc)
        report = validate_vht(c)
        assert kind in {e.kind for e in report.errors}, name
        assert report == validate_vht_by_refs(c), name


def test_pair_covered_three_times_names_every_hit_in_tile_order():
    doc = next(doc for name, _, doc in CRAFTED if name == "covered three times")
    messages = [e.message for e in validate_vht(load(doc)).errors]
    assert messages[:3] == [
        "link failure: corner pair (a, b) covered 3 times (squares 0^1, 1^1, 2^1)",
        "squares 0^1 and 1^1 share corner (a, b) and force c = ~c",
        "squares 1^1 and 2^1 share corner (a, b) and force c = ~c",
    ]
    assert "link failure: corner pair (~a, d) covered 3 times (squares 0^h, 1^h, 2^h)" in messages


def test_pair_that_is_not_incident_is_reported_as_the_oracle_does():
    # Built directly, past load_complex's corner checks: square 1 pairs the
    # horizontal loop c at w with the vertical loop b at v.
    c = load(_complexes.two_torus_components_doc())
    a, _, ap, bp = c.squares[1]
    crossed = (a, c.edge_table.position["b"], ap, bp)
    c = SquareComplex(c.vertices, c.h_edges, c.v_edges, (c.squares[0], crossed))
    report = validate_vht(c)
    assert any(e.message.endswith("is not incident") for e in report.errors)
    assert report == validate_vht_by_refs(c)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_validation_matches_the_ref_oracle_on_mutated_documents(text):
    try:
        c = load(text)
    except ComplexFormatError as exc:
        # corner incidences are checked last, once the document is sound
        if any("corner incidence" in p for p in exc.problems):
            assert list(exc.problems) == corner_problems_by_refs(text)
        return
    assert validate_vht(c) == validate_vht_by_refs(c)


def test_corner_incidence_messages_match_the_ref_oracle():
    doc = json.dumps(
        {
            "vertices": ["v", "w", "x"],
            "horizontal_edges": [
                {"id": "a", "origin": "v", "terminus": "w"},
                {"id": "c", "origin": "w", "terminus": "x"},
            ],
            "vertical_edges": [
                {"id": "b", "origin": "v", "terminus": "v"},
                {"id": "d", "origin": "x", "terminus": "w"},
            ],
            "squares": [
                square(ref("a"), ref("b"), ref("a"), ref("b")),
                square(ref("c", True), ref("d"), ref("a"), ref("b", True)),
                square(ref("a"), ref("d"), ref("c"), ref("b")),
            ],
        }
    )
    with pytest.raises(ComplexFormatError) as info:
        load(doc)
    assert len(info.value.problems) == 8
    assert list(info.value.problems) == corner_problems_by_refs(doc)


def test_valid_documents_load_and_validate_on_edge_codes(mozes513_doc):
    # A loaded complex holds its squares as four integer edge codes each,
    # a and a' horizontal and b and b' vertical, and validates on them.
    docs = [mozes513_doc, _complexes.two_vertex_klein_doc()]
    rng = random.Random(5)
    g1 = _complexes.random_multigraph(rng, 3, 2, 3)
    docs.append(_complexes.product_doc(g1, g1))
    for doc in docs:
        c = load(doc)
        width, vertical = len(c.edge_table.origin), c.edge_table.vertical
        for a, b, ap, bp in c.squares:
            assert all(type(x) is int for x in (a, b, ap, bp))
            assert a < vertical and ap < vertical
            assert vertical <= b < width and vertical <= bp < width
        assert not validate_vht(c).errors


def test_validation_is_linear_on_a_product_of_two_long_cycles():
    # 1600 vertices, 3200 edges, 1600 squares: every pair of a horizontal
    # and a vertical directed edge is 10.24 million pairs, the incident
    # ones 6400.
    cycle = (40, [(i, (i + 1) % 40) for i in range(40)])
    c = load(_complexes.product_doc(cycle, cycle))
    assert (len(c.vertices), len(c.h_edges) + len(c.v_edges), len(c.squares)) == (1600, 3200, 1600)
    start = time.perf_counter()
    report = validate_vht(c)
    elapsed = time.perf_counter() - start
    assert report.errors == ()
    assert len(report.warnings) == 3200
    assert {w.kind for w in report.warnings} == {"low_h_degree", "low_v_degree"}
    assert elapsed < 2.0, elapsed


def test_colliding_squares_are_each_named_once():
    # 2000 squares on the one-vertex edges a, b, whose a' and b' turn
    # around together from one square to the next: every corner is covered
    # 2000 times, by squares that force a = ~a and b = ~b pairwise.  Naming
    # each pair would be four million errors; each tile is named at most
    # once, against the first earlier square it collides with.
    squares = [
        square(ref("a"), ref("b"), ref("a", k % 2 == 1), ref("b", k % 2 == 1))
        for k in range(2000)
    ]
    c = load(one_vertex_doc(["a"], ["b"], squares))
    start = time.perf_counter()
    report = validate_vht(c)
    elapsed = time.perf_counter() - start
    inverted = [e.message for e in report.errors if e.kind == "edge_inverted"]
    named = [m.split(" share ")[0].split(" and ")[1] for m in inverted]
    assert inverted and all(m.endswith("force a = ~a and b = ~b") for m in inverted)
    assert len(named) == len(set(named))
    assert "squares 0^1 and 1^1 share corner (a, b) and force a = ~a and b = ~b" in inverted
    assert elapsed < 1.0, elapsed
