"""Presentation invariance of the report.

Every fast path leans on index conventions: tiles orbit-major with
t ^ 1 = t^v and t ^ 2 = t^h, edge code 2i + reversed, horizontal edges
first.  The differential oracles read the input in the same order, so they
would share a slip in those conventions.  A change of presentation moves
every index and must change no number: new ids, shuffled vertex, edge and
square lists, a random set of edges reversed, and each square replaced by
another member of its reflection orbit.

Compared: the counts, homology, tiling and theorem blocks of the report;
its connectivity block, with each edge-graph component list taken as a
multiset (component lists follow the label order, which a presentation
moves); and the validation issues by kind and number, since their messages
name ids.

Swapping the axes (swap_axes) moves every index too, and it exchanges what
the report says of each axis: the horizontal and vertical edge counts,
degree warnings, transition matrices and tile and edge graphs.  The report
of the swapped document is the report of the original with those
exchanged (exchange_axes); the homology, kernel rank and theorem are equal.
"""

import functools
import json
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from treelat.cli import analyze_document, build_report
from treelat.mozes import generate_mozes_complex

import _complexes


def _bar(ref):
    return {"edge": ref["edge"], "reversed": not ref["reversed"]}


def rename(doc, rng):
    """Give every vertex and edge a fresh id."""
    edges = doc["horizontal_edges"] + doc["vertical_edges"]
    old = doc["vertices"] + [e["id"] for e in edges]
    fresh = [f"x{i}" for i in range(len(old))]
    rng.shuffle(fresh)
    new = dict(zip(old, fresh))
    for e in edges:
        e.update(id=new[e["id"]], origin=new[e["origin"]], terminus=new[e["terminus"]])
    doc["vertices"] = [new[v] for v in doc["vertices"]]
    for sq in doc["squares"]:
        for ref in sq.values():
            ref["edge"] = new[ref["edge"]]


def shuffle(doc, rng):
    """Shuffle the vertex, edge and square lists."""
    for key in ("vertices", "horizontal_edges", "vertical_edges", "squares"):
        rng.shuffle(doc[key])


def reverse(doc, rng):
    """Reverse a random set of edges: swap origin and terminus, and flip
    every reference to them."""
    flipped = set()
    for e in doc["horizontal_edges"] + doc["vertical_edges"]:
        if rng.random() < 0.5:
            e["origin"], e["terminus"] = e["terminus"], e["origin"]
            flipped.add(e["id"])
    for sq in doc["squares"]:
        for ref in sq.values():
            if ref["edge"] in flipped:
                ref["reversed"] = not ref["reversed"]


def reorbit(doc, rng):
    """Replace each square by a random member of its orbit (1, v, h, vh),
    as the reflections of complex_model.orbit_codes write them."""
    squares = []
    for sq in doc["squares"]:
        a, b, ap, bp = sq["a"], sq["b"], sq["a_prime"], sq["b_prime"]
        sides = rng.choice(
            [
                (a, b, ap, bp),
                (ap, _bar(b), a, _bar(bp)),
                (_bar(a), bp, _bar(ap), b),
                (_bar(ap), _bar(bp), _bar(a), _bar(b)),
            ]
        )
        squares.append(dict(zip(("a", "b", "a_prime", "b_prime"), sides)))
    doc["squares"] = squares


def swap_axes(doc, rng=None):
    """Exchange the axes: swap the edge lists, and make square
    (a, b, a', b') into (b, a, b', a'), so that the corner incidences
    still hold."""
    doc["horizontal_edges"], doc["vertical_edges"] = doc["vertical_edges"], doc["horizontal_edges"]
    doc["squares"] = [
        {"a": sq["b"], "b": sq["a"], "a_prime": sq["b_prime"], "b_prime": sq["a_prime"]}
        for sq in doc["squares"]
    ]


TRANSFORMS = {"rename": rename, "shuffle": shuffle, "reverse": reverse, "reorbit": reorbit}

# The keys that name one axis of the report, each with its counterpart.
_AXIS_KEYS = (
    ("low_h_degree", "low_v_degree"),
    ("h_edges", "v_edges"),
    ("m1", "m2"),
    ("gh_strongly_connected", "gv_strongly_connected"),
    ("gh_strong", "gv_strong"),
    ("gh_weak", "gv_weak"),
    ("gh_scc_count", "gv_scc_count"),
    ("gh_B", "gv_A"),
)
_EXCHANGE = dict(_AXIS_KEYS) | {v: h for h, v in _AXIS_KEYS}

FIXED = {
    "mozes(13,17)": lambda: generate_mozes_complex(13, 17),
    "mozes(29,37)": lambda: generate_mozes_complex(29, 37),
    "torus": _complexes.torus_doc,
    "klein": _complexes.klein_doc,
    "two_vertex_klein": _complexes.two_vertex_klein_doc,
    "f2xf2": _complexes.f2xf2_doc,
    "two_torus_components": _complexes.two_torus_components_doc,
}


@functools.cache
def document(key) -> str:
    """The document of a base key: a FIXED name, ("one_vertex", seed) or
    ("product", seed)."""
    if isinstance(key, str):
        return FIXED[key]()
    family, seed = key
    rng = random.Random(seed)
    if family == "one_vertex":
        return _complexes.random_one_vertex_doc(rng, rng.randint(2, 3), rng.randint(2, 3))
    g1 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
    g2 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
    return _complexes.product_doc(g1, g2)


def invariants(text: str) -> dict:
    """What a presentation must not change, read off the report."""
    validation, analysis = analyze_document(text)
    out = {
        "validation": {
            "errors": Counter(i.kind for i in validation.errors),
            "warnings": Counter(i.kind for i in validation.warnings),
        }
    }
    if analysis is None:
        return out
    report = build_report(analysis, text.encode())
    for block in ("counts", "homology", "tiling", "theorem"):
        out[block] = report[block]
    conn = dict(report["connectivity"])
    components = conn.pop("edge_graph_components")
    out["connectivity"] = conn
    out["components"] = {
        graph: Counter(tuple(sorted(k.items())) for k in listed)
        for graph, listed in components.items()
    }
    return out


def exchange_axes(obj):
    """The invariants obj with each axis key and its counterpart exchanged,
    at every depth."""
    if isinstance(obj, dict):
        return type(obj)({_EXCHANGE.get(k, k): exchange_axes(v) for k, v in obj.items()})
    return obj


@functools.cache
def base_invariants(key) -> dict:
    return invariants(document(key))


def assert_swap_invariant(key, names, seed):
    """The document of key with its axes swapped, then the changes names
    applied: homology, kernel rank and theorem are equal, and the rest of
    the report is the original's with the axes exchanged."""
    rng = random.Random(seed)
    doc = json.loads(document(key))
    swap_axes(doc)
    for name in names:
        TRANSFORMS[name](doc, rng)
    swapped = invariants(json.dumps(doc))
    base = base_invariants(key)
    for block in ("homology", "theorem"):
        assert swapped.get(block) == base.get(block)
    assert swapped.get("tiling", {}).get("kernel_rank") == base.get("tiling", {}).get("kernel_rank")
    assert swapped == exchange_axes(base)


transforms = st.lists(st.sampled_from(sorted(TRANSFORMS)), min_size=1, max_size=4, unique=True)
seeds = st.integers(0, 2**32 - 1)


def assert_invariant(key, names, seed):
    rng = random.Random(seed)
    doc = json.loads(document(key))
    for name in names:
        TRANSFORMS[name](doc, rng)
    assert invariants(json.dumps(doc)) == base_invariants(key)


@settings(max_examples=24, derandomize=True, deadline=None)
@given(key=st.sampled_from(["mozes(13,17)", "mozes(29,37)"]), names=transforms, seed=seeds)
def test_mozes_report_is_invariant_under_presentation(key, names, seed):
    assert_invariant(key, names, seed)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    key=st.sampled_from(sorted(set(FIXED) - {"mozes(13,17)", "mozes(29,37)"}))
    | st.tuples(st.sampled_from(["one_vertex", "product"]), st.integers(0, 10**6)),
    names=transforms,
    seed=seeds,
)
def test_small_report_is_invariant_under_presentation(key, names, seed):
    assert_invariant(key, names, seed)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    key=st.sampled_from(sorted(FIXED))
    | st.tuples(st.sampled_from(["one_vertex", "product"]), st.integers(0, 10**6)),
    names=st.lists(st.sampled_from(sorted(TRANSFORMS)), max_size=2, unique=True),
    seed=seeds,
)
def test_report_is_invariant_under_an_axis_swap(key, names, seed):
    assert_swap_invariant(key, names, seed)


def test_every_fixed_report_is_invariant_under_an_axis_swap():
    for key in FIXED:
        assert_swap_invariant(key, (), 0)


def test_every_change_of_presentation_moves_the_document():
    # Each change applied alone moves the (29,37) document, so none of
    # them is vacuous there.
    text = document("mozes(29,37)")
    for name, transform in {**TRANSFORMS, "swap_axes": swap_axes}.items():
        doc = json.loads(text)
        transform(doc, random.Random(1))
        assert json.dumps(doc) != json.dumps(json.loads(text)), name
