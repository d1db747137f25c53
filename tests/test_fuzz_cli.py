"""Mutated documents through the CLI.

Each example takes one of the small documents of _complexes.py, applies a
few mutations (a flipped `reversed`, a retargeted edge reference or edge
terminus, a duplicated or dropped square, a dropped top-level key, an added
vertex, a wrongly typed reference) and runs `analyze`, `verify` and
`validate --json` in-process through cli.main.  Whatever the input, the
exit code is 0, 1 or 2, nothing is raised, and a second run prints the
same bytes.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from treelat.cli import main

import _complexes

BASES = {
    "torus": _complexes.torus_doc(),
    "f2xf2": _complexes.f2xf2_doc(),
    "klein": _complexes.klein_doc(),
    "two_vertex_klein": _complexes.two_vertex_klein_doc(),
}
SLOTS = ("a", "b", "a_prime", "b_prime")
EDGE_LISTS = ("horizontal_edges", "vertical_edges")
WRONG_REFS = (5, None, "a", [], {"edge": 3, "reversed": False}, {"edge": "a", "reversed": "yes"})
MUTATIONS = (
    "flip_reversed",
    "retarget_ref",
    "duplicate_square",
    "drop_square",
    "drop_key",
    "retarget_terminus",
    "add_vertex",
    "wrong_ref_type",
)


def _edge_ids(doc) -> list[str]:
    return [e["id"] for key in EDGE_LISTS for e in doc[key]]


@st.composite
def mutated_documents(draw) -> str:
    doc = json.loads(BASES[draw(st.sampled_from(sorted(BASES)))])
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        squares = doc.get("squares") or []
        if mutation == "drop_key":
            if doc:
                del doc[draw(st.sampled_from(sorted(doc)))]
        elif mutation == "add_vertex":
            if isinstance(doc.get("vertices"), list):
                doc["vertices"].append(draw(st.sampled_from(["w", "v", "v0"])))
        elif mutation == "retarget_terminus":
            edges = [e for key in EDGE_LISTS for e in doc.get(key, [])]
            if edges:
                vertices = list(doc.get("vertices", [])) + ["nowhere"]
                draw(st.sampled_from(edges))["terminus"] = draw(st.sampled_from(vertices))
        elif not squares:
            continue
        elif mutation == "duplicate_square":
            squares.append(json.loads(json.dumps(draw(st.sampled_from(squares)))))
        elif mutation == "drop_square":
            squares.pop(draw(st.integers(0, len(squares) - 1)))
        else:
            sq = draw(st.sampled_from(squares))
            slot = draw(st.sampled_from(SLOTS))
            if mutation == "wrong_ref_type":
                sq[slot] = draw(st.sampled_from(WRONG_REFS))
            elif not isinstance(sq[slot], dict):
                continue
            elif mutation == "flip_reversed":
                sq[slot]["reversed"] = not sq[slot].get("reversed", False)
            elif all(key in doc for key in EDGE_LISTS):  # retarget_ref
                sq[slot]["edge"] = draw(st.sampled_from(_edge_ids(doc) + ["unknown"]))
    return json.dumps(doc, indent=2)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["analyze", path], ["verify", path], ["validate", path, "--json"]):
            first = _run(argv)
            assert first[0] in (0, 1, 2), (argv, first)
            assert _run(argv) == first, argv
