"""Document builders and random valid-complex generators for the tests."""

import importlib.util
import json
import random
import sys
from pathlib import Path

LADDER = ((5, 13), (5, 17), (5, 29), (13, 17), (17, 29), (29, 37))


def random_batch_documents(seed):
    """The documents of perfbench's random-batch workload for this seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look the module up
    del sys.modules[spec.name]
    return [item.doc for item in workloads.RandomBatch().build(None, random.Random(seed))]


def ref(edge, reversed=False):
    return {"edge": edge, "reversed": reversed}


def square(a, b, a_prime, b_prime):
    return {"a": a, "b": b, "a_prime": a_prime, "b_prime": b_prime}


def one_vertex_doc(h_ids, v_ids, squares, vertex="v", metadata=None):
    doc = {
        "vertices": [vertex],
        "horizontal_edges": [{"id": e, "origin": vertex, "terminus": vertex} for e in h_ids],
        "vertical_edges": [{"id": e, "origin": vertex, "terminus": vertex} for e in v_ids],
        "squares": squares,
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2)


def torus_doc():
    return one_vertex_doc(
        ["a"], ["b"], [square(ref("a"), ref("b"), ref("a"), ref("b"))]
    )


def f2xf2_doc():
    squares = [
        square(ref(a), ref(b), ref(a), ref(b))
        for a in ("a1", "a2")
        for b in ("b1", "b2")
    ]
    return one_vertex_doc(["a1", "a2"], ["b1", "b2"], squares)


def klein_doc():
    # One square glued with a vertical flip: H1 = Z + Z/2, H2 = 0.
    return one_vertex_doc(
        ["a"], ["b"], [square(ref("a"), ref("b"), ref("a"), ref("b", True))]
    )


def two_vertex_klein_doc():
    # Horizontal edges a1: v0 -> v1 and a2: v1 -> v0, a vertical loop at
    # each vertex, and the second square glued with a flip of b0.  d1 is
    # not zero, and H1 = Z + Z/2, H2 = 0.
    return json.dumps(
        {
            "vertices": ["v0", "v1"],
            "horizontal_edges": [
                {"id": "a1", "origin": "v0", "terminus": "v1"},
                {"id": "a2", "origin": "v1", "terminus": "v0"},
            ],
            "vertical_edges": [
                {"id": "b0", "origin": "v0", "terminus": "v0"},
                {"id": "b1", "origin": "v1", "terminus": "v1"},
            ],
            "squares": [
                square(ref("a1"), ref("b0"), ref("a1"), ref("b1")),
                square(ref("a2"), ref("b1"), ref("a2"), ref("b0", True)),
            ],
        }
    )


def two_torus_components_doc():
    return json.dumps(
        {
            "vertices": ["v", "w"],
            "horizontal_edges": [
                {"id": "a", "origin": "v", "terminus": "v"},
                {"id": "c", "origin": "w", "terminus": "w"},
            ],
            "vertical_edges": [
                {"id": "b", "origin": "v", "terminus": "v"},
                {"id": "d", "origin": "w", "terminus": "w"},
            ],
            "squares": [
                square(ref("a"), ref("b"), ref("a"), ref("b")),
                square(ref("c"), ref("d"), ref("c"), ref("d")),
            ],
        }
    )


# --- random one-vertex complexes --------------------------------------------
#
# A one-vertex VH-T complex is the same thing as a partition of all pairs
# (directed horizontal, directed vertical) into free reflection orbits; the
# generator fills the pair set greedily and restarts on dead ends.


def _bar(d):
    return (d[0], not d[1])


def random_one_vertex_doc(rng, n_h, n_v):
    dirs_h = [(f"a{i + 1}", r) for i in range(n_h) for r in (False, True)]
    dirs_v = [(f"b{i + 1}", r) for i in range(n_v) for r in (False, True)]
    while True:
        unused = {(al, be) for al in dirs_h for be in dirs_v}
        chosen = []
        stuck = False
        while unused:
            alpha, beta = min(unused)
            candidates = []
            for a2 in dirs_h:
                for b2 in dirs_v:
                    if (a2, b2) == (_bar(alpha), _bar(beta)):
                        continue
                    if (
                        (a2, _bar(beta)) in unused
                        and (_bar(alpha), b2) in unused
                        and (_bar(a2), _bar(b2)) in unused
                    ):
                        candidates.append((a2, b2))
            if not candidates:
                stuck = True
                break
            a2, b2 = candidates[rng.randrange(len(candidates))]
            for pair in (
                (alpha, beta),
                (a2, _bar(beta)),
                (_bar(alpha), b2),
                (_bar(a2), _bar(b2)),
            ):
                unused.remove(pair)
            chosen.append((alpha, beta, a2, b2))
        if not stuck:
            squares = [
                square(
                    ref(alpha[0], alpha[1]),
                    ref(beta[0], beta[1]),
                    ref(a2[0], a2[1]),
                    ref(b2[0], b2[1]),
                )
                for alpha, beta, a2, b2 in chosen
            ]
            return one_vertex_doc(
                [f"a{i + 1}" for i in range(n_h)],
                [f"b{i + 1}" for i in range(n_v)],
                squares,
            )


# --- random products of multigraphs ------------------------------------------
#
# The product of two connected multigraphs is always a valid VH-T complex,
# and Kuenneth gives independent homology oracles:
#   H2 rank = b1(G1) * b1(G2),  H1 = Z^(b1(G1) + b1(G2)) torsion-free,
# with b1 = edges - vertices + 1.


def random_multigraph(rng, n_vertices, extra_edges, min_degree):
    """Connected multigraph (loops and parallel edges allowed) as an edge list."""
    edges = [(rng.randrange(i), i) for i in range(1, n_vertices)]

    def degrees():
        deg = [0] * n_vertices
        for o, t in edges:
            deg[o] += 1
            deg[t] += 1
        return deg

    for _ in range(extra_edges):
        edges.append((rng.randrange(n_vertices), rng.randrange(n_vertices)))
    while True:
        deg = degrees()
        low = min(range(n_vertices), key=lambda v: deg[v])
        if deg[low] >= min_degree:
            break
        edges.append((low, rng.randrange(n_vertices)))
    return n_vertices, edges


def betti1(graph):
    n, edges = graph
    return len(edges) - n + 1


def product_doc(g1, g2):
    n1, e1 = g1
    n2, e2 = g2
    vertices = [f"u{i}w{j}" for i in range(n1) for j in range(n2)]
    h_edges = [
        {"id": f"h{k}_{j}", "origin": f"u{o}w{j}", "terminus": f"u{t}w{j}"}
        for k, (o, t) in enumerate(e1)
        for j in range(n2)
    ]
    v_edges = [
        {"id": f"v{i}_{k}", "origin": f"u{i}w{o}", "terminus": f"u{i}w{t}"}
        for i in range(n1)
        for k, (o, t) in enumerate(e2)
    ]
    squares = [
        square(
            ref(f"h{k1}_{o2}"),
            ref(f"v{o1}_{k2}"),
            ref(f"h{k1}_{t2}"),
            ref(f"v{t1}_{k2}"),
        )
        for k1, (o1, t1) in enumerate(e1)
        for k2, (o2, t2) in enumerate(e2)
    ]
    return json.dumps(
        {
            "vertices": vertices,
            "horizontal_edges": h_edges,
            "vertical_edges": v_edges,
            "squares": squares,
        }
    )
