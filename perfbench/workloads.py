"""Workloads: seeded inputs, the timed operation and the output checks.

Each workload builds its documents in set-up, runs one operation per
document in a pass, and checks every output afterwards.  The random batch
uses this file's own generators, so that edits to the test helpers cannot
change the workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# The ROADMAP ladder.  (17,29) is left out: one analysis takes about 50 s,
# longer than a whole run (see README.md for the promotion rule).
LADDER = ((5, 13), (5, 17), (5, 29), (13, 17))
EXPORT_PAIR = (29, 37)

# Random batch: per pass, every one-vertex size (n_h, n_v) in 2..5 x 2..5
# and every product size below appears REPEAT times, so only the structure,
# not the size mix, depends on the seed.
ONE_VERTEX_SIZES = tuple((h, v) for h in range(2, 6) for v in range(2, 6))
# (vertices, edges) of the two factors; every vertex has degree >= 3.
PRODUCT_SIZES = (
    ((1, 2), (2, 3)),
    ((1, 3), (2, 3)),
    ((2, 3), (2, 3)),
    ((2, 3), (2, 4)),
    ((1, 2), (3, 5)),
    ((2, 4), (2, 4)),
    ((2, 3), (3, 5)),
    ((1, 3), (3, 6)),
    ((3, 5), (2, 4)),
    ((2, 4), (1, 4)),
    ((3, 5), (3, 5)),
    ((2, 3), (1, 5)),
    ((1, 2), (1, 3)),
    ((2, 5), (2, 3)),
    ((3, 6), (1, 2)),
    ((2, 3), (2, 5)),
)
REPEAT = 4


@dataclass
class Item:
    name: str
    doc: str
    expect: dict
    data: bytes = field(init=False)

    def __post_init__(self):
        self.data = self.doc.encode("utf-8")


# --- random documents ---------------------------------------------------------


def _ref(edge, reversed_):
    return {"edge": edge, "reversed": reversed_}


def one_vertex_doc(rng: random.Random, n_h: int, n_v: int) -> str:
    """A random one-vertex VH-T complex with n_h horizontal, n_v vertical edges.

    Its squares partition the pairs (directed horizontal, directed vertical)
    into free reflection orbits {(a,b), (a',~b), (~a,b'), (~a',~b')}; the
    partition is drawn greedily and redrawn after a dead end.
    """
    hs = [(f"a{i}", r) for i in range(1, n_h + 1) for r in (False, True)]
    vs = [(f"b{i}", r) for i in range(1, n_v + 1) for r in (False, True)]

    def bar(d):
        return (d[0], not d[1])

    while True:
        free = {(a, b) for a in hs for b in vs}
        squares = []
        while free:
            a, b = min(free)
            options = [
                (a2, b2)
                for a2 in hs
                for b2 in vs
                if (a2, b2) != (bar(a), bar(b))
                and (a2, bar(b)) in free
                and (bar(a), b2) in free
                and (bar(a2), bar(b2)) in free
            ]
            if not options:
                break
            a2, b2 = rng.choice(options)
            free -= {(a, b), (a2, bar(b)), (bar(a), b2), (bar(a2), bar(b2))}
            squares.append({"a": _ref(*a), "b": _ref(*b), "a_prime": _ref(*a2), "b_prime": _ref(*b2)})
        if not free:
            break
    doc = {
        "vertices": ["v"],
        "horizontal_edges": [{"id": f"a{i}", "origin": "v", "terminus": "v"} for i in range(1, n_h + 1)],
        "vertical_edges": [{"id": f"b{i}", "origin": "v", "terminus": "v"} for i in range(1, n_v + 1)],
        "squares": squares,
    }
    return json.dumps(doc)


def multigraph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random connected multigraph with n vertices, m edges (loops and
    parallel edges allowed) and every vertex of degree at least 3."""
    while True:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(m - len(edges))]
        degree = [0] * n
        for o, t in edges:
            degree[o] += 1
            degree[t] += 1
        if min(degree) >= 3:
            return edges


def product_doc(g1: tuple[int, list], g2: tuple[int, list]) -> str:
    """The product square complex of two graphs given as (n, edges)."""
    (n1, e1), (n2, e2) = g1, g2
    doc = {
        "vertices": [f"u{i}w{j}" for i in range(n1) for j in range(n2)],
        "horizontal_edges": [
            {"id": f"h{k}_{j}", "origin": f"u{o}w{j}", "terminus": f"u{t}w{j}"}
            for k, (o, t) in enumerate(e1)
            for j in range(n2)
        ],
        "vertical_edges": [
            {"id": f"v{i}_{k}", "origin": f"u{i}w{o}", "terminus": f"u{i}w{t}"}
            for i in range(n1)
            for k, (o, t) in enumerate(e2)
        ],
        "squares": [
            {
                "a": _ref(f"h{k1}_{o2}", False),
                "b": _ref(f"v{o1}_{k2}", False),
                "a_prime": _ref(f"h{k1}_{t2}", False),
                "b_prime": _ref(f"v{t1}_{k2}", False),
            }
            for k1, (o1, t1) in enumerate(e1)
            for k2, (o2, t2) in enumerate(e2)
        ],
    }
    return json.dumps(doc)


# --- checks -------------------------------------------------------------------


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_report(text: str, expect: dict) -> list[str]:
    """Problems with one canonical analyze report against known answers."""
    report = json.loads(text)
    hom, til, thm = report["homology"], report["tiling"], report["theorem"]
    problems: list[str] = []
    kind = expect["kind"]
    if kind == "mozes":
        p, l = expect["p"], expect["l"]
        _expect(problems, "k0_rank", til["k0_rank"], (p - 1) * (l - 1) // 2 - 2)
        _expect(problems, "euler_characteristic", hom["euler_characteristic"], (p - 1) * (l - 1) // 4)
        _expect(problems, "within_hypotheses", thm["within_hypotheses"], True)
        _expect(
            problems, "interpretation_supported", til["hypotheses"]["interpretation_supported"], True
        )
    elif kind == "product":
        # Kuenneth for a product of connected graphs with first Betti numbers b1, b2.
        b1, b2 = expect["b1"], expect["b2"]
        _expect(problems, "h0", hom["h0"], {"free_rank": 1, "torsion": []})
        _expect(problems, "h1", hom["h1"], {"free_rank": b1 + b2, "torsion": []})
        _expect(problems, "h2_rank", hom["h2_rank"], b1 * b2)
    elif kind == "one_vertex":
        n_h, n_v = expect["n_h"], expect["n_v"]
        _expect(problems, "euler_characteristic", hom["euler_characteristic"], (n_h - 1) * (n_v - 1))
        _expect(problems, "theorem.ranks_equal", thm["ranks_equal"], True)
    else:
        raise ValueError(f"unknown expectation {kind!r}")
    _expect(problems, "k0_rank", til["k0_rank"], 2 * til["kernel_rank"])
    if thm["within_hypotheses"]:
        _expect(problems, "theorem.holds", thm["holds"], True)
        _expect(problems, "h2_rank", hom["h2_rank"], til["kernel_rank"])
    return problems


def analyze_op(t, item: Item) -> str:
    """`treelat analyze --json` in-process: analysis plus the canonical report."""
    _, analysis = t.cli.analyze_document(item.doc)
    if analysis is None:
        raise ValueError(f"{item.name}: document failed validation")
    return json.dumps(t.cli.build_report(analysis, item.data), indent=2) + "\n"


def export_op(t, item: Item) -> tuple[str, str, tuple[bool, bool]]:
    """`treelat generate` then `treelat export --what stacked`, in-process."""
    p, l = item.expect["p"], item.expect["l"]
    doc = t.mozes.generate_mozes_complex(p, l)
    c = t.complex_model.load_complex(doc)
    if t.complex_model.validate_vht(c).errors:
        raise ValueError(f"{item.name}: generated document failed validation")
    r = t.complex_model.expand_directed_squares(c)
    ts = t.tiling_system.build_tiling(r, c)
    conn = t.tiling_system.connectivity(ts, c)
    text = t.matio.write_triplets(t.tiling_system.stacked_matrix(ts))
    return doc, text, (conn.horizontal.strongly_connected, conn.vertical.strongly_connected)


def check_export(t, item: Item, out) -> list[str]:
    """The triplets read back to the 2n x n stacked matrix of the document."""
    doc, text, strong = out
    p, l = item.expect["p"], item.expect["l"]
    n = (p + 1) * (l + 1)
    problems: list[str] = []
    _expect(problems, "tile graphs strongly connected", strong, (True, True))
    c = t.complex_model.load_complex(doc)
    r = t.complex_model.expand_directed_squares(c)
    stacked = t.tiling_system.stacked_matrix(t.tiling_system.build_tiling(r, c))
    back = t.matio.read_triplets(text)
    _expect(problems, "shape", (back.rows, back.cols), (2 * n, n))
    if back != stacked:
        problems.append("triplets do not read back to the stacked matrix")
    # Every tile has p (resp. l) horizontal (vertical) successors, so the
    # columns of M1 - I and M2 - I sum to p - 1 and l - 1.
    columns = list(zip(*back.entries))
    _expect(problems, "column sums of M1 - I", {sum(col[:n]) for col in columns}, {p - 1})
    _expect(problems, "column sums of M2 - I", {sum(col[n:]) for col in columns}, {l - 1})
    return problems


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""

    def build(self, t, rng: random.Random) -> list[Item]:
        raise NotImplementedError

    def order(self, items: list[Item], rng: random.Random) -> list[Item]:
        return items

    def run(self, t, item: Item):
        return analyze_op(t, item)

    def check(self, t, item: Item, out) -> list[str]:
        return check_report(out, item.expect)

    def tamper(self, out):
        """A deliberately wrong output, which check() must reject."""
        report = json.loads(out)
        report["tiling"]["k0_rank"] += 2
        return json.dumps(report, indent=2) + "\n"


class MozesAnalyze(Workload):
    name = "mozes-analyze"

    def build(self, t, rng):
        return [
            Item(f"{p},{l}", t.mozes.generate_mozes_complex(p, l), {"kind": "mozes", "p": p, "l": l})
            for p, l in LADDER
        ]

    def order(self, items, rng):
        # The seed only shuffles the ladder within each pass; the
        # documents are fixed by (p, l).
        items = list(items)
        rng.shuffle(items)
        return items


class MozesExport(Workload):
    name = "mozes-export"

    def build(self, t, rng):
        p, l = EXPORT_PAIR
        # Generation is part of the timed operation, so set-up has no document.
        return [Item(f"{p},{l}", "", {"kind": "mozes", "p": p, "l": l})]

    def run(self, t, item):
        return export_op(t, item)

    def check(self, t, item, out):
        return check_export(t, item, out)

    def tamper(self, out):
        doc, text, strong = out
        lines = text.split("\n")
        i, j, x = lines[1].split()
        lines[1] = f"{i} {j} {-int(x)}"
        return doc, "\n".join(lines), strong


class RandomBatch(Workload):
    name = "random-batch"

    def build(self, t, rng):
        items = []
        for k in range(REPEAT):
            for n_h, n_v in ONE_VERTEX_SIZES:
                items.append(
                    Item(
                        f"ov{k}-{n_h}x{n_v}",
                        one_vertex_doc(rng, n_h, n_v),
                        {"kind": "one_vertex", "n_h": n_h, "n_v": n_v},
                    )
                )
            for (n1, m1), (n2, m2) in PRODUCT_SIZES:
                items.append(
                    Item(
                        f"pr{k}-{n1}.{m1}x{n2}.{m2}",
                        product_doc((n1, multigraph(rng, n1, m1)), (n2, multigraph(rng, n2, m2))),
                        {"kind": "product", "b1": m1 - n1 + 1, "b2": m2 - n2 + 1},
                    )
                )
        rng.shuffle(items)
        return items


WORKLOADS = {w.name: w for w in (MozesAnalyze(), MozesExport(), RandomBatch())}
