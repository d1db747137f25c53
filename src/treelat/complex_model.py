"""Finite VH-T square complexes: data model, parser, validator, reflections.

Conventions.  A directed square has four directed edges (a, b, a', b'): a
runs along the bottom, b up the left side, a' along the top and b' up the
right side, so the corner incidences are

    o(a) = o(b),  t(a) = o(b'),  t(b) = o(a'),  t(a') = t(b').

Each geometric edge of the input determines two directed edges, the forward
one (origin -> terminus, the chosen orientation class) and its reversal.
A directed edge is an integer code (EdgeTable): 2i + reversed for the i-th
geometric edge, horizontal edges first, so ~x, the reversal, is x ^ 1, and
a directed square is the tuple of its four codes.  The Klein four-group of
reflections acts on directed squares by

    t^v  = (a', ~b, a, ~b'),   t^h  = (~a, b', ~a', b),   t^vh = (~a', ~b', ~a, ~b)

(orbit_codes).  The squares listed in a document are the orbit
representatives; expansion appends the v-, h- and vh-images, so a
structurally sound complex with n squares always expands to 4n directed
squares, indexed orbit-major in the order (1, v, h, vh): tile t is the
reflection SIGMA_TAGS[t & 3] of square t >> 2.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple

SIGMA_TAGS = ("1", "v", "h", "vh")


class ComplexFormatError(ValueError):
    """Raised by load_complex on malformed or structurally unsound documents."""

    def __init__(self, problems: Iterable[str]):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


class DegenerateOrbitError(ValueError):
    """Raised when a reflection orbit collapses below its four elements."""


class GeometricEdge(NamedTuple):
    id: str
    origin: str
    terminus: str


def orbit_codes(a: int, b: int, ap: int, bp: int) -> tuple[tuple[int, int, int, int], ...]:
    """The codes of t, t^v, t^h and t^vh for the square t with codes
    (a, b, a', b'): the reflections of the module docstring, with ~x = x ^ 1.
    Any numbering in which code ^ 1 is the reversal will do."""
    return (
        (a, b, ap, bp),
        (ap, b ^ 1, a, bp ^ 1),
        (a ^ 1, bp, ap ^ 1, b),
        (ap ^ 1, bp ^ 1, a ^ 1, b ^ 1),
    )


class EdgeTable:
    """Every directed edge of a complex numbered once; SquareComplex.edge_table
    builds it once per complex.

    Directed edge (e, reversed) has code 2i + reversed, where e is the i-th
    geometric edge, horizontal edges first and then vertical ones: the row
    order of d2, so code >> 1 is the row of the edge and code & 1 its sign,
    and code ^ 1 is the reversal.  Codes below `vertical` are horizontal.
    position maps an edge id to 2i, and origin[code] and terminus[code] are
    vertex indices into SquareComplex.vertices.
    """

    def __init__(self, c: SquareComplex):
        vertex = {v: i for i, v in enumerate(c.vertices)}
        position: dict[str, int] = {}
        origin: list[int] = []
        terminus: list[int] = []
        for e in c.h_edges + c.v_edges:
            position[e.id] = len(origin)
            o, t = vertex[e.origin], vertex[e.terminus]
            origin += (o, t)
            terminus += (t, o)
        self.position = position
        self.origin = tuple(origin)
        self.terminus = tuple(terminus)
        self.vertical = 2 * len(c.h_edges)
        self._squares = c.squares

    @cached_property
    def tiles(self) -> tuple[tuple[int, int, int, int], ...]:
        """The codes (a, b, a', b') of all 4n directed squares, orbit-major
        in the order (1, v, h, vh) (orbit_codes)."""
        return tuple(t for square in self._squares for t in orbit_codes(*square))


class _SquareComplexFields(NamedTuple):
    vertices: tuple[str, ...]
    h_edges: tuple[GeometricEdge, ...]
    v_edges: tuple[GeometricEdge, ...]
    squares: tuple[tuple[int, int, int, int], ...]


class SquareComplex(_SquareComplexFields):
    """squares holds the codes (a, b, a', b') of each orbit representative,
    in document order (EdgeTable numbers the codes).  No __slots__: the
    cached properties below keep their values in the instance __dict__."""

    @cached_property
    def edge_table(self) -> EdgeTable:
        """The numbering of the directed edges, built once (EdgeTable)."""
        return EdgeTable(self)

    @cached_property
    def component_count(self) -> int:
        """The number of connected components of the 1-skeleton, found once
        by a union-find over the edges, for validate_vht and for H0 in
        homology.homology_report."""
        table = self.edge_table
        uf = _UnionFind(len(self.vertices))
        uf.union_all(zip(table.origin[::2], table.terminus[::2]))
        return uf.component_count()

    @cached_property
    def degrees(self) -> dict[str, tuple[int, int]]:
        """Per vertex: number of directed horizontal / vertical edges based there.

        A loop contributes two (one per direction), matching link size.
        """
        deg = {v: [0, 0] for v in self.vertices}
        for slot, edges in ((0, self.h_edges), (1, self.v_edges)):
            for e in edges:
                deg[e.origin][slot] += 1
                deg[e.terminus][slot] += 1
        return {v: (h, w) for v, (h, w) in deg.items()}


class ValidationIssue(NamedTuple):
    kind: str
    message: str


class ValidationReport(NamedTuple):
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]


def _degenerate_orbits(c: SquareComplex) -> list[int]:
    # t equals its vh-image exactly when both opposite sides are the same
    # edge traversed backwards; the v- and h-degeneracies cannot even be
    # written down in this representation (they would need an edge equal to
    # its own reversal).
    return [k for k, (a, b, ap, bp) in enumerate(c.squares) if ap == a ^ 1 and bp == b ^ 1]


def expand_directed_squares(c: SquareComplex) -> tuple[tuple[int, int, int, int], ...]:
    """The codes of all 4n directed squares, orbit-major, each orbit ordered
    (1, v, h, vh): EdgeTable.tiles, once no orbit is degenerate."""
    bad = _degenerate_orbits(c)
    if bad:
        raise DegenerateOrbitError(
            f"squares {bad} coincide with their vh-images; orbits are not free"
        )
    return c.edge_table.tiles


# --- parsing ---------------------------------------------------------------

_TOP_KEYS = ("vertices", "horizontal_edges", "vertical_edges", "squares")
_EDGE_KEYS = ("id", "origin", "terminus")
# the keys of a square, in document order, and the axis of each slot
_SLOT_AXIS = {"a": "horizontal", "b": "vertical", "a_prime": "horizontal", "b_prime": "vertical"}
_REF_KEYS = frozenset(("edge", "reversed"))


def _parse_edges(raw, key, vertex_set, problems) -> list[GeometricEdge]:
    edges = []
    if not isinstance(raw, list):
        problems.append(f"{key} must be an array")
        return edges
    for k, item in enumerate(raw):
        # A well-formed edge, exactly the three keys, all strings, with
        # both ends known, is taken in one hit; the types come first, as
        # a list cannot be hashed.  Anything else takes the diagnosis
        # below.
        if type(item) is dict and len(item) == 3:
            id_, o, t = item.get("id"), item.get("origin"), item.get("terminus")
            if (
                type(id_) is str
                and type(o) is str
                and type(t) is str
                and o in vertex_set
                and t in vertex_set
            ):
                edges.append(GeometricEdge(id_, o, t))
                continue
        if not isinstance(item, dict):
            problems.append(f"{key}[{k}] must be an object")
            continue
        unknown = set(item) - set(_EDGE_KEYS)
        if unknown:
            problems.append(f"{key}[{k}]: unknown keys {sorted(unknown)}")
            continue
        missing = [x for x in _EDGE_KEYS if x not in item]
        if missing:
            problems.append(f"{key}[{k}]: missing keys {missing}")
            continue
        if not all(isinstance(item[x], str) for x in _EDGE_KEYS):
            problems.append(f"{key}[{k}]: id, origin and terminus must be strings")
            continue
        for end in ("origin", "terminus"):
            if item[end] not in vertex_set:
                problems.append(
                    f"{key}[{k}] ('{item['id']}'): unknown vertex '{item[end]}'"
                )
        edges.append(GeometricEdge(item["id"], item["origin"], item["terminus"]))
    return edges


def _parse_ref(raw, k, slot, problems) -> tuple[str, bool] | None:
    """The (edge, reversed) in slot of squares[k]; its problems name the
    slot, and the name is built only then."""
    if not isinstance(raw, dict):
        problems.append(f"squares[{k}].{slot} must be an object")
        return None
    if not raw.keys() <= _REF_KEYS:
        problems.append(f"squares[{k}].{slot}: unknown keys {sorted(raw.keys() - _REF_KEYS)}")
        return None
    key = raw.get("edge"), raw.get("reversed")
    if not isinstance(key[0], str) or not isinstance(key[1], bool):
        problems.append(f"squares[{k}].{slot}: need edge (string) and reversed (boolean)")
        return None
    return key


def _corners_agree(squares, origin, terminus) -> bool:
    """Every corner incidence of the module docstring holds for the codes
    (a, b, a', b') of these squares, compared a column at a time."""
    if not squares:
        return True
    a, b, ap, bp = zip(*squares)

    def ends(side, codes) -> list[int]:
        return list(map(side.__getitem__, codes))

    return (
        ends(origin, a) == ends(origin, b)
        and ends(terminus, a) == ends(origin, bp)
        and ends(terminus, b) == ends(origin, ap)
        and ends(terminus, ap) == ends(terminus, bp)
    )


def load_complex(text: str) -> SquareComplex:
    """Parse a complex document; total and deterministic.

    Raises ComplexFormatError carrying every problem found: malformed JSON,
    unknown keys, missing or duplicate ids, unknown edge or vertex
    references, an edge used in the wrong role, or a corner incidence
    failure (all named by square or edge id).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexFormatError([f"not valid JSON: {exc}"]) from exc
    except RecursionError:
        raise ComplexFormatError(["not valid JSON: nested too deeply"]) from None
    if not isinstance(doc, dict):
        raise ComplexFormatError(["document root must be an object"])

    problems: list[str] = []
    unknown = set(doc) - set(_TOP_KEYS) - {"metadata"}
    if unknown:
        problems.append(f"unknown top-level keys {sorted(unknown)}")
    if "metadata" in doc and not isinstance(doc["metadata"], dict):
        problems.append("metadata must be an object")
    missing = [k for k in _TOP_KEYS if k not in doc]
    if missing:
        problems.append(f"missing top-level keys {missing}")
        raise ComplexFormatError(problems)

    raw_vertices = doc["vertices"]
    vertices: list[str] = []
    if not isinstance(raw_vertices, list) or not all(isinstance(v, str) for v in raw_vertices):
        problems.append("vertices must be an array of strings")
    else:
        vertices = list(raw_vertices)
        seen = set()
        for v in vertices:
            if v in seen:
                problems.append(f"duplicate vertex id '{v}'")
            seen.add(v)

    vertex_set = set(vertices)
    h_edges = _parse_edges(doc["horizontal_edges"], "horizontal_edges", vertex_set, problems)
    v_edges = _parse_edges(doc["vertical_edges"], "vertical_edges", vertex_set, problems)

    # the axes each edge id is listed under, once per listing
    axes: dict[str, tuple[str, ...]] = {}
    for axis, edges in (("horizontal", h_edges), ("vertical", v_edges)):
        for e in edges:
            if e.id in axes:
                problems.append(f"duplicate edge id '{e.id}'")
            axes[e.id] = axes.get(e.id, ()) + (axis,)
    # The code of each (id, reversed) on each axis, 2i + reversed as
    # EdgeTable numbers it: a well-formed slot takes its code in one hit.
    position = {e.id: 2 * i for i, e in enumerate(h_edges + v_edges)}
    code_on = {
        axis: {(e.id, r): position[e.id] + r for e in edges for r in (False, True)}
        for axis, edges in (("horizontal", h_edges), ("vertical", v_edges))
    }
    slots = [(slot, axis, code_on[axis]) for slot, axis in _SLOT_AXIS.items()]

    squares: list[tuple[int, ...]] = []
    raw_squares = doc["squares"]
    if not isinstance(raw_squares, list):
        problems.append("squares must be an array")
        raw_squares = []
    for k, item in enumerate(raw_squares):
        if not isinstance(item, dict):
            problems.append(f"squares[{k}] must be an object")
            continue
        if item.keys() != _SLOT_AXIS.keys():
            unknown = item.keys() - _SLOT_AXIS.keys()
            if unknown:
                problems.append(f"squares[{k}]: unknown keys {sorted(unknown)}")
                continue
            missing = [x for x in _SLOT_AXIS if x not in item]
            problems.append(f"squares[{k}]: missing keys {missing}")
            continue
        codes = []
        for slot, axis, code_of in slots:
            ref = item[slot]
            # The hit needs exactly the two keys and their exact types
            # first: (id, 0) and (id, 1.0) hash and compare as (id, False)
            # and (id, True), and a list cannot be hashed.  A miss takes
            # the diagnosis below.
            if type(ref) is dict and len(ref) == 2:
                edge, reversed_ = ref.get("edge"), ref.get("reversed")
                if type(edge) is str and type(reversed_) is bool:
                    code = code_of.get((edge, reversed_))
                    if code is not None:
                        codes.append(code)
                        continue
            key = _parse_ref(ref, k, slot, problems)
            if key is None:
                continue
            edge, reversed_ = key
            listed = axes.get(edge)
            if listed is None:
                problems.append(f"squares[{k}].{slot}: unknown edge '{edge}'")
            elif axis not in listed:
                problems.append(
                    f"squares[{k}].{slot}: edge '{edge}' is {listed[0]} but the slot is {axis}"
                )
            else:
                codes.append(position[edge] + reversed_)
        if len(codes) == 4:
            squares.append(tuple(codes))

    if problems:
        raise ComplexFormatError(problems)

    c = SquareComplex(tuple(vertices), tuple(h_edges), tuple(v_edges), tuple(squares))

    # With one vertex every incidence holds; the message loop runs only
    # when one fails somewhere.
    table = c.edge_table
    o, t = table.origin, table.terminus
    if len(c.vertices) > 1 and not _corners_agree(c.squares, o, t):
        for k, (a, b, ap, bp) in enumerate(c.squares):
            for left, right, x, y in (
                ("o(a)", "o(b)", o[a], o[b]),
                ("t(a)", "o(b_prime)", t[a], o[bp]),
                ("t(b)", "o(a_prime)", t[b], o[ap]),
                ("t(a_prime)", "t(b_prime)", t[ap], t[bp]),
            ):
                if x != y:
                    problems.append(
                        f"squares[{k}]: corner incidence {left} = {right} fails"
                        f" ('{c.vertices[x]}' != '{c.vertices[y]}')"
                    )
    if problems:
        raise ComplexFormatError(problems)
    return c


def _json_array(items: list[str]) -> str:
    """Already written items as the array of a top-level field, laid out
    as json.dumps(indent=2) lays it out."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def serialize_complex(c: SquareComplex, metadata: dict | None = None) -> str:
    """Canonical document text: fixed key order, input array order.

    The text of json.dumps(doc, indent=2), written from string templates:
    strings are escaped by encode_basestring_ascii, as json.dumps escapes
    them, and only metadata goes through json.dumps itself.
    """
    q = encode_basestring_ascii

    def edge(e: GeometricEdge) -> str:
        return (
            f'{{\n      "id": {q(e.id)},\n      "origin": {q(e.origin)},'
            f'\n      "terminus": {q(e.terminus)}\n    }}'
        )

    # the text of each directed edge, by code (EdgeTable)
    refs = [
        f'{{\n        "edge": {q(e.id)},\n        "reversed": {flag}\n      }}'
        for e in c.h_edges + c.v_edges
        for flag in ("false", "true")
    ]
    squares = [
        f'{{\n      "a": {refs[a]},\n      "b": {refs[b]},'
        f'\n      "a_prime": {refs[ap]},\n      "b_prime": {refs[bp]}\n    }}'
        for a, b, ap, bp in c.squares
    ]
    fields = [
        f'"vertices": {_json_array([q(v) for v in c.vertices])}',
        f'"horizontal_edges": {_json_array([edge(e) for e in c.h_edges])}',
        f'"vertical_edges": {_json_array([edge(e) for e in c.v_edges])}',
        f'"squares": {_json_array(squares)}',
    ]
    if metadata is not None:
        fields.append('"metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  "))
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


# --- validation -------------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union_all(self, pairs) -> None:
        """Join the classes of x and y for every pair (x, y), in one loop
        with the finds written out."""
        parent = self.parent
        for x, y in pairs:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            parent[x] = y

    def component_count(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def validate_vht(c: SquareComplex) -> ValidationReport:
    """Check the VH-T conditions beyond structural soundness.

    Errors: a link failure (the corner map over all directed squares is not
    a bijection onto incident horizontal/vertical directed-edge pairs), a
    corner collision that forces some directed edge to equal its own
    reversal, a degenerate reflection orbit, or a disconnected complex.
    Degrees below three only warn: homology is still meaningful there, but
    the tiling-kernel rank identity is outside its hypotheses.

    Everything is read off the edge codes (SquareComplex.edge_table), in
    time linear in tiles plus edges on a valid complex.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    for v, (hd, vd) in c.degrees.items():
        if hd < 3:
            warnings.append(
                ValidationIssue("low_h_degree", f"horizontal degree {hd} < 3 at vertex {v}")
            )
        if vd < 3:
            warnings.append(
                ValidationIssue("low_v_degree", f"vertical degree {vd} < 3 at vertex {v}")
            )

    if not c.vertices:
        errors.append(ValidationIssue("disconnected", "complex has no vertices"))
    elif c.component_count > 1:
        errors.append(
            ValidationIssue(
                "disconnected", f"complex has {c.component_count} connected components"
            )
        )

    for k in _degenerate_orbits(c):
        errors.append(
            ValidationIssue(
                "orbit_degenerate",
                f"square {k} equals its vh-image; its reflection orbit has size 2",
            )
        )

    # Link condition: over the expanded directed squares, t -> (a(t), b(t))
    # must cover each incident pair (horizontal, vertical) exactly once.
    # The pair of codes (x, y) has key x * width + y; cover maps each key
    # to a tile, and repeated maps each key covered more than once to its tiles.
    table = c.edge_table
    tiles = table.tiles
    origin, vertical = table.origin, table.vertical
    width = len(origin)
    keys = [a * width + b for a, b, _, _ in tiles]
    cover = dict(zip(keys, range(len(keys))))
    repeated: dict[int, list[int]] = {}
    if len(cover) < len(keys):
        for t, key in enumerate(keys):
            repeated.setdefault(key, []).append(t)
        repeated = {key: hits for key, hits in repeated.items() if len(hits) > 1}

    ids = [e.id for e in c.h_edges + c.v_edges]

    def name(t: int) -> str:
        return f"{t >> 2}^{SIGMA_TAGS[t & 3]}"

    def display(code: int) -> str:
        return f"~{ids[code >> 1]}" if code & 1 else ids[code >> 1]

    def pair(alpha: int, beta: int) -> str:
        return f"({display(alpha)}, {display(beta)})"

    # The incident pairs, alpha-major over the horizontal codes and then
    # beta over the vertical codes based at each vertex, ascending.
    v_at: list[list[int]] = [[] for _ in c.vertices]
    for beta in range(vertical, width):
        v_at[origin[beta]].append(beta)
    found = 0
    for alpha in range(vertical):
        for beta in v_at[origin[alpha]]:
            key = alpha * width + beta
            if key not in cover:
                errors.append(
                    ValidationIssue(
                        "link_uncovered",
                        f"link failure at vertex {c.vertices[origin[alpha]]}: corner pair "
                        f"{pair(alpha, beta)} not covered by any square",
                    )
                )
                continue
            found += 1
            hits = repeated.get(key)
            if hits is None:
                continue
            shown = pair(alpha, beta)
            errors.append(
                ValidationIssue(
                    "link_multiple",
                    f"link failure: corner pair {shown} covered {len(hits)} times "
                    f"(squares {', '.join(map(name, hits))})",
                )
            )
            # When two colliding squares agree except for direction flags on
            # the opposite sides, the collision forces those edges to equal
            # their own reversals.  Each square is named once, against the
            # first earlier one at this corner with the same a' and b' edges
            # and another direction: first maps (a', b') to its first tile.
            first: dict[tuple[int, int], int] = {}
            for y in hits:
                ap, bp = tiles[y][2:]
                flips = ((ap ^ 1, bp), (ap, bp ^ 1), (ap ^ 1, bp ^ 1))
                earlier = [first[k] for k in flips if k in first]
                first.setdefault((ap, bp), y)
                if earlier:
                    x = min(earlier)
                    forced = [ids[u >> 1] for u, w in zip((ap, bp), tiles[x][2:]) if u != w]
                    errors.append(
                        ValidationIssue(
                            "edge_inverted",
                            f"squares {name(x)} and {name(y)} share corner {shown} and force "
                            + " and ".join(f"{e} = ~{e}" for e in forced),
                        )
                    )
    if found < len(cover):
        # Unreachable for structurally sound complexes (corner incidences
        # guarantee o(a) = o(b)); kept as a safety net.
        for key in cover:
            alpha, beta = divmod(key, width)
            if not (alpha < vertical <= beta and origin[alpha] == origin[beta]):
                errors.append(
                    ValidationIssue(
                        "link_multiple",
                        f"corner pair {pair(alpha, beta)} is not incident",
                    )
                )

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))
