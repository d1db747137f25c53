"""Command-line front end.

Subcommands: validate, analyze, generate, verify, export.  Reports are
canonical JSON with --json (fixed key order, integers only, no timestamps;
the provenance digest is derived from the input bytes alone), so identical
input files produce byte-identical reports.

Every command that takes a document reads, parses and validates it once,
in _load.  analyze runs _analyze on the loaded complex, the one place the
order of the analysis stages is written, which analyze_document runs too;
it builds d2 and no other map of the chain complex, and reads the theorem
block off the tile labels, d2 and ranks on every input
(homology.certified_theorem).  verify runs only the stages its verdict
needs: the tiles, the tiling system, the chain maps and the explicit
checks (_explicit_theorem), which read nothing from certified_theorem.
export builds the one matrix it writes.

Exit codes: 0 success (warnings allowed), 1 on I/O or parse failures,
2 on validation errors or bad parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import NamedTuple

import treelat
from treelat import matio
from treelat.complex_model import (
    ComplexFormatError,
    SquareComplex,
    ValidationReport,
    expand_directed_squares,
    load_complex,
    validate_vht,
)
from treelat.homology import (
    ChainMaps,
    HomologyReport,
    TheoremVerdict,
    boundary_d2,
    certified_theorem,
    chain_maps,
    commuting_square,
    homology_report,
    stacked_kernel_basis,
    verify_main_theorem,
)
from treelat.mozes import MozesParameterError, generate_mozes_complex
from treelat.tiling_system import (
    ConnectivityReport,
    K0Result,
    TilingSystem,
    build_tiling,
    connectivity,
    k0_rank,
)
from treelat.zlinalg import IntMatrix, image_and_smith_form, kernel_and_image

EXPORTABLE = ("m1", "m2", "stacked", "d1", "d2", "phi1", "phi2")


class Analysis(NamedTuple):
    complex: SquareComplex
    validation: ValidationReport
    tiling: TilingSystem
    d2: IntMatrix
    homology: HomologyReport
    connectivity: ConnectivityReport
    k0: K0Result
    theorem: TheoremVerdict


def analyze_document(text: str) -> tuple[ValidationReport, Analysis | None]:
    """Full pipeline; returns (validation, None) when validation fails."""
    c = load_complex(text)
    validation = validate_vht(c)
    if validation.errors:
        return validation, None
    return validation, _analyze(c, validation)


def _analyze(c: SquareComplex, validation: ValidationReport) -> Analysis:
    """The analysis of a loaded complex that passed validation, in the one
    order of its stages.

    d2 is the one map of the chain complex it builds (homology.
    boundary_d2).  The elimination of d2 without its I part gives the
    image block B^T, whose columns give rank d2, and off the same pivots
    the one Smith form of the analysis, for the torsion of H1
    (zlinalg.image_and_smith_form).  The theorem block is read off the
    tile labels, B^T and d2 on every input (homology.certified_theorem):
    check (1) at label resolution and the count of the stacked kernel on
    the component unknowns give every check; phi1 and phi2 are not built,
    no basis of ker d2 or of ker S is formed, and S is never eliminated.
    """
    ts = build_tiling(expand_directed_squares(c), c)
    d2 = boundary_d2(c)
    conn = connectivity(ts, c)
    image, s2 = image_and_smith_form(d2)
    theorem = certified_theorem(c, ts, d2, image)
    return Analysis(
        complex=c,
        validation=validation,
        tiling=ts,
        d2=d2,
        homology=homology_report(c, s2),
        connectivity=conn,
        k0=k0_rank(ts, conn, theorem.rank_ker_stacked),
        theorem=theorem,
    )


def _explicit_theorem(
    c: SquareComplex, tiles: tuple[tuple[int, ...], ...], ts: TilingSystem, maps: ChainMaps
) -> TheoremVerdict:
    """The verdict of verify, from the explicit checks, which read nothing
    from certified_theorem: the elimination of d2 with its I part, for a
    basis H of ker d2; the commuting square; the stacked kernel K, phi2.H
    when the square and the count certify that and otherwise the
    elimination of S; and the checks of verify_main_theorem on K and H.
    analyze never runs it."""
    h, _ = kernel_and_image(maps.d2)
    square = commuting_square(c, ts, maps, h)
    kernel = stacked_kernel_basis(ts, maps, h, square)
    return verify_main_theorem(c, tiles, maps, kernel, h, square)


def _issues(items) -> list[dict]:
    return [{"kind": i.kind, "message": i.message} for i in items]


def _counts_dict(c: SquareComplex) -> dict:
    return {
        "vertices": len(c.vertices),
        "h_edges": len(c.h_edges),
        "v_edges": len(c.v_edges),
        "squares": len(c.squares),
        "directed_squares": 4 * len(c.squares),
    }


def _validation_dict(v: ValidationReport) -> dict:
    return {"errors": _issues(v.errors), "warnings": _issues(v.warnings)}


def _group_dict(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _theorem_dict(t: TheoremVerdict) -> dict:
    return {
        "within_hypotheses": t.within_hypotheses,
        "diagram_commutes": t.diagram_commutes,
        "rank_ker_d2": t.rank_ker_d2,
        "rank_ker_stacked": t.rank_ker_stacked,
        "ranks_equal": t.ranks_equal,
        "phi2_image_in_kernel": t.phi2_image_in_kernel,
        "kernel_in_phi2_image": t.kernel_in_phi2_image,
        "kernel_symmetries_hold": t.kernel_symmetries_hold,
        "mu_vanishes": t.mu_vanishes,
        "holds": t.holds,
    }


def _provenance(data: bytes) -> dict:
    return {
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "tool_version": treelat.__version__,
    }


def build_report(a: Analysis, input_bytes: bytes) -> dict:
    """The canonical report of an analysis; input_bytes are the document's
    bytes, for the provenance digest.

    column_sum_range is [min, max] of the column sums of m1 and of m2, read
    off the label counts (TilingSystem.label_counts): column t counts the
    tiles with the primed label labels[t ^ flip] of t, less t ^ flip, and
    t -> t ^ flip permutes the tiles, so the sums take exactly the values
    count[x] - 1 of the labels x.  [0, 0] with no tile.  No input can assert
    an irreducible lattice, so irreducible_lattice_asserted is false.
    """

    def span(count):
        return [min(count.values()) - 1, max(count.values()) - 1] if count else [0, 0]

    b_count, a_count = a.tiling.label_counts
    conn = a.connectivity
    return {
        "counts": _counts_dict(a.complex),
        "validation": _validation_dict(a.validation),
        "homology": {
            "h0": _group_dict(a.homology.h0),
            "h1": _group_dict(a.homology.h1),
            "h2_rank": a.homology.h2_rank,
            "euler_characteristic": a.homology.euler_characteristic,
        },
        "tiling": {
            "kernel_rank": a.k0.kernel_rank,
            "k0_rank": a.k0.k0_rank,
            "k1_rank": a.k0.k1_rank,
            "column_sum_range": {"m1": span(b_count), "m2": span(a_count)},
            "hypotheses": {
                "one_vertex": a.k0.hypotheses.one_vertex,
                "gh_strongly_connected": a.k0.hypotheses.gh_strongly_connected,
                "gv_strongly_connected": a.k0.hypotheses.gv_strongly_connected,
                "matrices_irreducible": a.k0.hypotheses.matrices_irreducible,
                "irreducible_lattice_asserted": False,
                "interpretation_supported": a.k0.hypotheses.interpretation_supported,
            },
        },
        "connectivity": {
            "gh_strong": conn.horizontal.strongly_connected,
            "gv_strong": conn.vertical.strongly_connected,
            "gh_weak": conn.horizontal.weakly_connected,
            "gv_weak": conn.vertical.weakly_connected,
            "gh_scc_count": conn.horizontal.scc_count,
            "gv_scc_count": conn.vertical.scc_count,
            "edge_graph_components": {
                "gh_B": [
                    {"vertices": k.vertices, "edges": k.edges, "oriented_edges": k.oriented_edges}
                    for k in conn.gh_b_components
                ],
                "gv_A": [
                    {"vertices": k.vertices, "edges": k.edges, "oriented_edges": k.oriented_edges}
                    for k in conn.gv_a_components
                ],
            },
        },
        "theorem": _theorem_dict(a.theorem),
        "provenance": _provenance(input_bytes),
    }


class CommandError(Exception):
    """The document could not be read or parsed, or the output could not
    be written (exit 1); args holds one message per problem."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {out_path}: {exc}") from None


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load(path: str) -> tuple[bytes, SquareComplex, ValidationReport]:
    """The document at path read, decoded, parsed and validated, once, for
    every command that takes one; its bytes are kept for the provenance
    digest.  Raises CommandError when the file cannot be read, is not
    UTF-8 or does not parse."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from None
    try:
        c = load_complex(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CommandError(f"not UTF-8: {exc}") from None
    except ComplexFormatError as exc:
        raise CommandError(*exc.problems) from None
    return data, c, validate_vht(c)


def _validation_report(data: bytes, c: SquareComplex, v: ValidationReport) -> dict:
    return {
        "counts": _counts_dict(c),
        "validation": _validation_dict(v),
        "provenance": _provenance(data),
    }


def _human_validation(c: SquareComplex, v: ValidationReport) -> str:
    n = _counts_dict(c)
    lines = [
        f"{n['vertices']} vertices, {n['h_edges']} horizontal + "
        f"{n['v_edges']} vertical edges, {n['squares']} squares"
    ]
    for issue in v.errors:
        lines.append(f"error [{issue.kind}]: {issue.message}")
    for issue in v.warnings:
        lines.append(f"warning [{issue.kind}]: {issue.message}")
    lines.append("invalid" if v.errors else "valid VH-T complex")
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    data, c, v = _load(args.path)
    if args.json:
        _emit(_to_json(_validation_report(data, c, v)), args.out)
    else:
        _emit(_human_validation(c, v), args.out)
    return 2 if v.errors else 0


def _validation_failure(data: bytes, c: SquareComplex, v: ValidationReport, args) -> int:
    """Exit 2 on a document that failed validation: its validation report
    with --json, else its errors on standard error."""
    if args.json:
        _emit(_to_json(_validation_report(data, c, v)), args.out)
    else:
        for issue in v.errors:
            print(f"error [{issue.kind}]: {issue.message}", file=sys.stderr)
    return 2


def cmd_analyze(args) -> int:
    data, c, v = _load(args.path)
    if v.errors:
        return _validation_failure(data, c, v, args)
    report = build_report(_analyze(c, v), data)
    _emit(_to_json(report) if args.json else _human_report(report), args.out)
    return 0


def _human_report(report: dict) -> str:
    hom = report["homology"]
    til = report["tiling"]
    thm = report["theorem"]
    conn = report["connectivity"]

    def group(g):
        parts = [f"Z^{g['free_rank']}"] if g["free_rank"] else []
        parts += [f"Z/{t}" for t in g["torsion"]]
        return " + ".join(parts) if parts else "0"

    lines = [
        "counts: " + ", ".join(f"{k}={v}" for k, v in report["counts"].items()),
        f"warnings: {len(report['validation']['warnings'])}",
        f"H0 = {group(hom['h0'])}; H1 = {group(hom['h1'])}; H2 rank = {hom['h2_rank']}; "
        f"chi = {hom['euler_characteristic']}",
        f"kernel rank = {til['kernel_rank']}; K0 rank = {til['k0_rank']}; K1 rank = {til['k1_rank']}",
        f"tile graphs strongly connected: horizontal={conn['gh_strong']}, vertical={conn['gv_strong']}",
        f"rank identity verdict: holds={thm['holds']}, within_hypotheses={thm['within_hypotheses']} "
        f"(ker d2 = {thm['rank_ker_d2']}, ker stacked = {thm['rank_ker_stacked']})",
    ]
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    data, c, v = _load(args.path)
    if v.errors:
        return _validation_failure(data, c, v, args)
    tiles = expand_directed_squares(c)
    ts = build_tiling(tiles, c)
    theorem = _theorem_dict(_explicit_theorem(c, tiles, ts, chain_maps(c, tiles)))
    if args.json:
        _emit(_to_json({"theorem": theorem, "provenance": _provenance(data)}), args.out)
    else:
        _emit("".join(f"{k}: {str(x).lower()}\n" for k, x in theorem.items()), args.out)
    return 0


def cmd_generate(args) -> int:
    try:
        doc = generate_mozes_complex(args.p, args.l)
    except MozesParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.out)
    return 0


def cmd_export(args) -> int:
    data, c, v = _load(args.path)
    if v.errors:
        return _validation_failure(data, c, v, args)
    tiles = expand_directed_squares(c)
    if args.what in ("m1", "m2", "stacked"):
        matrix = getattr(build_tiling(tiles, c), args.what)
    else:
        matrix = getattr(chain_maps(c, tiles), args.what)
    _emit(matio.write_dense_json(matrix) if args.json else matio.write_triplets(matrix), args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelat",
        description=(
            "Homology and boundary-algebra K-theory ranks of lattices acting on "
            "products of trees, from VH-T square complex documents."
        ),
    )
    parser.add_argument("--version", action="version", version=f"treelat {treelat.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_json=True):
        p.add_argument("path", help="complex document (JSON)")
        if with_json:
            p.add_argument("--json", action="store_true", help="canonical JSON output")
        p.add_argument("-o", "--out", default=None, help="write output to this file")

    p = sub.add_parser("validate", help="check a complex document")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full report: homology, tiling kernel, K-ranks, verdict")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="rank-identity verdict only")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="generate a Mozes quaternion complex")
    p.add_argument("-p", type=int, required=True, help="first prime, = 1 mod 4")
    p.add_argument("-l", type=int, required=True, help="second prime, = 1 mod 4, distinct")
    p.add_argument("-o", "--out", default=None, help="write the document to this file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export", help="export a matrix of the pipeline")
    p.add_argument("path", help="complex document (JSON)")
    p.add_argument("--what", required=True, choices=EXPORTABLE, help="which matrix")
    p.add_argument("--json", action="store_true", help="dense JSON instead of sparse triplets")
    p.add_argument("-o", "--out", default=None, help="write output to this file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        for problem in exc.args:
            print(f"error: {problem}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
