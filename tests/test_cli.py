import collections
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import treelat
from treelat import _kernels_py, cli, complex_model, homology, matio, tiling_system, zlinalg
from treelat.cli import analyze_document, main

import _complexes
import _oracles
import test_certificate
from _oracles import dense_verify, tile_squares
from _battery import assert_tampered_tiles_build_the_operator_once, maps_of


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(_complexes.torus_doc())
    return str(path)


@pytest.fixture(scope="module")
def g513_file(tmp_path_factory):
    from treelat.mozes import generate_mozes_complex

    path = tmp_path_factory.mktemp("cli") / "g513.json"
    path.write_text(generate_mozes_complex(5, 13))
    return str(path)


def test_validate_ok_with_warnings(runner, torus_file):
    code, out, err = runner("validate", torus_file)
    assert code == 0
    assert "warning" in out and "degree 2 < 3" in out


def test_validate_parse_error_exit_1(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = runner("validate", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_validate_missing_file_exit_1(runner, tmp_path):
    code, out, err = runner("validate", str(tmp_path / "absent.json"))
    assert code == 1


def test_validate_duplicate_square_exit_2(runner, tmp_path):
    doc = json.loads(_complexes.f2xf2_doc())
    doc["squares"][1] = doc["squares"][0]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = runner("validate", str(path))
    assert code == 2
    assert "covered 2 times" in out


def test_validate_json_report(runner, torus_file):
    code, out, err = runner("validate", torus_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["squares"] == 1
    assert report["validation"]["errors"] == []
    assert len(report["validation"]["warnings"]) == 2


def test_analyze_mozes_fields(runner, g513_file):
    code, out, err = runner("analyze", g513_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {
        "vertices": 1,
        "h_edges": 3,
        "v_edges": 7,
        "squares": 21,
        "directed_squares": 84,
    }
    assert report["homology"]["h2_rank"] == 11
    assert report["homology"]["euler_characteristic"] == 12
    assert report["tiling"]["k0_rank"] == 22
    assert report["tiling"]["column_sum_range"] == {"m1": [5, 5], "m2": [13, 13]}
    assert report["connectivity"]["gh_strong"] and report["connectivity"]["gv_strong"]
    assert report["theorem"]["holds"] and report["theorem"]["within_hypotheses"]
    assert report["provenance"]["tool_version"]


def test_analyze_byte_deterministic(runner, g513_file):
    code1, out1, _ = runner("analyze", g513_file, "--json")
    code2, out2, _ = runner("analyze", g513_file, "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_torus_human(runner, torus_file):
    code, out, err = runner("analyze", torus_file)
    assert code == 0
    assert "H2 rank = 1" in out
    assert "within_hypotheses=False" in out


def test_analyze_validation_error_exit_2(runner, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(_complexes.two_torus_components_doc())
    code, out, err = runner("analyze", str(path), "--json")
    assert code == 2
    report = json.loads(out)
    assert any(e["kind"] == "disconnected" for e in report["validation"]["errors"])
    assert "homology" not in report


def test_verify_reports_verdict_only(runner, g513_file):
    code, out, err = runner("verify", g513_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"theorem", "provenance"}
    assert report["theorem"]["rank_ker_stacked"] == 11


def test_generate_round_trip(runner, tmp_path):
    out_path = tmp_path / "g513.json"
    code, out, err = runner("generate", "-p", "5", "-l", "13", "-o", str(out_path))
    assert code == 0
    code, out, err = runner("validate", str(out_path))
    assert code == 0


def test_generate_rejects_bad_primes(runner):
    assert runner("generate", "-p", "3", "-l", "5")[0] == 2
    assert runner("generate", "-p", "5", "-l", "5")[0] == 2


def test_export_stacked_header(runner, g513_file):
    code, out, err = runner("export", g513_file, "--what", "stacked")
    assert code == 0
    assert out.splitlines()[0] == "168 84"


def test_export_d1_zero_for_one_vertex(runner, g513_file):
    code, out, err = runner("export", g513_file, "--what", "d1")
    assert code == 0
    assert out == "1 10\n"


def test_export_round_trip_equals_pipeline_matrix(runner, g513_file):
    code, out, err = runner("export", g513_file, "--what", "m1")
    assert code == 0
    matrix = matio.read_triplets(out)
    from treelat.cli import analyze_document

    _, analysis = analyze_document(open(g513_file).read())
    assert matrix == analysis.tiling.m1


# sha256 of `treelat export --what stacked` for the (5,13) complex, as the
# dense matrix type wrote it.
PINNED_STACKED_513 = "34f912cb9633cd7f51fd8a7625f2280c133c4c70cc13b1f048cc7568a1f83e7c"


def test_export_stacked_never_densifies(runner, g513_file, monkeypatch):
    def dense(self, *args):
        raise AssertionError("dense view of a matrix on the export path")

    monkeypatch.setattr(zlinalg.IntMatrix, "entries", property(dense))
    code, out, err = runner("export", g513_file, "--what", "stacked")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STACKED_513


def test_export_dense_json(runner, torus_file):
    code, out, err = runner("export", torus_file, "--what", "m2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == doc["cols"] == 4


def test_export_unknown_matrix_exit_2(g513_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", g513_file, "--what", "m3"])
    assert exc.value.code == 2


def test_thread_env_is_not_read(runner, torus_file, monkeypatch):
    # no environment variable is consulted: TREELAT_THREADS, even one that
    # is not a positive integer, changes neither output nor exit code
    monkeypatch.delenv("TREELAT_THREADS", raising=False)
    unset = runner("validate", torus_file)
    monkeypatch.setenv("TREELAT_THREADS", "zero")
    assert runner("validate", torus_file) == unset
    assert unset[0] == 0


def test_thread_env_accepted(runner, monkeypatch, tmp_path):
    monkeypatch.setenv("TREELAT_THREADS", "2")
    out_path = tmp_path / "g.json"
    code, _, _ = runner("generate", "-p", "5", "-l", "13", "-o", str(out_path))
    assert code == 0
    monkeypatch.delenv("TREELAT_THREADS")
    from treelat.mozes import generate_mozes_complex

    assert out_path.read_text() == generate_mozes_complex(5, 13)


# --- no tracebacks: every failure is an exit code and one error line ----------


def run_process(*argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(treelat.__file__).resolve().parent.parent))
    env.pop("TREELAT_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "treelat", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_deeply_nested_document_exit_1(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_process("validate", str(path))
    assert code == 1
    assert "Traceback" not in err
    assert "nested too deeply" in err


def test_unwritable_output_exit_1(tmp_path, torus_file):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run_process("analyze", torus_file, "--json", "-o", str(target))
    assert code == 1
    assert "Traceback" not in err
    assert f"cannot write {target}" in err
    assert not target.exists()


def test_metadata_must_be_an_object_exit_1(tmp_path):
    doc = json.loads(_complexes.torus_doc())
    doc["metadata"] = [1, 2]
    path = tmp_path / "meta.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_process("analyze", str(path), "--json")
    assert code == 1
    assert "Traceback" not in err
    assert "metadata must be an object" in err


# Each input that the shared loader refuses, with its exit code: 1 when
# the document cannot be read, decoded or parsed, 2 when it fails validation.
LOADER_INPUTS = {
    "missing": (None, 1),
    "not_utf8": (b'{"vertices": ["\xff"]}', 1),
    "malformed": (b"{not json", 1),
    "deep": (b"[" * 100000, 1),
    "invalid": (_complexes.two_torus_components_doc().encode(), 2),
}
LOADER_COMMANDS = {
    "validate": (),
    "analyze": (),
    "verify": (),
    "export": ("--what", "d2"),
}


@pytest.mark.parametrize("command", list(LOADER_COMMANDS))
@pytest.mark.parametrize("name", list(LOADER_INPUTS))
def test_every_command_shares_the_loader_exit_codes(tmp_path, command, name):
    data, expected = LOADER_INPUTS[name]
    path = tmp_path / f"{name}.json"
    if data is not None:
        path.write_bytes(data)
    code, out, err = run_process(command, str(path), *LOADER_COMMANDS[command])
    assert code == expected
    assert "Traceback" not in err
    assert err.startswith("error") or (command == "validate" and expected == 2)


def test_failing_analysis_parses_the_document_once(runner, tmp_path, monkeypatch):
    # The validation report of a failing document is written from the
    # complex the loader already holds.
    path = tmp_path / "disc.json"
    path.write_text(_complexes.two_torus_components_doc())
    loads = count_calls(monkeypatch, complex_model, "load_complex")
    code, out, err = runner("analyze", str(path), "--json")
    assert code == 2
    assert json.loads(out)["counts"]["vertices"] == 2
    assert len(loads) == 1


# --- canonical reports, pinned -----------------------------------------------

# sha256 of `treelat analyze --json` for the test corpus, recorded before the
# Smith kernel skipped zeros and the pipeline shared its kernels; the fast
# path must reproduce the dense path's reports byte for byte.
PINNED_REPORTS = {
    "torus": "bc647b4fefcc43a10a8ff123d1cda98ee041e2e6160b051dd2a9d9db574b96e3",
    "f2xf2": "fab51ca794eb59cbffcc80ee7afb4273fd2ad0306eef8301338428c0d6cafea9",
    "klein": "0839124f5a1ca64c5057073f12d09717b213004cd76200c2ea04df288eea4590",
    "mozes513": "adfb87bb3b4e11fc4f1a2c3ab5b97b4a71a52581aef531c5340183cb9dcca3b4",
    "mozes517": "9b65e848a67bd27c84b6c862d5bff61cfdfe8d66a3d2d7374fda1a00ec6916c1",
}


def test_analyze_json_matches_pinned_digests(runner, tmp_path, mozes513_doc, mozes517_doc):
    docs = {
        "torus": _complexes.torus_doc(),
        "f2xf2": _complexes.f2xf2_doc(),
        "klein": _complexes.klein_doc(),
        "mozes513": mozes513_doc,
        "mozes517": mozes517_doc,
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        code, out, err = runner("analyze", str(path), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[name], name


# sha256 of `treelat analyze --json` for two complexes with more than one
# vertex, where d1 is not zero, recorded while H1 was still computed
# through a basis of ker d1.
PINNED_MULTI_VERTEX_REPORTS = {
    "two_vertex_klein": "4c0f41e9cf0ac0b0dd0c3cb7b517ca3d6df154271c40db5ac1f4e02f5cae0674",
    "product": "ef1ecec7db37d06e8e9cb629948861077ba07ea07c5880c63163a367a3c25a5a",
}


def seeded_product_doc():
    rng = random.Random(2026)
    g1 = _complexes.random_multigraph(rng, 2, 2, 3)
    g2 = _complexes.random_multigraph(rng, 2, 3, 3)
    return _complexes.product_doc(g1, g2)


# sha256 of `treelat analyze --json` for two products whose label
# multigraphs have a leaf, a label carried by one tile only, recorded while
# a tile graph with a leaf was still read by Tarjan over the tiles: the
# first has a leaf on the horizontal axis, the second on both axes.
PINNED_LEAF_REPORTS = {
    "leaf_one_axis": "4ddabca704b60c7cedfb625d8e14d453c94902838e99a5616ebce9b12713e801",
    "leaf_both_axes": "7c55b7fec267c802e7cfa0d56097523dbb311422d3c8b7abb5a039e00bb80fbe",
}


def leaf_product_docs():
    rng = random.Random(2031)
    g1 = _complexes.random_multigraph(rng, 3, 2, 1)
    g2 = _complexes.random_multigraph(rng, 3, 2, 1)
    return {
        "leaf_one_axis": _complexes.product_doc(
            (3, [(0, 1), (1, 2), (1, 2), (2, 2)]), (1, [(0, 0), (0, 0)])
        ),
        "leaf_both_axes": _complexes.product_doc(g1, g2),
    }


def test_analyze_json_matches_pinned_digests_with_several_vertices(runner, tmp_path):
    docs = {
        "two_vertex_klein": _complexes.two_vertex_klein_doc(),
        "product": seeded_product_doc(),
        **leaf_product_docs(),
    }
    pinned = {**PINNED_MULTI_VERTEX_REPORTS, **PINNED_LEAF_REPORTS}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        code, out, err = runner("analyze", str(path), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pinned[name], name


# --- work done by one analysis -------------------------------------------------

# sha256 of `treelat analyze --json` for the (13,17) complex, recorded while
# the analysis still expanded the tiles into objects of four edge references.
PINNED_REPORT_1317 = "8ed72926d99b4900bd67c11f455fc2817f79a88cc8139a65a1b8d4f9250ece75"


def test_analysis_reads_the_tiles_as_edge_codes(runner, tmp_path, monkeypatch):
    # The analysis takes its tiles from expand_directed_squares, once, as
    # tuples of four integer edge codes, and the reports are still the
    # pinned ones.
    from treelat.mozes import generate_mozes_complex

    expand = complex_model.expand_directed_squares
    expanded = []

    def recorded(c):
        tiles = expand(c)
        expanded.append(tiles)
        return tiles

    for mod in (complex_model, cli):
        if getattr(mod, "expand_directed_squares", None) is expand:
            monkeypatch.setattr(mod, "expand_directed_squares", recorded)
    docs = {
        "torus": (_complexes.torus_doc(), PINNED_REPORTS["torus"]),
        "product": (seeded_product_doc(), PINNED_MULTI_VERTEX_REPORTS["product"]),
        "mozes1317": (generate_mozes_complex(13, 17), PINNED_REPORT_1317),
    }
    for name, (doc, digest) in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        code, out, err = runner("analyze", str(path), "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name
        (tiles,) = expanded
        assert all(len(t) == 4 and all(type(x) is int for x in t) for t in tiles), name
        expanded.clear()


def test_connectivity_walks_no_tile_edge(runner, tmp_path, monkeypatch):
    # On the ladder and the seeded product no label is carried by one tile
    # only: connectivity is read off the label degrees and components, so
    # with the peel to the 2-core, the one pass over the darts, made to
    # raise, the reports are still the pinned ones.
    from treelat.mozes import generate_mozes_complex

    def refuse(*args):
        raise AssertionError("label multigraph peeled by the analysis")

    monkeypatch.setattr(tiling_system, "_two_core", refuse)
    docs = {
        "mozes513": (generate_mozes_complex(5, 13), PINNED_REPORTS["mozes513"]),
        "mozes517": (generate_mozes_complex(5, 17), PINNED_REPORTS["mozes517"]),
        "mozes1317": (generate_mozes_complex(13, 17), PINNED_REPORT_1317),
        "product": (seeded_product_doc(), PINNED_MULTI_VERTEX_REPORTS["product"]),
    }
    for name, (doc, digest) in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        code, out, err = runner("analyze", str(path), "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def count_calls(monkeypatch, module, name):
    """Record the first argument of every call of module.name, under each
    treelat module attribute that refers to the function."""
    original = getattr(module, name)
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    for mod in (zlinalg, tiling_system, homology, cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return seen


def count_reads(monkeypatch, cls, name):
    """Record every instance whose attribute name, a cached_property of
    cls, is computed."""
    original = getattr(cls, name).func
    seen = []

    def counted(self):
        seen.append(self)
        return original(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return seen


@pytest.mark.parametrize("group", ["ladder", "small", "random1", "random2", "random3"])
def test_column_sum_range_is_read_off_the_label_counts(group):
    # build_report reads the range off the label counts; it is the least
    # and the greatest column sum of m1 and of m2.
    docs = test_certificate.corpus(group)
    if group == "small":
        docs["two_torus_components"] = _complexes.two_torus_components_doc()
    analyzed = []
    for name, text in docs.items():
        _, analysis = analyze_document(text)
        if analysis is None:
            continue
        analyzed.append(analysis)
        report = cli.build_report(analysis, text.encode())
        ts = analysis.tiling
        m1, m2 = (_oracles.dense_column_sums(m.entries, m.cols) for m in (ts.m1, ts.m2))
        assert report["tiling"]["column_sum_range"] == {
            "m1": [min(m1), max(m1)],
            "m2": [min(m2), max(m2)],
        }, name
    assert analyzed
    # With no tile, both ranges are [0, 0].
    empty = analyzed[0]._replace(tiling=tiling_system.TilingSystem((), (), 1))
    assert (empty.tiling.m1.entries, empty.tiling.m2.entries) == ((), ())
    report = cli.build_report(empty, b"")
    assert report["tiling"]["column_sum_range"] == {"m1": [0, 0], "m2": [0, 0]}


def test_one_analysis_counts_each_axis_labels_once(monkeypatch, mozes513_doc):
    # The label counts of each axis are counted once, on the first read of
    # TilingSystem.label_counts, and connectivity, the count of the stacked
    # kernel and the report's column sums all read them.
    counted = []

    def counter(*args):
        counted.append(args[0] if args else None)
        return collections.Counter(*args)

    for module in (tiling_system, homology):
        monkeypatch.setattr(module, "Counter", counter)
    reads = count_reads(monkeypatch, tiling_system.TilingSystem, "label_counts")
    _, analysis = analyze_document(mozes513_doc)
    cli.build_report(analysis, b"")
    ts = analysis.tiling
    assert analysis.theorem.holds
    assert reads == [ts]
    labels = [x for x in counted if isinstance(x, (tuple, list)) and list(x) in (list(ts.b), list(ts.a))]
    assert labels == [ts.b, ts.a]


def test_analysis_computes_each_kernel_once(monkeypatch, mozes513_doc):
    snf = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    eliminations = count_calls(monkeypatch, zlinalg, "kernel_and_image")
    images = count_calls(monkeypatch, zlinalg, "image_and_smith_form")
    reduced = spy_eliminations(monkeypatch)
    hermite = count_calls(monkeypatch, zlinalg, "hermite_row_basis")
    built = count_calls(monkeypatch, tiling_system, "stacked_matrix")
    tilings = count_calls(monkeypatch, tiling_system, "build_tiling")
    matrices = [count_reads(monkeypatch, tiling_system.TilingSystem, m) for m in ("m1", "m2")]
    _, analysis = analyze_document(mozes513_doc)
    assert analysis.theorem.holds
    # Everything on the tiling side is read off the tile labels, which
    # build_tiling reads once: neither M1, M2 nor the stacked operator is
    # built.
    assert len(built) == 0 and len(tilings) == 1
    assert matrices == [[], []]
    # The theorem block is certified, so S is neither eliminated nor put in
    # a Smith form; d2 is eliminated once, without its I part, and H1 is
    # read off the Smith form of its image block, from the pivots of that
    # one elimination: no Smith form is taken apart from it.
    assert eliminations == [] and images == [analysis.d2]
    assert reduced[0] == (analysis.d2.transpose().row_pairs, False)
    assert [rows for rows, _ in reduced].count(reduced[0][0]) == 1
    assert snf == []
    assert len(hermite) == 0


EXPLICIT_PATH = (
    (zlinalg, "kernel_and_image"),
    (homology, "commuting_square"),
    (homology, "stacked_kernel_basis"),
    (homology, "verify_main_theorem"),
)


def count_paths(monkeypatch):
    """The calls of the certified path (image_and_smith_form,
    certified_theorem) and of the explicit path, by name."""
    stages = ((zlinalg, "image_and_smith_form"), (homology, "certified_theorem"), *EXPLICIT_PATH)
    return {name: count_calls(monkeypatch, module, name) for module, name in stages}


def test_certified_path_forms_no_kernel_basis(monkeypatch, mozes513_doc):
    # On (5,13) the certificate holds, so analyze eliminates d2 once
    # without its I part and takes no step of the explicit path.
    calls = count_paths(monkeypatch)
    _, analysis = analyze_document(mozes513_doc)
    assert analysis.theorem.holds
    assert calls.pop("image_and_smith_form") == [analysis.d2]
    assert len(calls.pop("certified_theorem")) == 1
    assert calls == {name: [] for _, name in EXPLICIT_PATH}


# The per-tile maps and their reading by label, which verify and export
# build and a certified analysis does not.
PER_TILE = (
    (homology, "chain_maps"),
    (homology, "_phi2_rows"),
    (homology, "_rows_by_label"),
    (homology, "_label_sums"),
    (homology, "_square_by_labels"),
    (homology, "commuting_square"),
)


def test_certified_analysis_builds_no_per_tile_map(monkeypatch, mozes513_doc):
    # On (5,13) the certificate holds: check (1) and the count read Phi and
    # L off the tile labels and d2, so no phi1 or phi2 is built, phi2 is
    # compared with nothing, no row is read back by label, and no kernel
    # basis is formed; d2 is built once.
    calls = {name: count_calls(monkeypatch, module, name) for module, name in PER_TILE}
    kernels = count_calls(monkeypatch, zlinalg, "kernel_and_image")
    built = count_calls(monkeypatch, cli, "boundary_d2")
    _, analysis = analyze_document(mozes513_doc)
    assert analysis.theorem.holds
    assert calls == {name: [] for _, name in PER_TILE} and kernels == []
    assert built == [analysis.complex]


@pytest.mark.parametrize("doc", ["torus_doc", "klein_doc"])
def test_failed_certificate_takes_the_explicit_path_once(monkeypatch, doc):
    # The count exceeds rank ker d2, so the certificate fails, and analyze
    # takes every step of the explicit path once: the elimination of d2,
    # with its I part, and then that of S for the fallback kernel.  The
    # Smith form stays the one of image_and_smith_form.
    calls = count_paths(monkeypatch)
    smith = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    maps = count_calls(monkeypatch, cli, "chain_maps")
    _, analysis = analyze_document(getattr(_complexes, doc)())
    assert not analysis.theorem.holds
    assert calls.pop("image_and_smith_form") == [analysis.d2]
    assert len(calls.pop("certified_theorem")) == 1
    assert calls.pop("kernel_and_image") == [analysis.d2, analysis.tiling.stacked]
    assert [len(seen) for seen in calls.values()] == [1, 1, 1]
    assert smith == []
    # The explicit checks read the chain maps of the complex, built once.
    assert maps == [analysis.complex]


# The stages of an analysis that the verdict of verify does not read.
ANALYSIS_ONLY = (
    (tiling_system, "connectivity"),
    (homology, "homology_report"),
    (tiling_system, "k0_rank"),
    (zlinalg, "smith_normal_form"),
    (zlinalg, "image_and_smith_form"),
    (homology, "certified_theorem"),
)


def test_verify_takes_the_explicit_path(monkeypatch, runner, g513_file):
    # verify checks explicit bases even where analyze would certify, and
    # runs only the stages its verdict reads: no connectivity, homology,
    # K-ranks or Smith form.  The certified kernel phi2.H spares it the
    # elimination of S.
    explicit = {name: count_calls(monkeypatch, module, name) for module, name in EXPLICIT_PATH}
    skipped = {name: count_calls(monkeypatch, module, name) for module, name in ANALYSIS_ONLY}
    code, out, err = runner("verify", g513_file, "--json")
    assert code == 0, err
    assert json.loads(out)["theorem"]["holds"]
    assert skipped == {name: [] for _, name in ANALYSIS_ONLY}
    assert [len(seen) for seen in explicit.values()] == [1, 1, 1, 1]


def spy_eliminations(monkeypatch):
    """Record the input of every unimodular elimination, as (rows,
    with_transform)."""
    original = _kernels_py.unimodular_elimination
    inputs = []

    def spy(rows, with_transform=True):
        inputs.append((rows, with_transform))
        return original(rows, with_transform)

    monkeypatch.setattr(_kernels_py, "unimodular_elimination", spy)
    return inputs


def test_one_elimination_counts_the_stacked_kernel(monkeypatch):
    # The integer elimination is the one reduction behind H2, the Smith
    # form and the count of the stacked kernel: at (13,17) it reduces the
    # rows of d2^T, for the image block and, off the same pivots, its Smith
    # form; then the rows of the system C of the count, whose orbit
    # columns the triangular rows of Phi.B^T have cleared, so that it has
    # the component columns alone, and whose pivots are its rank over Q.
    # Neither carries the I part, and nothing else is eliminated.
    systems = count_calls(monkeypatch, zlinalg, "rank")
    inputs = spy_eliminations(monkeypatch)
    _, analysis = analyze_document(treelat.generate_mozes_complex(13, 17))
    assert analysis.theorem.holds
    (c,) = systems
    d2, count = inputs
    assert d2 == (analysis.d2.transpose().row_pairs, False)
    assert count == (c.row_pairs, False)
    # The phi1 row of a reversed label is minus that of the label, and so
    # is its row of Phi.B^T.
    ts, d2 = analysis.tiling, analysis.d2
    image = zlinalg.image_and_smith_form(d2)[0]
    label_image = homology._phi_image(ts, analysis.complex.edge_table.vertical, d2, image)
    pairs = 0
    for by_label in label_image:
        for x, row in by_label.items():
            if x & 1 and x ^ 1 in by_label:
                assert row == tuple((j, -v) for j, v in by_label[x ^ 1])
                pairs += 1
    assert pairs == 16
    # The one-rank oracle takes the rank of the whole system, C with its
    # |F| orbit columns.  Those hold the rows of Phi.B^T of one label of
    # each pair, and nothing in the reversal-sum rows and the tile rows,
    # where the orbit parts cancel.  C here has its component columns
    # alone, and the r = rank d2 triangular rows make up the difference of
    # the ranks.
    assert _oracles.structured_kernel_dim_by_one_rank(ts, label_image) == analysis.k0.kernel_rank
    whole = systems[1]
    images = [
        row
        for by_label in label_image
        for x, row in by_label.items()
        if not (x & 1 and x ^ 1 in by_label)
    ]
    w0 = whole.cols - len(ts.b) // 4
    orbit = [tuple((j - w0, x) for j, x in row if j >= w0) for row in whole.row_pairs]
    assert sorted(orbit) == sorted([()] * (whole.rows - len(images)) + images)
    assert c.cols == w0
    assert all(j < w0 for row in c.row_pairs for j, _ in row)
    assert zlinalg.rank(c) + image.cols == zlinalg.rank(whole)


def test_export_of_the_stacked_matrix_builds_neither_transition_matrix(
    runner, g513_file, monkeypatch, mozes513
):
    # S is cut from the tile labels: neither build_tiling nor
    # stacked_matrix reads m1 or m2, in the library or through the CLI.
    matrices = [count_reads(monkeypatch, tiling_system.TilingSystem, m) for m in ("m1", "m2")]
    c = mozes513.complex
    tiles = complex_model.expand_directed_squares(c)
    stacked = tiling_system.stacked_matrix(tiling_system.build_tiling(tiles, c))
    assert stacked == tiling_system.stacked_matrix(mozes513.tiling)
    code, out, err = runner("export", g513_file, "--what", "stacked")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STACKED_513
    assert matrices == [[], []]
    # m1 and m2 are still there to export, each built on its own read.
    code, out, err = runner("export", g513_file, "--what", "m2")
    assert code == 0, err
    assert [len(seen) for seen in matrices] == [0, 1]


def test_certified_kernel_stays_sparse_and_meets_the_operator_once(
    runner, tmp_path, monkeypatch, mozes513_doc
):
    # The certified kernel phi2.H goes from the certificate to the verdict
    # as one sparse matrix: no dense view of a matrix is taken, and the
    # stacked operator S enters no product.  Its factors, the tile labels,
    # are checked once, and check (1) reads S.phi2 off them.  The certificate reads check
    # (3), which once the square commutes is phi1.(d2.H), so neither
    # S.(phi2.H) nor (S.phi2).H is formed.
    def dense(self, *args):
        raise AssertionError("dense view of a matrix in the analysis")

    original = zlinalg.IntMatrix.mul
    products = []

    def mul(self, other):
        products.append((self.rows, self.cols, other.cols))
        return original(self, other)

    monkeypatch.setattr(zlinalg.IntMatrix, "entries", property(dense))
    monkeypatch.setattr(zlinalg.IntMatrix, "mul", mul)
    factor_checks = count_calls(monkeypatch, tiling_system, "build_tiling")
    built = count_calls(monkeypatch, tiling_system, "stacked_matrix")
    path = tmp_path / "mozes513.json"
    path.write_text(mozes513_doc)
    code, out, err = runner("analyze", str(path), "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS["mozes513"]
    n, r = 4 * 21, 11  # tiles and rank H2 of (5,13)
    assert products.count((2 * n, n, r)) == 0
    assert products.count((2 * n, n, n // 4)) == 0
    assert (2 * n, n // 4, r) not in products
    assert len(factor_checks) == 1 and len(built) == 0


def test_no_smith_form_takes_a_column_per_cell(monkeypatch):
    # H2 and the torsion of H1 come from the elimination of d2^T, whose
    # pivot rows are the rows of the image block's transpose B, with a
    # column per edge: at (13,17) the finisher of the Smith form gets no
    # row with a column per geometric square.
    doc = treelat.generate_mozes_complex(13, 17)
    original = _kernels_py.smith_diagonal
    seen = []

    def spy(rows):
        seen.append(rows)
        return original(rows)

    monkeypatch.setattr(_kernels_py, "smith_diagonal", spy)
    _, analysis = analyze_document(doc)
    cells, edges = len(analysis.complex.squares), analysis.d2.rows
    assert analysis.d2.cols == cells == 63
    (rows,) = seen
    assert rows and all(len(row) != cells and len(row) <= edges for row in rows)


def test_product_analysis_takes_one_smith_form_of_the_image_block(monkeypatch):
    # H1 is read off the Smith form of the image block of d2, which has the
    # column lattice of d2, and the rank of d1; H0 and the rank of d1 are
    # read off the component count, so d1 takes no Smith form even where it
    # is not zero.  The factors come from the one elimination of d2^T, so
    # no matrix enters smith_normal_form, d2 itself least of all.  No basis
    # of ker d1, no exact solve and no further cokernel.
    snf = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    smith_forms = count_calls(monkeypatch, zlinalg, "image_and_smith_form")
    solves = count_calls(monkeypatch, zlinalg, "solve_exact")
    cokernels = count_calls(monkeypatch, zlinalg, "cokernel_invariants")
    reduced = spy_eliminations(monkeypatch)
    _, analysis = analyze_document(seeded_product_doc())
    assert analysis.theorem.holds
    assert not maps_of(analysis).d1.is_zero()
    d2 = analysis.d2
    assert snf == [] and smith_forms == [d2]
    assert [rows for rows, _ in reduced].count(d2.transpose().row_pairs) == 1
    s2 = zlinalg.smith_normal_form(zlinalg.kernel_and_image(d2)[1])
    assert analysis.homology.h1.torsion == s2.cokernel().torsion
    assert analysis.homology.h2_rank == d2.cols - s2.rank
    assert solves == [] and cokernels == []


def test_torus_falls_back_to_the_dense_kernel(monkeypatch, torus):
    # rank ker d2 = 1 but the stacked kernel has rank 4: no certificate,
    # and the stacked operator is built once, for its elimination.
    stacked = tiling_system.stacked_matrix(torus.tiling)
    snf = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    eliminations = count_calls(monkeypatch, zlinalg, "kernel_and_image")
    built = count_calls(monkeypatch, tiling_system, "stacked_matrix")
    _, analysis = analyze_document(_complexes.torus_doc())
    assert len(built) == 1
    assert sum(a == stacked for a in eliminations) == 1
    assert sum(a == stacked for a in snf) == 0
    assert analysis.theorem == torus.theorem
    assert (analysis.theorem.rank_ker_d2, analysis.theorem.rank_ker_stacked) == (1, 4)
    assert not analysis.theorem.holds


def test_klein_bottle_builds_the_operator_once(monkeypatch, klein):
    # No certificate either: one build of the stacked operator, shared by
    # the fallback kernel, and one elimination of it.
    stacked = tiling_system.stacked_matrix(klein.tiling)
    snf = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    eliminations = count_calls(monkeypatch, zlinalg, "kernel_and_image")
    built = count_calls(monkeypatch, tiling_system, "stacked_matrix")
    _, analysis = analyze_document(_complexes.klein_doc())
    assert len(built) == 1
    assert sum(a == stacked for a in eliminations) == 1
    assert sum(a == stacked for a in snf) == 0
    assert analysis.theorem == klein.theorem
    assert not analysis.theorem.holds


def test_certificate_rests_on_the_commuting_square(monkeypatch, mozes513):
    # Put the unit 2-chain e_0, whose boundary is not zero, in place of the
    # first vector of H: the structured count still equals |H|, but phi2(H)
    # no longer lies in ker S, so check (3) fails and the certificate falls
    # back to one elimination of S.  With the true H both checks hold and
    # the basis is phi2.H itself, with no elimination of S.
    maps = maps_of(mozes513)
    ts = tiling_system.build_tiling(mozes513.complex.edge_table.tiles, mozes513.complex)
    stacked = tiling_system.stacked_matrix(mozes513.tiling)
    h2_basis = zlinalg.kernel_basis(maps.d2)
    cells = maps.d2.cols
    chain = tuple(int(k == 0) for k in range(cells))
    assert not maps.d2.mul(_oracles.M([chain], cells).transpose()).is_zero()
    true_h = _oracles.M(h2_basis, cells).transpose()
    bad_h = _oracles.M((chain,) + h2_basis[1:], cells).transpose()
    assert homology.structured_kernel_dim(ts) == bad_h.cols == 11

    snf = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    eliminations = count_calls(monkeypatch, zlinalg, "kernel_and_image")
    square = homology.commuting_square(ts, maps, bad_h)
    assert square == (True, False)
    basis = homology.stacked_kernel_basis(ts, maps, bad_h, square)
    assert eliminations == [stacked] and snf == []
    dense = zlinalg.kernel_basis(stacked)
    hermite = zlinalg.hermite_row_basis
    assert hermite(basis.transpose().entries) == hermite(dense)

    eliminations.clear()
    square = homology.commuting_square(ts, maps, true_h)
    assert square == (True, True)
    certified = homology.stacked_kernel_basis(ts, maps, true_h, square)
    assert certified == maps.phi2.mul(true_h)
    assert eliminations == [] and snf == []


def test_broken_factor_identity_falls_back_to_the_dense_kernel(monkeypatch, mozes513):
    # Move b'(t) of tile 0, and with it b(t^h), to another vertical edge:
    # the labels still give the factors of the stacked matrix of those
    # tiles, and the count from the factors is its kernel dimension, but
    # S.phi2 = phi1.d2 breaks, so phi2(ker d2) is not in ker S and the
    # certificate is refused.  S is built once, and the kernel comes from
    # one elimination of it; the verdict is the dense verifier's.
    snf = count_calls(monkeypatch, zlinalg, "smith_normal_form")
    eliminations = count_calls(monkeypatch, zlinalg, "kernel_and_image")
    tiles, maps, h2_basis, kernel, verdict, broken = (
        assert_tampered_tiles_build_the_operator_once(monkeypatch, mozes513, "b_prime")
    )
    assert not verdict.diagram_commutes and not verdict.phi2_image_in_kernel
    # the basis of ker d2, then the fallback kernel, and no Smith form
    assert eliminations == [maps.d2, broken] and snf == []
    ts = tiling_system.build_tiling(tiles, mozes513.complex)
    dense = zlinalg.kernel_basis(broken)
    assert homology.structured_kernel_dim(ts) == len(dense)
    basis = kernel.transpose().entries
    assert zlinalg.hermite_row_basis(basis) == zlinalg.hermite_row_basis(dense)
    r = tile_squares(mozes513.complex, tiles)
    assert verdict == dense_verify(mozes513.complex, r, maps, broken, basis, h2_basis)
