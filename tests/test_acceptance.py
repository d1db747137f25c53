"""Acceptance criteria, one test each, printing one PASS/FAIL line per
criterion (run with `pytest -s tests/test_acceptance.py` to see the lines).

Everything here is exact integer arithmetic; there are no tolerances."""

import json
import random
from contextlib import contextmanager

from treelat import matio
from treelat.cli import analyze_document, build_report, main
from treelat.mozes import generate_mozes_complex
from treelat.complex_model import load_complex, validate_vht
from treelat.zlinalg import smith_normal_form

import _complexes
from _battery import assert_instance_properties, maps_of
from _oracles import M, certified_snf_diagonal, rank_by_fraction_elimination, snf_diagonal


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_mozes_5_13(mozes513):
    with criterion(1, "Mozes (5,13): counts, chi, ranks, connectivity, verdict"):
        c = mozes513.complex
        assert (
            len(c.vertices),
            len(c.h_edges),
            len(c.v_edges),
            len(c.squares),
            len(mozes513.complex.edge_table.tiles),
        ) == (1, 3, 7, 21, 84)
        p, l = 5, 13
        hom = mozes513.homology
        assert hom.euler_characteristic == (p - 1) * (l - 1) // 4 * len(c.vertices) == 12
        assert hom.h2_rank == 11
        assert mozes513.k0.kernel_rank == 11
        assert mozes513.theorem.rank_ker_stacked == hom.h2_rank == 11
        assert mozes513.k0.k0_rank == (p - 1) * (l - 1) // 2 - 2 == 22
        assert hom.h1.free_rank == 0
        assert mozes513.connectivity.horizontal.strongly_connected
        assert mozes513.connectivity.vertical.strongly_connected
        assert mozes513.theorem.within_hypotheses and mozes513.theorem.holds


def test_criterion_2_mozes_5_17(mozes517):
    with criterion(2, "Mozes (5,17): chi = 16, H2 rank 15, K0 rank 30, verdict"):
        hom = mozes517.homology
        assert hom.euler_characteristic == 16
        assert hom.h2_rank == 15
        assert mozes517.k0.k0_rank == (5 - 1) * (17 - 1) // 2 - 2 == 30
        assert hom.h1.free_rank == 0
        assert mozes517.theorem.within_hypotheses and mozes517.theorem.holds


def test_criterion_3_f2xf2(f2xf2):
    with criterion(3, "F2 x F2: H1 = Z^4, H2 rank 4, kernel rank 4, verdict"):
        hom = f2xf2.homology
        assert (hom.h1.free_rank, hom.h1.torsion) == (4, ())
        # Kuenneth oracle: H2 = H1(wedge of 2 circles) tensor itself
        assert hom.h2_rank == 2 * 2 == 4
        assert f2xf2.k0.kernel_rank == 4
        assert f2xf2.theorem.within_hypotheses and f2xf2.theorem.holds


def test_criterion_4_torus(torus):
    with criterion(4, "torus: degree warnings, classical homology, outside hypotheses"):
        rep = validate_vht(torus.complex)
        assert not rep.errors
        assert [w.kind for w in rep.warnings] == ["low_h_degree", "low_v_degree"]
        hom = torus.homology
        assert (hom.h0.free_rank, hom.h0.torsion) == (1, ())
        assert (hom.h1.free_rank, hom.h1.torsion) == (2, ())
        assert hom.h2_rank == 1
        assert not torus.theorem.within_hypotheses
        # no assertion on rank equality outside the hypotheses


def test_criterion_5_property_suite(corpus):
    with criterion(5, "property suite: corpus + random complexes + 1000 SNF oracle runs"):
        for analysis in corpus.values():
            assert_instance_properties(analysis)

        rng = random.Random(5813)
        for _ in range(6):
            doc = _complexes.random_one_vertex_doc(rng, rng.randint(2, 3), rng.randint(2, 3))
            _, analysis = analyze_document(doc)
            assert analysis is not None
            assert_instance_properties(analysis)
        for _ in range(4):
            g1 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 2), 3)
            g2 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 2), 3)
            _, analysis = analyze_document(_complexes.product_doc(g1, g2))
            assert analysis is not None
            assert_instance_properties(analysis)
            assert analysis.homology.h2_rank == _complexes.betti1(g1) * _complexes.betti1(g2)

        failures = 0
        for _ in range(1000):
            m = rng.randint(0, 8)
            n = rng.randint(0, 8)
            a = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
            s = smith_normal_form(a)
            # d is the dense schedule's, whose u a v = d with u and v
            # unimodular is asserted by the oracle on the same input
            ok = (
                snf_diagonal(s, n) == certified_snf_diagonal(a)
                and all(
                    s.invariant_factors[i + 1] % s.invariant_factors[i] == 0
                    for i in range(len(s.invariant_factors) - 1)
                )
                and s.rank == rank_by_fraction_elimination(a.entries)
            )
            failures += not ok
        assert failures == 0


def test_criterion_6_round_trips(tmp_path, capsys):
    with criterion(6, "round trips: byte-deterministic generate/analyze, lossless export"):
        doc1 = generate_mozes_complex(5, 13)
        doc2 = generate_mozes_complex(5, 13)
        assert doc1 == doc2

        data = doc1.encode("utf-8")
        _, analysis1 = analyze_document(doc1)
        _, analysis2 = analyze_document(doc1)
        report1 = json.dumps(build_report(analysis1, data), indent=2)
        report2 = json.dumps(build_report(analysis2, data), indent=2)
        assert report1 == report2

        # the serialized document reloads to an identical complex
        assert load_complex(doc1) == analysis1.complex

        # CLI-level byte determinism
        path = tmp_path / "g513.json"
        path.write_text(doc1)
        assert main(["analyze", str(path), "--json"]) == 0
        out1 = capsys.readouterr().out
        assert main(["analyze", str(path), "--json"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

        # export -> import is lossless for every exportable matrix
        from treelat.tiling_system import stacked_matrix

        maps = maps_of(analysis1)
        matrices = {
            "m1": analysis1.tiling.m1,
            "m2": analysis1.tiling.m2,
            "stacked": stacked_matrix(analysis1.tiling),
            "d1": maps.d1,
            "d2": analysis1.d2,
            "phi1": maps.phi1,
            "phi2": maps.phi2,
        }
        for name, matrix in matrices.items():
            assert main(["export", str(path), "--what", name]) == 0
            text = capsys.readouterr().out
            assert matio.read_triplets(text) == matrix, name
