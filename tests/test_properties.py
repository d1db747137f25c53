"""Randomized property battery over valid complexes of both families."""

import random

from treelat.cli import analyze_document

import _complexes
from _battery import assert_instance_properties


def analyze(doc):
    validation, analysis = analyze_document(doc)
    assert analysis is not None, validation.errors
    return analysis


def test_random_one_vertex_complexes():
    rng = random.Random(20260810)
    for _ in range(10):
        n_h = rng.randint(2, 3)
        n_v = rng.randint(2, 3)
        analysis = analyze(_complexes.random_one_vertex_doc(rng, n_h, n_v))
        # degrees are 2*n >= 4, so the rank identity itself is asserted too
        assert analysis.theorem.within_hypotheses
        assert_instance_properties(analysis)


def test_random_product_complexes_with_kunneth_oracle():
    rng = random.Random(424242)
    for _ in range(6):
        g1 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
        g2 = _complexes.random_multigraph(rng, rng.randint(1, 2), rng.randint(1, 3), 3)
        analysis = analyze(_complexes.product_doc(g1, g2))
        assert_instance_properties(analysis)
        b1, b2 = _complexes.betti1(g1), _complexes.betti1(g2)
        hom = analysis.homology
        assert hom.h2_rank == b1 * b2
        assert hom.h1.free_rank == b1 + b2
        assert hom.h1.torsion == ()
        assert analysis.k0.kernel_rank == b1 * b2
        assert analysis.theorem.within_hypotheses


def test_low_degree_product_still_satisfies_structural_properties():
    # a degree-2 factor (a cycle) leaves the rank identity unasserted but
    # every structural identity still holds
    rng = random.Random(77)
    cycle = (2, [(0, 1), (0, 1)])
    other = _complexes.random_multigraph(rng, 2, 2, 3)
    analysis = analyze(_complexes.product_doc(cycle, other))
    assert not analysis.theorem.within_hypotheses
    assert_instance_properties(analysis)
    assert analysis.homology.h2_rank == 1 * _complexes.betti1(other)
