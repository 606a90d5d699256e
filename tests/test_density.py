"""Uniform-density measurements: profiles, witnesses, codegrees, margins,
and the blow-up transfer identity."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab.construct import (
    SparsifiedIncidence,
    build_linear_tf_hypergraph,
    sparsify,
)
from erlab.density import (
    WitnessSubgraph,
    _codegree_units,
    blow_up_transfer_report,
    check_uniform_density,
    density_witness,
    hypergraph_blow_up,
)
from erlab.graphs import CliqueCover, Graph, GraphError, validate_hypergraph
from erlab.util import make_rng

from oracles import random_graph


def bipartite_2_3_witness():
    """Single clique K_5 sparsified into parts {0,1} and {2,3,4}."""
    graph = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    cover = CliqueCover(1, {0: (0, 1, 2, 3, 4)})
    return SparsifiedIncidence(graph, cover, {0: (0b00011, 0b11100)}, 2)


class TestDensityWitness:
    def test_2_by_3_bipartite_counts(self):
        sp = bipartite_2_3_witness()
        profile, witness = density_witness(sp, range(5))
        assert profile.ell_dyadic == 3  # a_v = 5 lands in [4, 8)
        assert profile.evenly_partitioned == (0,)
        assert witness.e_count == 6
        assert witness.codegrees == {1: 3, 2: 1}
        assert sorted(witness.hyperedges) == [
            (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
        ]

    def test_small_intersection_gives_empty_witness(self):
        sp = bipartite_2_3_witness()
        profile, witness = density_witness(sp, [0])  # a_v = 1 cannot cover 2 parts
        assert profile.evenly_partitioned == ()
        assert witness.e_count == 0
        assert witness.codegrees == {1: 0, 2: 0}

    def test_requires_nonempty_x(self):
        with pytest.raises(GraphError):
            density_witness(bipartite_2_3_witness(), [])

    def test_pipeline_witness_matches_enumeration_oracle(self):
        H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
        rep = validate_hypergraph(H)
        g, cover = rep.incidence, rep.cover
        sp = sparsify(rep, 3, seed=11, threshold=g.n + 1)
        rng = make_rng(123, "density-test")
        for _ in range(8):
            size = rng.randint(64, g.n)
            X = sorted(rng.sample(range(g.n), size))
            profile, witness = density_witness(sp, X)
            xset = set(X)
            expected = []
            for v in profile.evenly_partitioned:
                members = sorted(u for u in cover.cliques[v] if u in xset)
                for tri in itertools.combinations(members, 3):
                    if all(sp.graph.has_edge(a, b)
                           for a, b in itertools.combinations(tri, 2)):
                        expected.append(tri)
            assert witness.e_count == len(expected)
            assert sorted(witness.hyperedges) == sorted(expected)
            for i in range(1, 4):
                counts = {}
                for he in expected:
                    for sub in itertools.combinations(he, i):
                        counts[sub] = counts.get(sub, 0) + 1
                assert witness.codegrees[i] == max(counts.values(), default=0)

    def test_delta_s_is_one_for_linear_transversals(self):
        sp = bipartite_2_3_witness()
        _, witness = density_witness(sp, range(5))
        assert witness.codegrees[2] == 1


class TestCheckUniformDensity:
    def test_worked_margins(self):
        _, witness = density_witness(bipartite_2_3_witness(), range(5))
        report = check_uniform_density(
            witness, 5, alpha=Fraction(6, 25), lam=3 * Fraction(5, 6)
        )
        assert report.edge_margin == pytest.approx(1.0)
        assert report.codegree_margins[1] == pytest.approx(1.0)
        assert report.codegree_margins[2] >= 1.0
        assert report.passes

    def test_empty_witness_fails_edge_inequality(self):
        _, witness = density_witness(bipartite_2_3_witness(), [0])
        report = check_uniform_density(witness, 1, alpha=Fraction(1, 2), lam=1.0)
        assert report.edge_margin == 0.0
        assert not report.passes

    def test_minimal_parameters_are_feasible(self):
        _, witness = density_witness(bipartite_2_3_witness(), range(5))
        report = check_uniform_density(witness, 5)
        assert report.minimal_alpha == Fraction(6, 25)
        rerun = check_uniform_density(
            witness, 5, alpha=report.minimal_alpha, lam=report.minimal_lambda
        )
        assert rerun.passes

    def test_minimal_lambda_steps_past_a_rounded_quotient(self):
        # e = 3 at |X| = 58, s = 3: Delta_1/unit_1 = 19.333333333333332, at
        # which the i = 1 margin reads 0.9999999999999999
        witness = WitnessSubgraph(None, 3, {1: 1, 2: 1, 3: 1})
        unit = _codegree_units(3 / 58, 3)[0]
        assert 1 / unit * unit < 1.0
        report = check_uniform_density(witness, 58)
        assert report.minimal_lambda == math.nextafter(1 / unit, math.inf)
        assert report.codegree_margins[1] == 1.0 and report.edge_margin == 1.0
        assert report.passes

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(2, 5), st.integers(0, 10**6), st.data())
    def test_minimal_pair_passes(self, x_size, s, e_count, data):
        # a witness with edges has codegrees up to e; one without has none
        codegrees = {i: data.draw(st.integers(0, e_count)) for i in range(1, s + 1)}
        witness = WitnessSubgraph(None, e_count, codegrees)
        report = check_uniform_density(witness, x_size)
        assert report.passes
        assert report.minimal_alpha == Fraction(e_count, x_size ** s)
        # lam is the quotient, or the float below it fails
        units = _codegree_units(e_count / x_size, s)
        quotient = max((d / u for d, u in zip(codegrees.values(), units) if u > 0), default=0.0)
        below = check_uniform_density(witness, x_size,
                                      lam=math.nextafter(report.minimal_lambda, 0.0))
        assert report.minimal_lambda == quotient or not below.passes

    def test_zero_x_size_rejected(self):
        _, witness = density_witness(bipartite_2_3_witness(), range(5))
        with pytest.raises(GraphError):
            check_uniform_density(witness, 0)


class TestBlowUpTransfer:
    def test_lifted_edge_shape(self):
        lifted = hypergraph_blow_up([(0, 1)], 2)
        assert lifted == {(0, 2), (0, 3), (1, 2), (1, 3)}

    @given(st.integers(0, 60), st.integers(1, 3), st.integers(3, 4))
    @settings(max_examples=30, deadline=None)
    def test_transfer_identity_random(self, seed, k, s):
        g = random_graph(8, 0.5, seed=seed)
        report = blow_up_transfer_report(g, k, s)
        assert report["equal"]
        assert report["vertices_ok"] and report["edges_ok"]

    def test_transfer_on_petersen(self):
        petersen = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                              (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
        for k in (2, 3):
            assert blow_up_transfer_report(petersen, k, 3)["equal"]
