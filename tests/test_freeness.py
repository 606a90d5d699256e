"""Freeness deciders: mono-clique search, exhaustive coloring search with
symmetry breaking, Ramsey oracles, and the shipped witnesses."""

import itertools
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab import freeness
from erlab.freeness import (
    FOUND,
    INCONCLUSIVE,
    LITERATURE,
    NONE,
    UnresolvedRamseyError,
    UnsupportedParametersError,
    VERIFIED,
    default_table,
    double_c5_coloring,
    find_mono_clique,
    greenwood_gleason_coloring,
    mono_free_pattern,
    ramsey_oracle,
    search_free_coloring,
)
from erlab.graphs import EdgeColoring, Graph, GraphError

from oracles import random_graph, reference_search_free_coloring, sample_mono_free_coloring


class TestFindMonoClique:
    def test_double_c5_is_triangle_free(self):
        assert find_mono_clique(Graph.complete(5), double_c5_coloring(), 3) is None

    def test_single_colored_triangle(self):
        col = EdgeColoring(1, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert find_mono_clique(Graph.complete(3), col, 3) == (1, (0, 1, 2))

    def test_missing_edge_is_structural_error(self):
        col = EdgeColoring(1, {(0, 1): 1})
        with pytest.raises(GraphError):
            find_mono_clique(Graph.complete(3), col, 3)

    def test_extra_edge_is_structural_error(self):
        col = EdgeColoring(1, {(0, 1): 1, (1, 2): 1})
        with pytest.raises(GraphError):
            find_mono_clique(Graph(3, [(0, 1)]), col, 3)

    def test_canonical_order_smallest_color_first(self):
        # color 1 and color 2 both hold a triangle; color 1 wins
        edges = {(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): 2, (4, 5): 2, (3, 5): 2}
        g = Graph(6, edges)
        assert find_mono_clique(g, EdgeColoring(2, edges), 3) == (1, (0, 1, 2))

    def test_b4_detection(self):
        col = EdgeColoring(1, {e: 1 for e in itertools.combinations(range(4), 2)})
        assert find_mono_clique(Graph.complete(4), col, 4) == (1, (0, 1, 2, 3))


class TestSearchFreeColoring:
    def test_k5_two_colors_found(self):
        res = search_free_coloring(Graph.complete(5), 2, 3)
        assert res.status == FOUND
        assert find_mono_clique(Graph.complete(5), res.coloring, 3) is None

    def test_k6_two_colors_none(self):
        assert search_free_coloring(Graph.complete(6), 2, 3).status == NONE

    def test_local_bound_two(self):
        assert search_free_coloring(Graph.complete(5), None, 3, local_bound=2).status == FOUND
        assert search_free_coloring(Graph.complete(6), None, 3, local_bound=2).status == NONE

    def test_local_bound_zero(self):
        assert search_free_coloring(Graph.complete(2), None, 3, local_bound=0).status == NONE

    def test_budget_reports_inconclusive(self):
        res = search_free_coloring(Graph.complete(6), 2, 3, node_budget=10)
        assert res.status == INCONCLUSIVE

    @pytest.mark.parametrize("budget, status, nodes", [
        (-2, INCONCLUSIVE, 0),  # a budget <= 0 stops before the first node
        (0, INCONCLUSIVE, 0),
        (1, INCONCLUSIVE, 1),  # stops on entering depth 1 with nodes == budget
        (10, INCONCLUSIVE, 10),
        (57, INCONCLUSIVE, 58),  # runs out while trying colors: budget + 1
        (324, INCONCLUSIVE, 325),
        (325, NONE, 325),  # exactly the full search of K_6
        (None, NONE, 325),
    ])
    def test_node_budget_semantics(self, budget, status, nodes):
        res = search_free_coloring(Graph.complete(6), 2, 3, node_budget=budget)
        assert (res.status, res.nodes) == (status, nodes)
        assert res.transcript["nodes"] == nodes

    @pytest.mark.parametrize("t, local_bound, deadline_node", [
        (3, None, 441_000),
        (None, 3, 151_000),
    ])
    def test_clock_read_every_1024_nodes(self, monkeypatch, t, local_bound, deadline_node):
        # The fake clock reads the search's node counter from the calling
        # frame and advances 1 us per node, so a budget of deadline_node / 1000
        # ms runs out at node deadline_node.  Both deadlines fall inside the
        # longest stretch in which the search once read no clock (16 384 and
        # 24 576 nodes on K_11).
        def clock():
            return sys._getframe(1).f_locals.get("nodes", 0) / 1_000_000

        monkeypatch.setattr(time, "monotonic", clock)
        res = search_free_coloring(Graph.complete(11), t, 3, local_bound,
                                   time_budget_ms=deadline_node // 1000)
        assert res.status == INCONCLUSIVE
        assert deadline_node < res.nodes <= deadline_node + 1024

    def test_first_edge_symmetry_breaking(self):
        res = search_free_coloring(Graph.complete(4), 3, 3)
        assert res.status == FOUND
        first_edge = min(res.coloring.colors)
        assert res.coloring.colors[first_edge] == 1

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_on_random_graphs(self, seed):
        g = random_graph(7, 0.6, seed=seed)
        res = search_free_coloring(g, 2, 3)
        if res.status == FOUND:
            assert find_mono_clique(g, res.coloring, 3) is None

    def test_decision_invariant_under_color_relabeling(self):
        g = Graph.complete(5)
        res = search_free_coloring(g, 2, 3)
        swapped = EdgeColoring(2, {e: 3 - c for e, c in res.coloring.colors.items()})
        assert find_mono_clique(g, swapped, 3) is None


class TestSearchEquivalence:
    """The loop search visits the same nodes in the same order as the
    recursive reference, so every field of the result agrees."""

    GRAPHS = [Graph.complete(n) for n in range(2, 10)] + [
        random_graph(n, 0.6, seed=n) for n in range(7, 11)
    ]
    CONFIGS = [(t, b, None) for t in (1, 2, 3) for b in (3, 4)] + [
        (None, b, bound) for bound in (0, 1, 2, 3) for b in (3, 4)
    ]

    @pytest.mark.parametrize("budget", [None, -2, 0, 1, 10, 57])
    def test_matches_reference(self, budget):
        for g in self.GRAPHS:
            for t, b, bound in self.CONFIGS:
                got = search_free_coloring(g, t, b, bound, budget)
                want = reference_search_free_coloring(g, t, b, bound, budget)
                assert got == want, (g.n, g.edges(), t, b, bound, budget)

    @pytest.mark.parametrize("kind, parameter", [("multicolor", (3, 3)), ("local", 3)])
    def test_oracle_transcripts_match(self, monkeypatch, kind, parameter):
        got = ramsey_oracle(kind, parameter, 10)
        monkeypatch.setattr(freeness, "search_free_coloring", reference_search_free_coloring)
        want = ramsey_oracle(kind, parameter, 10)
        assert got.transcript == want.transcript
        assert got.witness == want.witness


class TestRamseyOracle:
    def test_r1_of_3(self):
        entry = ramsey_oracle("multicolor", (1, 3), 4)
        assert entry.value == 3 and entry.status == VERIFIED

    def test_r2_of_3_with_witness(self):
        entry = ramsey_oracle("multicolor", (2, 3), 7)
        assert entry.value == 6 and entry.status == VERIFIED
        assert entry.witness_n == 5
        assert find_mono_clique(Graph.complete(5), entry.witness, 3) is None

    def test_local_values(self):
        assert ramsey_oracle("local", 0, 3).value == 2
        assert ramsey_oracle("local", 1, 4).value == 3
        assert ramsey_oracle("local", 2, 7).value == 6

    def test_unknown_when_nmax_too_small(self):
        entry = ramsey_oracle("multicolor", (2, 3), 4)
        assert entry.value is None and entry.status == "unknown"
        assert entry.lower_bound == 5

    def test_transcript_is_replayable(self):
        entry = ramsey_oracle("multicolor", (1, 3), 4)
        again = ramsey_oracle("multicolor", (1, 3), 4)
        assert entry.transcript == again.transcript


class TestDefaultTable:
    def test_r3_literature_with_replayable_witness(self):
        table = default_table()
        entry = table.multicolor(3, 3)
        assert entry.value == 17 and entry.status == LITERATURE
        assert entry.witness_n == 16
        assert find_mono_clique(Graph.complete(16), entry.witness, 3) is None

    def test_greenwood_gleason_is_3_local(self):
        col = greenwood_gleason_coloring()
        for x in range(16):
            seen = {col.color_of(x, y) for y in range(16) if y != x}
            assert len(seen) <= 3

    def test_local_at_least_multicolor(self):
        table = default_table()
        for k in (0, 1, 2):
            assert table.local_entries[k].value >= table.entries[(k, 3)].value

    def test_comparisons(self):
        table = default_table()
        assert table.r_le(2, 3, 6) and not table.r_le(2, 3, 5)
        assert not table.r_le(4, 3, 10)  # monotone via r_3(3) >= 17
        assert table.r_le(3, 3, 20)  # literature value 17 resolves <= 20
        with pytest.raises(Exception):
            table.r_le(4, 3, 20)  # no entry and no bound exceeding 20

    def test_min_ell(self):
        table = default_table()
        # r_1(3) = 3, r_2(3) = 6, r_3(3) = 17
        assert table.min_ell(3, 2, 1) == 1
        assert table.min_ell(3, 5, 1) == 2
        assert table.min_ell(3, 6, 2) == 3
        assert table.min_ell(3, 16, 3) == 3
        # every r_ell(3) with ell <= t+1 is at most s
        assert table.min_ell(3, 6, 1) is None
        assert table.min_ell(3, 16, 1) is None
        with pytest.raises(UnresolvedRamseyError):
            table.min_ell(3, 20, 3)  # r_4(3) vs 20 is unknown


class TestMonoFreePattern:
    def test_5_3_2_is_double_c5(self):
        pattern = mono_free_pattern(5, 3, 2)
        classes = pattern.classes()
        assert len(classes[1]) == len(classes[2]) == 5

    def test_search_backed_pattern(self):
        pattern = mono_free_pattern(4, 3, 2)
        assert find_mono_clique(Graph.complete(4), pattern, 3) is None

    def test_unsupported_parameters(self):
        with pytest.raises(UnsupportedParametersError):
            mono_free_pattern(6, 3, 2)  # r_2(3) = 6 is not > 6


class TestSampledColorings:
    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_sampler_output_is_mono_free(self, seed):
        col = sample_mono_free_coloring(6, 3, seed)
        assert col is not None
        assert find_mono_clique(Graph.complete(6), col, 3) is None
