"""Exact solver, counting, alteration sampler, and the constructive
extractors."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab.alpha import (
    AlterationParams,
    BudgetError,
    CliqueHypergraph,
    ExtractionError,
    UniformFamily,
    alpha_exact,
    alteration_probability,
    alteration_set,
    count_free_subsets,
    greedy_free_subset,
    is_free_set,
    lay3_free_subset,
    recursive_free_subset,
)
from erlab.construct import ConstructionParams, construct_upper_bound_instance
from erlab.graphs import EdgeColoring, Graph, GraphError, enumerate_cliques, first_clique

from oracles import (
    dp_alpha,
    dp_clique_tables,
    dp_count_free,
    fano_plane_edges,
    mono_free_colored_graph,
    naive_is_free,
    random_graph,
    reference_alpha_exact,
    reference_count_free_subsets,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestAlphaExact:
    def test_known_values(self):
        assert alpha_exact(cycle(5), 3).size == 5
        assert alpha_exact(Graph.complete(4), 3).size == 2
        assert alpha_exact(Graph.complete(9), 5).size == 4

    def test_witness_is_free_and_lex_least(self):
        g = random_graph(12, 0.5, seed=17)
        res = alpha_exact(g, 3)
        assert naive_is_free(g, res.witness, 3)
        # lexicographically least among maximum solutions
        best = None
        for combo in itertools.combinations(range(g.n), res.size):
            if naive_is_free(g, combo, 3):
                best = combo
                break
        assert res.witness == best

    def test_matches_dp_oracle(self):
        for seed in range(20):
            g = random_graph(8 + seed % 6, 0.5, seed=seed)
            tables = dp_clique_tables(g, 5)
            for s in (3, 4, 5):
                assert alpha_exact(g, s).size == dp_alpha(g, s, tables)

    def test_budget_gives_valid_sandwich(self):
        g = random_graph(16, 0.5, seed=3)
        truth = alpha_exact(g, 3).size
        res = alpha_exact(g, 3, node_budget=20)
        assert not res.complete
        assert res.size <= truth <= res.upper_bound

    def test_s_below_2_rejected(self):
        with pytest.raises(GraphError):
            alpha_exact(Graph.complete(3), 1)


class TestCountFreeSubsets:
    def test_known_values(self):
        assert count_free_subsets(Graph.complete(4), 3, min_size=3) == 0
        assert count_free_subsets(Graph(5), 3, min_size=5) == 1

    def test_matches_dp_oracle(self):
        for seed in range(10):
            g = random_graph(10, 0.5, seed=seed)
            tables = dp_clique_tables(g, 4)
            for s in (3, 4):
                for min_size in (0, 4):
                    assert count_free_subsets(g, s, min_size) == dp_count_free(
                        g, s, min_size, tables
                    )

    def test_antitone_under_edge_addition(self):
        for seed in range(12):
            g = random_graph(12, 0.35, seed=seed)
            missing = [
                (u, v)
                for u, v in itertools.combinations(range(12), 2)
                if not g.has_edge(u, v)
            ]
            if not missing:
                continue
            g_plus = Graph(12, g.edges() + [missing[0]])
            assert count_free_subsets(g_plus, 3) <= count_free_subsets(g, 3)

    def test_refuses_large_graphs(self):
        with pytest.raises(GraphError) as err:
            count_free_subsets(Graph(25), 3)
        assert "alpha_exact" in str(err.value)


class TestJoinableMemo:
    """The memoised searches equal the unmemoised reference searches."""

    def test_alpha_matches_reference(self):
        incomplete = 0
        for seed in range(12):
            g = random_graph(14 + seed % 10, 0.35 + 0.05 * (seed % 5), seed=seed)
            for s in (3, 4, 5):
                for budget in (None, 0, 1, 20, 500):
                    res = alpha_exact(g, s, node_budget=budget)
                    assert res == reference_alpha_exact(g, s, node_budget=budget)
                    incomplete += not res.complete
        assert incomplete > 0  # the budgeted stops and their bounds are compared too

    def test_alpha_matches_reference_on_k4_instance(self):
        params = ConstructionParams.derive(5, 3, 4, 64, k=4, R=5, seed=1)
        g = construct_upper_bound_instance(params, 64).final
        assert first_clique(g._rows, (1 << g.n) - 1, 5) is not None
        res = alpha_exact(g, 5, node_budget=5000)
        assert res == reference_alpha_exact(g, 5, node_budget=5000)
        assert res.nodes == 5000 and not res.complete

    def test_count_matches_reference(self):
        for seed in range(8):
            g = random_graph(12 + seed % 4, 0.4, seed=seed)
            for s in (3, 4):
                for min_size in (0, 5):
                    assert count_free_subsets(g, s, min_size) == reference_count_free_subsets(
                        g, s, min_size
                    )

    def test_back_to_back_calls_on_different_graphs(self):
        # one vertex count, different edges: an answer kept from the first
        # call would be wrong for the second graph's masks
        g1, g2 = random_graph(16, 0.5, seed=1), random_graph(16, 0.5, seed=2)
        assert reference_alpha_exact(g1, 3) != reference_alpha_exact(g2, 3)
        for g in (g1, g2, g1):
            assert alpha_exact(g, 3) == reference_alpha_exact(g, 3)
            assert count_free_subsets(g, 3) == reference_count_free_subsets(g, 3)


class TestAlteration:
    def test_empty_families_keep_everything(self):
        fam = UniformFamily(6, 2, [])
        out = alteration_set(AlterationParams([fam], seed=4))
        assert out == tuple(range(6))
        assert alteration_probability([fam], 6) == 1.0

    def test_matching_probability(self):
        fam = UniformFamily(6, 2, [(0, 1), (2, 3), (4, 5)])
        assert alteration_probability([fam], 6) == pytest.approx(2 / 3)

    def test_output_always_independent(self):
        fano = UniformFamily(7, 3, fano_plane_edges())
        for seed in range(100):
            out = alteration_set(AlterationParams([fano], seed=seed))
            chosen = set(out)
            assert not any(set(line) <= chosen for line in fano.edges)

    def test_two_families(self):
        f1 = UniformFamily(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        f2 = UniformFamily(9, 2, [(0, 3), (1, 4)])
        for seed in range(50):
            out = alteration_set(AlterationParams([f1, f2], seed=seed))
            chosen = set(out)
            for fam in (f1, f2):
                assert not any(set(e) <= chosen for e in fam.edges)

    def test_override_probability(self):
        fam = UniformFamily(10, 2, [(0, 1)])
        out = alteration_set(AlterationParams([fam], seed=1, p=0.0))
        assert out == ()

    def test_mismatched_ground_sets_rejected(self):
        with pytest.raises(GraphError):
            alteration_set(
                AlterationParams(
                    [UniformFamily(5, 2, []), UniformFamily(6, 2, [])], seed=0
                )
            )

    @given(st.integers(0, 300), st.integers(4, 9))
    @settings(max_examples=40, deadline=None)
    def test_independence_property(self, seed, n):
        from erlab.util import make_rng

        rng = make_rng(seed, "family")
        edges = [
            tuple(sorted(rng.sample(range(n), 3)))
            for _ in range(rng.randint(0, 2 * n))
        ]
        fam = UniformFamily(n, 3, edges)
        out = alteration_set(AlterationParams([fam], seed=seed))
        chosen = set(out)
        assert not any(set(e) <= chosen for e in fam.edges)


class TestCliqueHypergraph:
    def test_hyperedges_match_enumeration(self):
        g = random_graph(10, 0.6, seed=2)
        ch = CliqueHypergraph.from_graph(g, 3)
        assert list(ch.hyperedges) == enumerate_cliques(g, 3)

    def test_cap(self):
        with pytest.raises(BudgetError):
            CliqueHypergraph.from_graph(Graph.complete(10), 3, cap=5)


class TestRecursiveExtractor:
    def test_triangle_free_graph_returns_everything(self):
        g = cycle(7)
        col = EdgeColoring(1, {e: 1 for e in g.edges()})
        res = recursive_free_subset(g, col, 3)
        assert res.vertices == tuple(range(7))
        assert "base" in res.path[0]

    def test_mono_triangle_precondition(self):
        edges = {e: 1 for e in itertools.combinations(range(6), 2)}
        col = EdgeColoring(2, edges)
        with pytest.raises(ExtractionError) as err:
            recursive_free_subset(Graph.complete(6), col, 5)
        assert err.value.witness is not None

    def test_seeded_instances_always_valid(self):
        for seed in range(15):
            from erlab.util import make_rng

            rng = make_rng(seed, "rec-test")
            n = rng.randint(25, 55)
            g, col = mono_free_colored_graph(n, 2, rng.uniform(0.1, 0.45), seed)
            res = recursive_free_subset(g, col, 5, seed=seed)
            assert is_free_set(g, res.vertices, 5)
            assert naive_is_free(g, res.vertices, 5)

    def test_three_colors(self):
        g, col = mono_free_colored_graph(40, 3, 0.4, seed=5)
        res = recursive_free_subset(g, col, 4, seed=5)
        assert is_free_set(g, res.vertices, 4)

    def test_scan_budget(self):
        g, col = mono_free_colored_graph(40, 2, 0.3, seed=9)
        with pytest.raises(BudgetError):
            recursive_free_subset(g, col, 5, scan_cap=0, threshold_scale=1e9,
                                  clique_cap=0)

    def test_scan_cap_is_cumulative(self):
        # no tuple reaches the threshold, so sizes i = 2, 3, 4 scan all
        # C(16, 1) + C(16, 2) + C(16, 3) = 16 + 120 + 560 = 696 tuples
        g, col = mono_free_colored_graph(16, 2, 0.3, seed=9)
        res = recursive_free_subset(g, col, 4, scan_cap=696, threshold_scale=1e9)
        assert res.path[0].startswith("depth 0: alteration")
        with pytest.raises(BudgetError):
            recursive_free_subset(g, col, 4, scan_cap=695, threshold_scale=1e9)


class TestLay3Extractor:
    def test_pigeonhole_branch_on_tripartite(self):
        n, part = 60, 20
        colors = {}
        key = {frozenset({0, 1}): 1, frozenset({0, 2}): 2, frozenset({1, 2}): 3}
        for u, v in itertools.combinations(range(n), 2):
            pu, pv = u // part, v // part
            if pu != pv:
                colors[(u, v)] = key[frozenset({pu, pv})]
        g = Graph(n, colors)
        col = EdgeColoring(3, colors)
        res = lay3_free_subset(g, col, 5)
        assert res.path[0].startswith("pigeonhole")
        spanned = {
            col.get(u, v)
            for u, v in itertools.combinations(res.vertices, 2)
            if g.has_edge(u, v)
        }
        assert len(spanned) <= 1  # t - 2
        assert is_free_set(g, res.vertices, 5)

    def test_families_branch_on_mono_neighborhoods(self):
        edges = {(2 * i, 2 * i + 1): i + 1 for i in range(5)}
        g = Graph(10, edges)
        col = EdgeColoring(5, edges)
        res = lay3_free_subset(g, col, 5)
        assert res.path[0].startswith("families")
        assert res.vertices == tuple(range(10))

    def test_seeded_instances_always_valid(self):
        for seed in range(15):
            from erlab.util import make_rng

            rng = make_rng(seed, "lay3-test")
            n = rng.randint(20, 55)
            g, col = mono_free_colored_graph(n, 3, rng.uniform(0.1, 0.5), seed)
            res = lay3_free_subset(g, col, 5, seed=seed)
            assert is_free_set(g, res.vertices, 5)

    def test_branch_flag(self):
        g, col = mono_free_colored_graph(30, 3, 0.3, seed=2)
        mean_res = lay3_free_subset(g, col, 5, branch_on="mean", seed=2)
        max_res = lay3_free_subset(g, col, 5, branch_on="max", seed=2)
        assert is_free_set(g, mean_res.vertices, 5)
        assert is_free_set(g, max_res.vertices, 5)
        with pytest.raises(GraphError):
            lay3_free_subset(g, col, 5, branch_on="median")

    def test_s_below_3_rejected(self):
        g, col = mono_free_colored_graph(10, 2, 0.3, seed=1)
        with pytest.raises(GraphError):
            lay3_free_subset(g, col, 2)


class TestGreedyBaseline:
    def test_output_is_free(self):
        for seed in range(10):
            g = random_graph(14, 0.6, seed=seed)
            assert naive_is_free(g, greedy_free_subset(g, 3), 3)
