"""Exact solver, counting, alteration sampler, and the constructive
extractors."""

import functools
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab import alpha, graphs
from erlab import io as eio
from erlab.alpha import (
    BudgetError,
    ExtractionError,
    alpha_exact,
    alteration_probability,
    alteration_set,
    count_free_subsets,
    greedy_free_subset,
    is_free_set,
    lay3_free_subset,
    recursive_free_subset,
)
from erlab.cli import main
from erlab.construct import ConstructionParams, construct_upper_bound_instance
from erlab.density import blow_up_transfer_report
from erlab.graphs import EdgeColoring, Graph, GraphError, enumerate_cliques, first_clique

from oracles import (
    dp_alpha,
    dp_clique_tables,
    dp_count_free,
    fano_plane_edges,
    mono_free_colored_graph,
    naive_cliques,
    naive_is_free,
    naive_ordering_satisfies,
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

    def test_deeper_than_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        res = alpha_exact(Graph(limit + 500), 2)
        assert res.size == res.nodes == limit + 500 and res.complete
        assert sys.getrecursionlimit() == limit


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


@functools.cache
def k4_instance() -> Graph:
    """The final graph of the (5,3,4) k=4 n=64 instance at seed 1, which holds K_5."""
    params = ConstructionParams.derive(5, 3, 4, 64, k=4, R=5, seed=1)
    return construct_upper_bound_instance(params, 64).final


class TestJoinableMemo:
    """The searches' clique queries, answered by ``alpha._Joinable``, equal
    the reference searches' fresh queries."""

    @given(st.integers(0, 10_000), st.integers(1, 16), st.sampled_from([0.3, 0.5, 0.8]),
           st.integers(1, 4), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15)),
                                       min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_answers_equal_fresh_queries(self, seed, n, p, size, steps):
        # each step adds or removes one vertex of the mask, then asks for one
        # of three vertices, as the searches do on a memo miss: nested masks
        # asked for one vertex are what the last clique and last free mask answer
        rows = random_graph(n, p, seed=seed)._rows
        joinable = alpha._Joinable(rows, size)
        mask = 0
        for v, u in steps:
            mask ^= 1 << (u % n)
            free = joinable.memo.get(mask)
            if free is None:
                free = joinable(v % n, mask)
            assert free == (first_clique(rows, mask, size) is None)

    def test_fewer_kernel_calls_than_masks_on_k4_instance(self, monkeypatch):
        asked = []

        def counted(rows, mask, size):
            asked.append(mask)
            return first_clique(rows, mask, size)

        helpers = []

        class Recorded(alpha._Joinable):
            __slots__ = ()

            def __init__(self, rows, size):
                super().__init__(rows, size)
                helpers.append(self)

        monkeypatch.setattr(alpha, "first_clique", counted)
        monkeypatch.setattr(alpha, "_Joinable", Recorded)
        res = alpha_exact(k4_instance(), 5, node_budget=5000)
        assert res.nodes == 5000
        (memo,) = [helper.memo for helper in helpers]
        # the kernel asks each mask at most once, and fewer masks than the
        # search asks about; the others the two per-vertex rules answer
        assert len(asked) == len(set(asked)) and set(asked) <= memo.keys()
        assert len(asked) < len(memo)
        # (the empty mask is inside every vertex's free mask from the start)
        by_rule = [memo[mask] for mask in memo.keys() - set(asked) - {0}]
        assert False in by_rule  # a mask holding the vertex's last clique
        assert True in by_rule  # a mask inside the vertex's last free mask

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
        g = k4_instance()
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
        assert alteration_set(6, [[]], seed=4) == tuple(range(6))
        assert alteration_set(6, [], seed=4) == tuple(range(6))
        assert alteration_probability([[]], 6) == 1.0

    def test_matching_probability(self):
        assert alteration_probability([[(0, 1), (2, 3), (4, 5)]], 6) == pytest.approx(2 / 3)

    def test_uniformity_is_member_length(self):
        # k = 3 from the members: (7 / 7)^(1/2) / 3
        assert alteration_probability([fano_plane_edges()], 7) == pytest.approx(1 / 3)
        with pytest.raises(GraphError):
            alteration_probability([[(0,)]], 4)

    def test_output_always_independent(self):
        fano = fano_plane_edges()
        for seed in range(100):
            chosen = set(alteration_set(7, [fano], seed=seed))
            assert not any(set(line) <= chosen for line in fano)

    def test_two_families(self):
        f1 = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        f2 = [(0, 3), (1, 4)]
        for seed in range(50):
            chosen = set(alteration_set(9, [f1, f2], seed=seed))
            for fam in (f1, f2):
                assert not any(set(e) <= chosen for e in fam)

    @given(st.integers(0, 300), st.integers(4, 9))
    @settings(max_examples=40, deadline=None)
    def test_independence_property(self, seed, n):
        from erlab.util import make_rng

        rng = make_rng(seed, "family")
        edges = [
            tuple(sorted(rng.sample(range(n), 3)))
            for _ in range(rng.randint(0, 2 * n))
        ]
        chosen = set(alteration_set(n, [edges], seed=seed))
        assert not any(set(e) <= chosen for e in edges)


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

    def test_negative_color_count_is_bad_input(self):
        # the base case asks exponent_lower, which rejects t < 0
        g, col = mono_free_colored_graph(12, 2, 0.3, seed=9)
        with pytest.raises(GraphError, match="^t must be non-negative$"):
            recursive_free_subset(g, col, 4, t=-1)

    def test_scan_budget(self, monkeypatch):
        monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 1e9)
        monkeypatch.setattr(alpha, "SCAN_CAP", 0)
        monkeypatch.setattr(graphs, "CLIQUE_CAP", 0)
        g, col = mono_free_colored_graph(40, 2, 0.3, seed=9)
        with pytest.raises(BudgetError):
            recursive_free_subset(g, col, 5)

    def test_scan_cap_is_cumulative(self, monkeypatch):
        # no tuple reaches the threshold, so sizes i = 2, 3, 4 scan all
        # C(16, 1) + C(16, 2) + C(16, 3) = 16 + 120 + 560 = 696 tuples
        monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 1e9)
        g, col = mono_free_colored_graph(16, 2, 0.3, seed=9)
        monkeypatch.setattr(alpha, "SCAN_CAP", 696)
        res = recursive_free_subset(g, col, 4)
        assert res.path[0].startswith("depth 0: alteration")
        monkeypatch.setattr(alpha, "SCAN_CAP", 695)
        with pytest.raises(BudgetError):
            recursive_free_subset(g, col, 4)

    def test_alteration_over_every_clique(self, monkeypatch):
        monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 1e9)
        g, col = mono_free_colored_graph(16, 2, 0.5, seed=2)
        count = len(enumerate_cliques(g, 4))
        assert count > 0
        res = recursive_free_subset(g, col, 4, seed=3)
        assert res.path == [f"depth 0: alteration over {count} cliques"]
        assert res.vertices == alteration_set(16, [enumerate_cliques(g, 4)], seed=3)

    def test_clique_cap(self, monkeypatch):
        monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 1e9)
        g, col = mono_free_colored_graph(16, 2, 0.5, seed=2)
        count = len(enumerate_cliques(g, 4))
        monkeypatch.setattr(graphs, "CLIQUE_CAP", count)
        recursive_free_subset(g, col, 4)
        monkeypatch.setattr(graphs, "CLIQUE_CAP", count - 1)
        with pytest.raises(BudgetError, match=f"^{count} K_4 copies exceed the cap {count - 1}$"):
            recursive_free_subset(g, col, 4)


class TestCappedCliques:
    def test_lists_every_clique_within_the_cap(self, monkeypatch):
        g = random_graph(14, 0.6, seed=4)
        cliques = naive_cliques(g, 4)
        monkeypatch.setattr(graphs, "CLIQUE_CAP", len(cliques))
        assert enumerate_cliques(g, 4) == cliques

    @pytest.mark.parametrize("cap", [0, 1, 10, 494])
    def test_raises_after_at_most_cap_plus_one(self, monkeypatch, cap):
        drawn = []
        # the generator recurses through the module global, which the patch
        # replaces: keep the real one, and count the outermost level only
        real = graphs._cliques

        def counted(rows, cand, need, prefix):
            for clique in real(rows, cand, need, prefix):
                if not prefix:
                    drawn.append(clique)
                yield clique

        monkeypatch.setattr(graphs, "_cliques", counted)
        monkeypatch.setattr(graphs, "CLIQUE_CAP", cap)
        # K_12 holds C(12, 4) = 495 copies of K_4
        with pytest.raises(BudgetError, match=f"^{cap + 1} K_4 copies exceed the cap {cap}$"):
            enumerate_cliques(Graph.complete(12), 4)
        assert len(drawn) == cap + 1

    def test_clique_order_below_2_rejected(self):
        with pytest.raises(GraphError):
            enumerate_cliques(Graph.complete(3), 1)

    def test_lay3_families_branch_is_capped(self, monkeypatch):
        edges = {(2 * i, 2 * i + 1): i + 1 for i in range(5)}  # 5 copies of K_2
        g, col = Graph(10, edges), EdgeColoring(5, edges)
        monkeypatch.setattr(graphs, "CLIQUE_CAP", 4)
        with pytest.raises(BudgetError, match="^5 K_2 copies exceed the cap 4$"):
            lay3_free_subset(g, col, 3)

    def test_one_cap_rules_every_caller(self, monkeypatch, tmp_path, capsys):
        # graphs.CLIQUE_CAP is read at call time by the one lister, so one
        # patch caps every caller: each stops after 5 copies against a cap of 4
        monkeypatch.setattr(graphs, "CLIQUE_CAP", 4)
        monkeypatch.setattr(alpha, "THRESHOLD_SCALE", 1e9)
        g, col = mono_free_colored_graph(16, 2, 0.5, seed=2)
        k2s = {(2 * i, 2 * i + 1): i + 1 for i in range(5)}  # 5 copies of K_2
        message = "^5 K_{} copies exceed the cap 4$"
        for call, s in [
            (lambda: enumerate_cliques(Graph.complete(12), 4), 4),
            (lambda: recursive_free_subset(g, col, 4), 4),
            (lambda: lay3_free_subset(Graph(10, k2s), EdgeColoring(5, k2s), 3), 2),
            (lambda: blow_up_transfer_report(Graph.complete(12), 2, 4), 4),
        ]:
            with pytest.raises(BudgetError, match=message.format(s)):
                call()

        eio.write_graph(tmp_path / "g.txt", g)
        eio.write_coloring(tmp_path / "c.txt", col)
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--graph", str(tmp_path / "g.txt"), "--coloring",
                  str(tmp_path / "c.txt"), "--s", "4", "--method", "alteration"])
        assert exc.value.code == 3
        assert capsys.readouterr() == ("", "erlab extract: error: 5 K_4 copies exceed the cap 4\n")


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
            col.colors[(u, v)]
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

    def test_families_branch_never_lists_the_pairs_of_its_rows(self, monkeypatch):
        # the families filter reads the colors of each clique's pairs from
        # the rows, on the (5,3,4) k=4 n=64 instance at seed 1
        inst = construct_upper_bound_instance(
            ConstructionParams.derive(5, 3, 4, 64, k=4, R=5, seed=1), 64)

        def refuse(rows_by_color):
            raise AssertionError("colored pairs derived from rows")

        monkeypatch.setattr(graphs, "_colored_pairs", refuse)
        res = lay3_free_subset(inst.final, inst.coloring, 5)
        assert res.path[0].startswith("families") and "|F|=0 |G|=0" not in res.path[0]
        assert is_free_set(inst.final, res.vertices, 5)

    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ordering_condition_matches_every_permutation(self, k, t, data):
        clique = tuple(sorted(data.draw(st.sets(st.integers(0, 9), min_size=k, max_size=k))))
        col = EdgeColoring(t, {e: data.draw(st.integers(1, t))
                               for e in itertools.combinations(clique, 2)})
        x = data.draw(st.sampled_from(clique))
        most_freq = data.draw(st.none() | st.sampled_from(sorted(col.rows)))
        assert (alpha._ordering_satisfies(col, x, clique, most_freq)
                == naive_ordering_satisfies(col, x, clique, most_freq))

    def test_s_below_3_rejected(self):
        g, col = mono_free_colored_graph(10, 2, 0.3, seed=1)
        with pytest.raises(GraphError):
            lay3_free_subset(g, col, 2)


class TestGreedyBaseline:
    def test_output_is_free(self):
        for seed in range(10):
            g = random_graph(14, 0.6, seed=seed)
            assert naive_is_free(g, greedy_free_subset(g, 3), 3)
