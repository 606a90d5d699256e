"""Freeness deciders: mono-clique search, exhaustive coloring search with
symmetry breaking, Ramsey oracles, and the shipped witnesses."""

import itertools
import sys
import time

import pytest
from hypothesis import assume, given, settings
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
from erlab.graphs import EdgeColoring, Graph, GraphError, coloring_covers

from oracles import (
    naive_chained_tries,
    naive_last_vertex_tries,
    naive_mono_clique,
    random_graph,
    reference_search_free_coloring,
    sample_mono_free_coloring,
)


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

    @given(st.integers(0, 8), st.integers(2, 4), st.integers(1, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, n, b, t, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        col = EdgeColoring(t, {e: data.draw(st.integers(1, t)) for e in sorted(edges)})
        g = Graph(n, edges)
        assert find_mono_clique(g, col, b) == naive_mono_clique(g, col, b)

    @given(st.integers(1, 8), st.sampled_from(["missing", "extra", "beyond"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mismatch_names_the_first_uncovered_pair(self, n, kind, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        colors = {e: data.draw(st.integers(1, 2)) for e in sorted(edges)}
        if kind == "missing":
            assume(edges)
            del colors[data.draw(st.sampled_from(sorted(edges)))]
        elif kind == "extra":
            absent = [e for e in pairs if e not in edges]
            assume(absent)
            colors[data.draw(st.sampled_from(absent))] = 1
        else:  # a pair with an end at or above n, possibly far above it
            u = data.draw(st.integers(0, n + 2))
            v = data.draw(st.integers(max(u + 1, n), 1 << 16) | st.integers(1 << 21, 1 << 40))
            colors[(u, v)] = 2
            if v >= 1 << 21:
                # rows over 0..v would take more than 8 bytes a slot times 2^21
                # slots: the coloring is refused as it is built
                with pytest.raises(GraphError, match="above the limit"):
                    EdgeColoring(2, colors)
                return
        g, col = Graph(n, edges), EdgeColoring(2, colors)
        problem = coloring_covers(g, col)
        assert problem is not None and problem[0] == ("extra" if kind == "beyond" else kind)
        with pytest.raises(GraphError) as exc:
            find_mono_clique(g, col, 3)
        assert str(exc.value) == f"coloring does not match graph: {problem[0]} edge {problem[1]}"

    def test_negative_vertex_is_an_extra_pair(self):
        # no row holds vertex -1: the coloring is refused as it is built
        with pytest.raises(GraphError, match="^coloring has a negative vertex$"):
            EdgeColoring(1, {(-1, 1): 1, (1, 2): 1})


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_last_vertex_count_matches_depth_first(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        w = n - 1
        others = data.draw(st.permutations(range(w)), label="others")
        others = others[:data.draw(st.integers(1, w), label="degree of w")]
        used = data.draw(st.integers(1, 3), label="colors in play")
        rows_by_color = []
        for c in range(used):
            rows = [0] * n
            for x, y in itertools.combinations(range(w), 2):
                if data.draw(st.booleans()):
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x
            rows_by_color.append(rows)
        seen = [data.draw(st.integers(0, (1 << (used + 1)) - 1), label=f"seen {x}") & ~1
                for x in range(w)] + [0]
        local_bound = data.draw(st.sampled_from([None, 1, 2, 3]), label="local bound")
        palette_cap = data.draw(st.integers(used, used + 3), label="palette cap")
        b = data.draw(st.sampled_from([3, 4, 5]), label="b")
        want = naive_last_vertex_tries(others, rows_by_color, seen, used, palette_cap,
                                       local_bound, b)

        def count(limit):
            frontier = freeness._LastVertexFrontier(others, palette_cap, local_bound, b, n)
            return frontier.count(rows_by_color, seen, used, limit)

        assert count(1 << 62) == want
        if want is not None:
            # the count stops, as None, on reaching the limit
            for limit in (want, want + 1, data.draw(st.integers(1, want), label="limit")):
                got = count(limit)
                assert got == (want if want < limit else None)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_last_vertex_frontier_reuse_is_exact(self, data):
        # one frontier counts a sequence of visits; between visits the inputs
        # of a random prefix of positions are kept and the rest redrawn
        n = data.draw(st.integers(2, 8), label="n")
        w = n - 1
        others = data.draw(st.permutations(range(w)), label="others")
        others = others[:data.draw(st.integers(1, w), label="degree of w")]
        local_bound = data.draw(st.sampled_from([None, 1, 2, 3]), label="local bound")
        b = data.draw(st.sampled_from([3, 4, 5]), label="b")
        palette_cap = data.draw(st.integers(1, 6), label="palette cap")
        frontier = freeness._LastVertexFrontier(others, palette_cap, local_bound, b, n)
        used = data.draw(st.integers(1, palette_cap), label="colors in play")
        rows_by_color = [[0] * n for _ in range(palette_cap)]
        seen = [0] * n
        keep = 0
        for visit in range(data.draw(st.integers(1, 8), label="visits")):
            if visit and data.draw(st.integers(0, 4), label=f"new colors in play {visit}") == 0:
                used = data.draw(st.integers(1, palette_cap), label=f"colors in play {visit}")
            # from position keep on, redraw x's rows among the earlier others,
            # its colors, or both
            for i in range(keep, len(others)):
                x = others[i]
                part = data.draw(st.sampled_from(["rows", "colors", "both"]))
                if part != "colors":
                    for y in others[:i]:
                        for rows in rows_by_color:
                            if data.draw(st.booleans()):
                                rows[x] ^= 1 << y
                                rows[y] ^= 1 << x
                if part != "rows":
                    seen[x] = data.draw(st.integers(0, (1 << (palette_cap + 1)) - 1)) & ~1
            in_play = [rows[:] for rows in rows_by_color[:used]]
            seen_now = [s & ((1 << (used + 1)) - 2) for s in seen]
            want = naive_last_vertex_tries(others, in_play, seen_now, used, palette_cap,
                                           local_bound, b)
            if want is None:
                limit = data.draw(st.sampled_from([1, 1 << 62]), label=f"limit {visit}")
            else:
                # a limit of want or less stops the count, often in mid-layer
                limit = data.draw(st.sampled_from([want, want + 1, 1 << 62])
                                  | st.integers(1, want), label=f"limit {visit}")
            got = frontier.count(in_play, seen_now, used, limit)
            assert got == (want if want is not None and want < limit else None)
            keep = data.draw(st.integers(0, len(others)), label=f"kept positions {visit}")

    @pytest.mark.parametrize("t, local_bound, nodes", [
        (3, None, 1_254_438),
        (None, 3, 1_672_550),
    ])
    def test_clock_read_at_each_multiple_of_1024(self, monkeypatch, t, local_bound, nodes):
        # the clock is read at each multiple of 1024 nodes, exactly, whether a
        # visit to the last vertex's edges is counted in bulk or run by the loop
        reads = []

        def clock():
            reads.append(sys._getframe(1).f_locals.get("nodes", 0))
            return reads[-1] / 1_000_000

        monkeypatch.setattr(time, "monotonic", clock)
        res = search_free_coloring(Graph.complete(11), t, 3, local_bound, time_budget_ms=10**6)
        assert (res.status, res.nodes) == (FOUND, nodes)
        assert reads == [0] + list(range(1024, nodes + 1, 1024))
        reads.clear()
        res = search_free_coloring(Graph.complete(11), t, 3, local_bound, time_budget_ms=441)
        assert (res.status, res.nodes) == (INCONCLUSIVE, 441_344)  # 431 * 1024
        assert reads == [0] + list(range(1024, 441_345, 1024))

    @pytest.mark.parametrize("n, edges, last, start", [
        (2, [(0, 1)], 1, 0),  # one edge: its later endpoint in vertex order
        (5, [(3, 4)], 4, 0),  # the isolated vertices 0..2 sort first
        (6, [(0, 1), (0, 2), (1, 2), (2, 3)], 3, 3),  # 4 and 5 are isolated and sort last
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 4)], 4, 4),  # a pendant ends the order
        (4, list(itertools.combinations(range(4), 2)), 3, 3),
        (3, [], -1, 0),
    ])
    def test_edge_order_names_the_last_vertex(self, n, edges, last, start):
        order, blocks = freeness._edge_order(Graph(n, edges))
        got_last, got_start = blocks[0] if blocks else (-1, 0)
        assert (got_last, got_start) == (last, start)
        assert all(last in e for e in order[start:])
        assert not any(last in e for e in order[:start])

    @pytest.mark.parametrize("n, edges, blocks", [
        (2, [(0, 1)], [(1, 0)]),  # one block
        (5, [(3, 4)], [(4, 0)]),
        (6, [(0, 1), (0, 2), (1, 2), (2, 3)], [(3, 3), (1, 1)]),
        # 3 is not adjacent to the pendant 4 that ends the order
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 4)], [(4, 4), (3, 3)]),
        (4, list(itertools.combinations(range(4), 2)), [(3, 3), (2, 1)]),
        # 3 lies between the last two blocks' vertices and has no block
        (5, [(0, 1), (0, 2), (1, 2), (3, 4)], [(4, 3), (2, 1)]),
        (3, [], []),
    ])
    def test_edge_order_names_the_last_two_blocks(self, n, edges, blocks):
        order, got = freeness._edge_order(Graph(n, edges))
        assert got == blocks
        end = len(order)
        for w, start in got:
            assert all(w in e for e in order[start:end])
            assert not any(w in e for e in order[:start])
            end = start

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_chained_count_matches_depth_first(self, data):
        # a frontier for v's edges chained to one for w's, v and w the two
        # top vertices, counts a sequence of visits; between visits the
        # colors of some vertices' pairs and their color sets are redrawn
        n = data.draw(st.integers(3, 7), label="n")
        v, w = n - 2, n - 1
        others_v = data.draw(st.permutations(range(v)), label="others of v")
        others_v = others_v[:data.draw(st.integers(1, min(v, 4)), label="degree of v")]
        others = data.draw(st.permutations(range(v)), label="others of w")
        others = others[:data.draw(st.integers(0, min(v, 4)), label="other degree of w")]
        if data.draw(st.booleans(), label="v adjacent to w") or not others:
            others.insert(data.draw(st.integers(0, len(others)), label="v's place"), v)
        local_bound = data.draw(st.sampled_from([None, 1, 2, 3]), label="local bound")
        b = data.draw(st.sampled_from([3, 4]), label="b")
        palette_cap = data.draw(st.integers(1, 4), label="palette cap")
        last = freeness._LastVertexFrontier(others, palette_cap, local_bound, b, n)
        chained = freeness._LastVertexFrontier(others_v, palette_cap, local_bound, b, n)
        chained.vertex, chained.next = v, last
        pair_colors = {}
        seen = [0] * n
        redraw = range(v)
        for visit in range(data.draw(st.integers(1, 8), label="visits")):
            if visit == 0 or data.draw(st.integers(0, 3), label=f"new palette {visit}") == 0:
                # colors new in v's block when fewer than the cap are in play
                used = data.draw(st.integers(max(palette_cap - 1, 0), palette_cap),
                                 label=f"in play {visit}")
            for x in redraw:
                for y in range(v):
                    if y != x:
                        pair_colors[min(x, y), max(x, y)] = data.draw(st.integers(1, 4))
                seen[x] = data.draw(st.integers(0, 31)) & ~1
            rows_by_color = [[0] * n for _ in range(used)]
            for (x, y), c in pair_colors.items():
                if 1 <= c <= used:
                    rows_by_color[c - 1][x] |= 1 << y
                    rows_by_color[c - 1][y] |= 1 << x
            seen_now = [s & ((1 << (used + 1)) - 2) for s in seen]
            want = naive_chained_tries((v, others_v), others, rows_by_color, seen_now, used,
                                       palette_cap, local_bound, b)
            if want is None:
                limit = data.draw(st.sampled_from([1, 1 << 62]), label=f"limit {visit}")
            else:
                # a limit of want or less stops the count, often inside a
                # count of w's edges
                limit = data.draw(st.just(1 << 62) | st.sampled_from([want, want + 1])
                                  | st.integers(1, want), label=f"limit {visit}")
            inputs = repr((rows_by_color, seen_now))
            got = chained.count(rows_by_color, seen_now, used, limit)
            assert got == (want if want is not None and want < limit else None)
            assert repr((rows_by_color, seen_now)) == inputs  # left as they were
            # next, redraw a vertex that w's edges reach and v's do not, whose
            # change only the count of w's edges sees, or up to two vertices
            outside = [x for x in others if x != v and x not in others_v] or list(range(v))
            redraw = data.draw(st.lists(st.sampled_from(outside), min_size=1, max_size=1)
                               | st.lists(st.sampled_from(range(v)), max_size=2),
                               label=f"redrawn {visit}")

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


def bulk_counts(monkeypatch) -> tuple[list, list]:
    """The answers of every frontier count made from now on: the last
    vertex's, and the chained ones of the vertex before it."""
    last, chained = [], []
    count = freeness._LastVertexFrontier.count

    def counted(self, *args):
        results = chained if self.next else last
        results.append(count(self, *args))
        return results[-1]

    monkeypatch.setattr(freeness._LastVertexFrontier, "count", counted)
    return last, chained


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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_sparse_tails(self, data):
        # a dense core, then vertices of degree 0, 1 or 2 into it, so the last
        # vertex with an edge is often followed by isolated ones or has one edge
        core = data.draw(st.integers(1, 7), label="core")
        n = data.draw(st.integers(core, 9), label="n")
        edges = [e for e in itertools.combinations(range(core), 2) if data.draw(st.booleans())]
        for v in range(core, n):
            ends = data.draw(st.sets(st.integers(0, v - 1), max_size=2), label=f"ends of {v}")
            edges += [(u, v) for u in ends]
        g = Graph(n, edges)
        t, bound = data.draw(st.sampled_from(
            [(t, None) for t in (1, 2, 3)] + [(None, bound) for bound in (1, 2, 3)]),
            label="t, bound")
        b = data.draw(st.sampled_from([3, 4]), label="b")
        full = reference_search_free_coloring(g, t, b, bound)
        assert search_free_coloring(g, t, b, bound) == full
        budget = data.draw(st.integers(0, full.nodes), label="budget")
        got = search_free_coloring(g, t, b, bound, budget)
        assert got == reference_search_free_coloring(g, t, b, bound, budget)

    @pytest.mark.parametrize("budget, nodes", [
        (108_107, 108_108),  # runs out trying a color at depth 43
        (125_328, 125_328),  # runs out on entering depth 39
    ])
    def test_k11_budget_stops_on_the_second_to_last_vertex_edges(self, monkeypatch, budget,
                                                                  nodes):
        # The local K_11 search runs out on the second-to-last vertex's 9
        # edges (depths 36..44), in a visit whose chained count would pass
        # the budget: the count answers None, and the loop runs the visit.
        last, chained = bulk_counts(monkeypatch)
        got = search_free_coloring(Graph.complete(11), None, 3, 3, budget)
        assert (got.status, got.nodes) == (INCONCLUSIVE, nodes)
        assert got == reference_search_free_coloring(Graph.complete(11), None, 3, 3, budget)
        assert chained[-1] is None

    @pytest.mark.parametrize("kind, parameter, nodes", [
        ("multicolor", (3, 3), 1_254_438),
        ("local", 3, 1_672_550),
    ])
    def test_k11_last_vertex_counted_in_bulk(self, monkeypatch, kind, parameter, nodes):
        # On K_11 over 99% of the search's nodes lie on the last two
        # vertices' 19 edges: every visit but those that complete a coloring
        # is counted breadth-first, with the loop's node counts unchanged.
        last, chained = bulk_counts(monkeypatch)
        entry = ramsey_oracle(kind, parameter, 11)
        assert entry.transcript["per_n"][11] == {"status": FOUND, "nodes": nodes}
        # The last vertex's edges get the loop's 877 visits, 10 of which (one
        # per n = 2..11) find a coloring.  One visit to the second-to-last
        # vertex's edges per n = 3..11 finds one too: its chained count stops
        # (None) at the count that finds it, 13 counts in all for the 9, and
        # the loop runs the visit again.
        assert (len(chained), chained.count(None)) == (98, 9)
        assert (len(last), last.count(None)) == (890, 19)

    @pytest.mark.parametrize("kind, parameter, nodes", [
        ("multicolor", (3, 3), 1_254_438),
        ("local", 3, 1_672_550),
    ])
    def test_k11_budgeted_sweep_counted_in_bulk(self, monkeypatch, kind, parameter, nodes):
        # Under a time budget the bulk count reads the clock at each multiple
        # of 1024 it passes, so the loop runs the same visits as without.
        last, chained = bulk_counts(monkeypatch)
        entry = ramsey_oracle(kind, parameter, 11, time_budget_ms=10**6)
        assert entry.transcript["per_n"][11] == {"status": FOUND, "nodes": nodes}
        assert (len(chained), chained.count(None)) == (98, 9)
        assert (len(last), last.count(None)) == (890, 19)

    @pytest.mark.parametrize("kind, parameter, expanded", [
        ("multicolor", (3, 3), (18_598, 4_973)),
        ("local", 3, (18_892, 5_126)),
    ])
    def test_k11_frontier_recounts_only_what_changed(self, monkeypatch, kind, parameter,
                                                      expanded):
        # Consecutive visits mostly differ in the last position's inputs, so
        # the last vertex's frontier expands some 19k states per sweep and
        # the chained one some 5k; a recount of every layer on each visit
        # expands 384 658 and 38 681 (multicolor), 384 986 and 38 834 (local).
        frontiers = []
        init = freeness._LastVertexFrontier.__init__

        def kept(self, *args):
            init(self, *args)
            frontiers.append(self)

        monkeypatch.setattr(freeness._LastVertexFrontier, "__init__", kept)
        ramsey_oracle(kind, parameter, 11)
        # one for the search at n = 2, two for each of n = 3..11
        assert len(frontiers) == 19
        assert sum(f.expanded for f in frontiers if not f.next) == expanded[0]
        assert sum(f.expanded for f in frontiers if f.next) == expanded[1]

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

    @pytest.mark.parametrize("n_max", [1, 0, -3])
    def test_empty_sweep_rejected(self, n_max):
        with pytest.raises(GraphError, match=f"n_max must be at least 2, got {n_max}"):
            ramsey_oracle("multicolor", (2, 3), n_max)
        assert ramsey_oracle("local", 1, 2).lower_bound == 3  # one search, K_2

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
        colors = list(pattern.colors.values())
        assert colors.count(1) == colors.count(2) == 5

    def test_search_backed_pattern(self):
        pattern = mono_free_pattern(4, 3, 2)
        assert find_mono_clique(Graph.complete(4), pattern, 3) is None

    def test_repeated_call_returns_the_same_object(self):
        for key in ((5, 3, 2), (4, 3, 2), (7, 4, 2)):
            assert mono_free_pattern(*key) is mono_free_pattern(*key)

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
