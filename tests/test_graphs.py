"""Graph/hypergraph core: predicates, incidence structure, file formats."""

import itertools
import json
from collections import Counter
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erlab.graphs import (
    CliqueCover,
    EdgeColoring,
    Graph,
    GraphError,
    LinearHypergraph,
    MalformedHypergraphError,
    NonLinearError,
    coloring_covers,
    enumerate_cliques,
    first_clique,
    incidence_graph,
    uncovered_clique,
    validate_hypergraph,
)
from erlab import cli, graphs
from erlab import io as eio
from erlab.freeness import find_mono_clique
from erlab.checkers import _naive_most_frequent
from erlab.util import iter_bits

from oracles import (
    naive_cliques,
    naive_coloring_covers,
    naive_cover_failure,
    naive_first_clique,
    naive_hypergraph_witnesses,
    naive_incidence,
    naive_induced,
    naive_induced_coloring,
    naive_mono_clique,
    naive_write_coloring,
    naive_write_graph,
    random_graph,
    rows_coloring,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def _families(draw):
    """(n, R, edges): up to nine R-sets of range(n), repeats allowed, so the
    family may be empty, non-linear or hold triangles."""
    n = draw(st.integers(1, 9))
    R = draw(st.integers(1, min(n, 4)))
    edge = st.sets(st.integers(0, n - 1), min_size=R, max_size=R).map(sorted)
    return n, R, draw(st.lists(edge, max_size=9))


class TestGraph:
    def test_rejects_loops_and_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_neighbors_sorted_and_symmetric(self):
        g = Graph(5, [(3, 1), (1, 0), (4, 1)])
        assert tuple(iter_bits(g.row(1))) == (0, 3, 4)
        for u in range(5):
            for v in range(5):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_induced_relabels(self):
        g = Graph.complete(5)
        sub, old = g.induced([4, 1, 3])
        assert old == [1, 3, 4]
        assert sub.n == 3 and sub.m == 3

    @given(st.integers(0, 10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_matches_has_edge(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else [])
        # unsorted, with repeats
        vertices = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n)) if n else []
        sub, old = g.induced(vertices)
        edges, keep = naive_induced(g, vertices)
        assert old == keep and sub.n == len(keep)
        assert sub.edges() == edges and sub.m == len(edges)
        assert all(sub.has_edge(j, i) == sub.has_edge(i, j) for i, j in edges)

    @given(st.integers(0, 10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_induced_on_every_vertex_is_a_copy(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else [])
        # every vertex, shuffled, with repeats
        vertices = data.draw(st.permutations(range(n))) + data.draw(
            st.lists(st.integers(0, max(n - 1, 0)), max_size=n) if n else st.just([]))
        sub, old = g.induced(vertices)
        edges, keep = naive_induced(g, vertices)
        assert old == keep == list(range(n))
        assert sub.n == n and sub.edges() == edges and sub.m == g.m
        assert sub._rows is not g._rows


class TestEnumerateCliques:
    def test_k4_triangles(self):
        assert enumerate_cliques(Graph.complete(4), 3) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        ]

    def test_c5_triangle_free(self):
        assert enumerate_cliques(cycle(5), 3) == []

    def test_seeded_random_matches_naive_oracle(self):
        g = random_graph(18, 0.5, seed=42)
        assert enumerate_cliques(g, 4) == naive_cliques(g, 4)

    def test_rejects_s_below_2(self):
        with pytest.raises(GraphError):
            enumerate_cliques(Graph.complete(3), 1)

    @given(st.integers(0, 9), st.integers(0, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracle(self, n, s, data):
        pairs = list(itertools.combinations(range(n), 2))
        flags = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, keep in zip(pairs, flags) if keep])
        naive = naive_cliques(g, s)

        mask = data.draw(st.integers(0, g.full_mask()))
        inside = [c for c in naive if all((mask >> v) & 1 for v in c)]
        assert first_clique(g._rows, mask, s) == (inside[0] if inside else None)

        members = st.sets(st.integers(0, max(n - 1, 0)), max_size=n).map(
            lambda vs: tuple(sorted(vs))
        )
        n_ground = data.draw(st.integers(0, 4))
        cover = CliqueCover(n_ground, {v: data.draw(members) for v in range(n_ground)})
        uncovered = [
            c for c in naive
            if not any(set(c) <= set(cover.cliques[v]) for v in range(n_ground))
        ]
        if s < 2:
            with pytest.raises(GraphError):
                enumerate_cliques(g, s)
            with pytest.raises(GraphError):
                uncovered_clique(g, cover, s)
        else:
            assert enumerate_cliques(g, s) == naive
            assert uncovered_clique(g, cover, s) == (uncovered[0] if uncovered else None)


class TestFirstClique:
    @given(st.integers(0, 10), st.integers(-1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, n, s, data):
        pairs = list(itertools.combinations(range(n), 2))
        # the absent pairs: few of them give dense graphs, so K_5 and K_6 occur
        absent = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        g = Graph(n, [e for e in pairs if e not in absent])
        fewer_than_s = st.sets(st.integers(0, max(n - 1, 0)), max_size=max(s - 1, 0))
        mask = data.draw(st.one_of(
            st.integers(0, g.full_mask()),
            fewer_than_s.map(lambda vs: sum(1 << v for v in vs) & g.full_mask()),
        ))
        assert first_clique(g._rows, mask, s) == naive_first_clique(g._rows, mask, s)

    def test_mask_smaller_than_s(self):
        rows = Graph.complete(6)._rows
        assert first_clique(rows, 0b101101, 5) is None
        assert first_clique(rows, 0b101101, 4) == (0, 2, 3, 5)
        assert first_clique(rows, 0, 1) is None
        assert first_clique(rows, 0, 0) == () == first_clique(rows, 0, -1)

    def test_rebound_name_sees_one_call_per_query(self, monkeypatch):
        # a tracer rebinds the module name to a wrapper; the search beneath
        # it must not call back through that name
        real = graphs.first_clique
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graphs, "first_clique", counting)
        g = Graph(7, list(itertools.combinations(range(2, 6), 2)) + [(0, 2), (1, 6), (5, 6)])
        assert graphs.first_clique(g._rows, g.full_mask(), 4) == (2, 3, 4, 5)
        assert len(calls) == 1


class TestValidateHypergraph:
    def test_triangle_witness(self):
        rep = validate_hypergraph(LinearHypergraph(7, 3, [(1, 2, 3), (3, 4, 5), (5, 6, 1)]))
        assert rep.linear and not rep.triangle_free
        assert rep.witness == (0, 1, 2)

    def test_sunflower_is_clean(self):
        rep = validate_hypergraph(LinearHypergraph(8, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7)]))
        assert rep.linear and rep.triangle_free and rep.witness is None

    def test_nonlinear_pair_witness(self):
        rep = validate_hypergraph(LinearHypergraph(5, 3, [(1, 2, 3), (2, 3, 4)]))
        assert not rep.linear
        assert rep.witness == (0, 1)

    def test_malformed_edge_names_index(self):
        with pytest.raises(MalformedHypergraphError) as err:
            validate_hypergraph(LinearHypergraph(5, 3, [(0, 1, 2), (1, 2, 2)]))
        assert err.value.index == 1
        with pytest.raises(MalformedHypergraphError):
            validate_hypergraph(LinearHypergraph(5, 3, [(0, 1, 2, 3)]))

    @given(_families())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, family):
        n, R, edges = family
        pair, triangle = naive_hypergraph_witnesses(edges)
        rep = validate_hypergraph(LinearHypergraph(n, R, edges))
        assert (rep.linear, rep.triangle_free) == (pair is None, triangle is None)
        assert rep.witness == (pair or triangle)

    def test_first_triangle_in_lex_order(self):
        # two violating triples; the witness must be the lexicographically first
        edges = [(0, 1, 2), (2, 3, 4), (4, 5, 0), (0, 6, 7), (7, 8, 2)]
        rep = validate_hypergraph(LinearHypergraph(9, 3, edges))
        assert not rep.triangle_free
        assert rep.witness == (0, 1, 2)


class TestIncidenceGraph:
    def test_two_edges(self):
        g, cover = incidence_graph(LinearHypergraph(6, 3, [(1, 2, 3), (3, 4, 5)]))
        assert (g.n, g.m) == (2, 1)
        assert cover.cliques[3] == (0, 1)
        assert all(len(cover.cliques[v]) == 1 for v in (1, 2, 4, 5))

    def test_sunflower_triangle_is_covered(self):
        H = LinearHypergraph(8, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])
        g, cover = incidence_graph(H)
        assert enumerate_cliques(g, 3) == [(0, 1, 2)]
        assert uncovered_clique(g, cover, 3) is None

    def test_rejects_nonlinear(self):
        with pytest.raises(NonLinearError) as err:
            incidence_graph(LinearHypergraph(5, 3, [(1, 2, 3), (2, 3, 4)]))
        assert err.value.pair == (0, 1)

    def test_rejects_malformed(self):
        for edges, index in (([(0, 1, 2), (1, 2, 2)], 1), ([(0, 1, 2, 3)], 0),
                             ([(0, 1, 2), (3, 4, 5)], 1)):
            with pytest.raises(MalformedHypergraphError) as err:
                incidence_graph(LinearHypergraph(5, 3, edges))
            assert err.value.index == index

    @given(_families())
    @settings(max_examples=300, deadline=None)
    def test_reads_the_validation(self, family):
        H = LinearHypergraph(*family)
        rep = validate_hypergraph(H)
        if not rep.linear:
            assert rep.incidence is None
            with pytest.raises(NonLinearError) as err:
                incidence_graph(H)
            assert err.value.pair == rep.witness
            return
        g, cover = incidence_graph(H)
        assert [rep.incidence.row(u) for u in range(rep.incidence.n)] == [
            g.row(u) for u in range(g.n)]
        assert rep.cover == cover

    @given(_families())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, family):
        n, R, edges = family
        pair, meeting, through = naive_incidence(edges)
        H = LinearHypergraph(n, R, edges)
        if pair is not None:
            with pytest.raises(NonLinearError) as err:
                incidence_graph(H)
            assert err.value.pair == pair
            return
        g, cover = incidence_graph(H)
        assert g.n == len(edges) and g.edges() == meeting
        assert cover.n_ground == n and cover.cliques == through
        # the partition that sparsify relies on without checking
        assert naive_cover_failure(g, through) is None

    @given(_families())
    @example((5, 2, [(0, 1), (0, 2), (0, 3), (0, 4)]))  # a 4-petal sunflower: a covered K_4
    @settings(max_examples=300, deadline=None)
    def test_linear_triangle_free_covers_every_k4(self, family):
        # a K_4 abcd has abc in some K_x and abd in some K_y; hyperedges a
        # and b then share x and y, so linearity gives x = y
        rep = validate_hypergraph(LinearHypergraph(*family))
        if rep.linear and rep.triangle_free:
            assert uncovered_clique(rep.incidence, rep.cover, 4) is None

    def test_k4_cover_needs_linearity(self):
        # the tetrahedron's faces pairwise share two vertices: each triangle of
        # its meet graph lies in one K_v, but the K_4 lies in none
        cover = graphs._edges_through(LinearHypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                                              (1, 2, 3)]))
        g = Graph.from_rows(graphs._meets(cover.cliques.values(), 4)[0])
        assert uncovered_clique(g, cover, 3) is None
        assert uncovered_clique(g, cover, 4) == (0, 1, 2, 3)

    def test_uncovered_clique_detects_planted_violation(self):
        # cover missing one clique: the triangle on {0,1,2} is uncovered
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        cover = CliqueCover(2, {0: (0, 1), 1: (1, 2)})
        assert uncovered_clique(g, cover, 3) == (0, 1, 2)


class TestColoring:
    def test_normalizes_and_looks_up(self):
        col = EdgeColoring(2, {(2, 1): 1, (0, 1): 2})
        assert col.color_of(1, 2) == 1 and col.color_of(2, 1) == 1

    def test_loop_error_names_the_first_loop_in_input_order(self):
        with pytest.raises(GraphError, match=r"^loop edge \(3,3\) in coloring$"):
            EdgeColoring(2, [((0, 1), 1), ((3, 3), 1), ((1, 2), 2), ((2, 2), 2)])
        with pytest.raises(GraphError, match=r"^loop edge \(2,2\) in coloring$"):
            EdgeColoring(2, {(2, 2): 1, (0, 1): 1, (1, 1): 2})

    @pytest.mark.parametrize("colors", [
        {(0, 1): 1, (1, 0): 2},
        [((0, 1), 1), ((1, 0), 2)],
        [((1, 0), 1), ((0, 1), 2)],
        [((0, 1), 1), ((0, 1), 2)],
    ])
    def test_later_duplicate_wins(self, colors):
        assert EdgeColoring(2, colors).colors == {(0, 1): 2}

    def test_restrict_and_relabel(self):
        # ``induced`` keeps the pairs within the vertices and renumbers them by rank
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (0, 2): 1})
        assert col.induced([0, 1]).colors == {(0, 1): 1}
        assert col.induced([2, 1]).color_of(0, 1) == 2
        assert col.induced([5, 2, 0]).colors == {(0, 1): 1}

    @given(st.integers(0, 9), st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_induced_matches_restrict_then_relabel(self, n, t, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        col = EdgeColoring(t, {e: data.draw(st.integers(1, t)) for e in sorted(edges)})
        if data.draw(st.booleans()):
            col = rows_coloring(col, n + data.draw(st.integers(0, 2)))
        # unsorted, with repeats, and some at or beyond n
        vertices = data.draw(st.lists(st.integers(0, n + 2), max_size=n + 4))
        sub = col.induced(vertices)
        assert sub == EdgeColoring(t, naive_induced_coloring(col, vertices))
        assert sub.t == t
        assert all(len(rows) == len(set(vertices)) for rows in sub.rows.values())
        # it colors exactly the induced subgraph
        graph, _ = Graph(n + 3, edges).induced(vertices)
        assert coloring_covers(graph, sub) is None

    def test_pairs_built_coloring_pickles_copies_and_compares(self):
        import copy
        import pickle

        col = EdgeColoring(3, [((2, 0), 1), ((1, 2), 3), ((0, 2), 2)])
        for other in (pickle.loads(pickle.dumps(col)), copy.deepcopy(col), copy.copy(col)):
            assert other == col and other.t == 3
            assert other.colors == {(0, 2): 2, (1, 2): 3}
            assert other.rows == col.rows
        assert col != EdgeColoring(4, col.colors)
        assert col != EdgeColoring(3, {(0, 2): 1, (1, 2): 3})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_tally_matches_the_naive_most_frequent_color(self, data):
        k = data.draw(st.integers(2, 9))
        t = data.draw(st.integers(1, 5))
        pairs = list(itertools.combinations(range(k), 2))
        col = EdgeColoring(t, {e: data.draw(st.integers(1, t)) for e in pairs})
        for x in range(k):
            others = [y for y in range(k) if y != x]
            tally = col.tally(x, others)
            assert tally[0][1] == _naive_most_frequent(col, k, x)
            assert {c: n for n, c in tally} == Counter(col.color_of(x, y) for y in others)
            assert tally == sorted(tally, key=lambda nc: (-nc[0], nc[1]))

    def test_tally_over_no_vertices_is_empty(self):
        assert EdgeColoring(1, {(0, 1): 1}).tally(0, []) == []

    @given(st.integers(0, 10), st.integers(2, 4), st.integers(0, 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_built_colors_match_pairs_built_in_order(self, n, t, top, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        items = [(e, data.draw(st.integers(1, t))) for e in edges]
        # the order the rows give: u ascending, then color, then v
        items.sort(key=lambda item: (item[0][0], item[1], item[0][1]))
        by_pairs = EdgeColoring(t, items)
        by_rows = rows_coloring(by_pairs, n + top)
        assert by_rows == by_pairs
        assert list(by_rows.colors.items()) == list(by_pairs.colors.items())

    @staticmethod
    def _mono_outcome(graph, coloring, b):
        try:
            return find_mono_clique(graph, coloring, b)
        except GraphError as exc:
            return str(exc)

    @given(st.integers(1, 8), st.sampled_from(["match", "missing", "extra", "beyond"]),
           st.integers(-2, 2), st.integers(3, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_find_mono_clique_reads_both_forms_alike(self, n, kind, top, b, data):
        # the rows span n + top vertices, or more to hold a pair beyond n
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        colors = {e: data.draw(st.integers(1, 2)) for e in sorted(edges)}
        if kind == "missing" and edges:
            del colors[data.draw(st.sampled_from(sorted(edges)))]
        elif kind == "extra" and len(edges) < len(pairs):
            colors[data.draw(st.sampled_from([e for e in pairs if e not in edges]))] = 1
        elif kind == "beyond":
            u = data.draw(st.integers(0, n + 1))
            colors[(u, data.draw(st.integers(max(u + 1, n), n + 2)))] = 2
        g, col = Graph(n, edges), EdgeColoring(2, colors)
        span = max([n + top] + [v + 1 for _, v in colors])
        got = self._mono_outcome(g, rows_coloring(col, span), b)
        assert got == self._mono_outcome(g, col, b)
        assert isinstance(got, str) == (coloring_covers(g, col) is not None)

    @given(st.integers(0, 8), st.integers(1, 3), st.booleans(), st.integers(-3, 3), st.data())
    @settings(max_examples=400, deadline=None)
    def test_coloring_covers_matches_the_pair_oracle(self, n, t, as_rows, top, data):
        # the graph's edges, some dropped, plus some non-edges, up to 2 beyond n
        pairs = list(itertools.combinations(range(n + 3), 2))
        inside = [e for e in pairs if e[1] < n]
        edges = data.draw(st.sets(st.sampled_from(inside)) if inside else st.just(set()))
        drop = data.draw(st.sets(st.sampled_from(sorted(edges)), max_size=2)
                         if edges else st.just(set()))
        add = data.draw(st.sets(st.sampled_from([e for e in pairs if e not in edges]),
                                max_size=2))
        colors = {e: data.draw(st.integers(1, t)) for e in sorted((edges - drop) | add)}
        g, col = Graph(n, edges), EdgeColoring(t, colors)
        if as_rows:
            # rows shorter than n when the top vertices have no colored pair
            col = rows_coloring(col, max([n + top, 0] + [v + 1 for _, v in colors]))
        want = naive_coloring_covers(g, col)
        assert coloring_covers(g, col) == want
        got = self._mono_outcome(g, col, 3)
        if want is None:
            assert got == naive_mono_clique(g, col, 3)
        else:
            assert got == f"coloring does not match graph: {want[0]} edge {want[1]}"

    def test_kept_rows_longer_or_shorter_than_the_graph(self):
        triangle = {(0, 1): 1, (1, 2): 1, (0, 2): 1, (2, 3): 2}
        g = Graph(6, triangle)  # vertices 4 and 5 are isolated
        for span in (4, 5, 6, 8):
            assert find_mono_clique(g, rows_coloring(EdgeColoring(2, triangle), span), 3) == (
                1, (0, 1, 2))
        beyond = rows_coloring(EdgeColoring(2, {**triangle, (3, 6): 2}), 7)
        with pytest.raises(GraphError) as exc:
            find_mono_clique(g, beyond, 3)
        assert str(exc.value) == "coloring does not match graph: extra edge (3, 6)"

    def test_construct_never_lists_the_pairs_of_its_rows(self, tmp_path, monkeypatch, capsys):
        # the coloring goes from assembly to coloring.txt as rows
        def refuse(rows_by_color):
            raise AssertionError("colored pairs derived from rows")

        monkeypatch.setattr(graphs, "_colored_pairs", refuse)
        with pytest.raises(AssertionError, match="derived from rows"):
            EdgeColoring.from_rows(1, {1: [2, 1]}).colors
        inst = tmp_path / "inst"
        assert cli.main(["construct", "--s", "5", "--b", "3", "--t", "4", "--n", "64", "--k", "4",
                         "--R", "5", "--seed", "7", "--out-dir", str(inst)]) == 0
        monkeypatch.undo()
        naive_write_coloring(tmp_path / "want.txt", eio.read_coloring(inst / "coloring.txt"))
        assert (inst / "coloring.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


# arbitrary files for the readers: short raw bytes, or a header (often with
# the right edge count) over lines of small integers and junk.  Integers
# stay small, so no header asks for a large allocation.
_INT = st.integers(-2, 6).map(str)
_LINE = st.one_of(
    st.lists(_INT, min_size=1, max_size=3),
    st.lists(st.one_of(_INT, st.sampled_from(["graph", "1.5", "x", "٣"]), st.text(max_size=3)),
             max_size=4),
).map(" ".join)


@st.composite
def _text_files(draw):
    r = draw(st.integers(1, 3))
    edge = st.lists(_INT, min_size=r, max_size=r).map(" ".join)  # r ids: a hyperedge line
    body = draw(st.lists(st.one_of(_LINE, edge), max_size=6))
    m = str(len(body)) if draw(st.booleans()) else draw(_INT)
    header = draw(st.sampled_from([
        f"graph {draw(_INT)} {m}",
        f"hypergraph {draw(_INT)} {r} {m}",
        draw(_LINE),
    ]))
    return "\n".join([header, *body]).encode("utf-8", "surrogatepass")


class TestFileFormats:
    def test_graph_round_trip(self, tmp_path):
        g = random_graph(11, 0.4, seed=3)
        path = tmp_path / "g.txt"
        eio.write_graph(path, g)
        head = path.read_text().splitlines()[0]
        assert head == f"graph 11 {g.m}"
        g2 = eio.read_graph(path)
        assert g2.n == g.n and g2.edges() == g.edges()

    def test_hypergraph_round_trip(self, tmp_path):
        H = LinearHypergraph(7, 3, [(0, 1, 2), (2, 3, 4)])
        path = tmp_path / "h.txt"
        eio.write_hypergraph(path, H)
        assert eio.read_hypergraph(path).edges == H.edges

    def test_coloring_round_trip(self, tmp_path):
        col = EdgeColoring(3, {(0, 1): 1, (1, 2): 3})
        path = tmp_path / "c.txt"
        eio.write_coloring(path, col)
        col2 = eio.read_coloring(path)
        assert col2.colors == col.colors

    def test_one_json_format_for_files_and_stdout(self, tmp_path):
        payload = {"b": (1.5, float("inf")), "a": {"nan": float("nan"), "low": float("-inf")},
                   "path": tmp_path}
        text = eio.dumps(payload)
        assert json.loads(text) == {"a": {"low": "-inf", "nan": "nan"}, "b": [1.5, "inf"],
                                    "path": str(tmp_path)}
        assert text.startswith('{\n  "a": {\n    "low": "-inf"')
        eio.write_json(tmp_path / "p.json", payload)
        assert (tmp_path / "p.json").read_text(encoding="utf-8") == text + "\n"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "g.txt"
        eio.write_graph(path, Graph(2, [(0, 1)]))
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("graph 3\n")
        with pytest.raises(eio.FormatError):
            eio.read_graph(path)

    @pytest.mark.parametrize(
        "reader,text,where",
        [
            ("read_graph", "graph 3 1\n0 1 2\n", ":2:"),          # 3-token edge line
            ("read_graph", "graph 3 1\n0 x\n", ":2:"),            # non-integer edge token
            ("read_graph", "graph three 1\n0 1\n", ":1:"),        # non-integer header token
            ("read_graph", "graph 3 1 1\n0 1\n", ":1:"),          # header token count
            ("read_graph", "graph 3 1\n0 3\n", "out of range"),   # vertex above n - 1
            # checked before the adjacency masks are sized by the vertex
            ("read_graph", "graph 3 1\n0 100000000000\n",
             ":2: edge (0,100000000000) out of range for n=3"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1\n", ":2:"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1 2.0\n", ":2:"),
            ("read_hypergraph", "hypergraph 7 3.5 1\n0 1 2\n", ":1:"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1 7\n", "out of range"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1 1\n", "repeated vertex"),
            ("read_hypergraph", "hypergraph 3 -2 0\n", ":1: need n >= 0 and R >= 1"),
            ("read_hypergraph", "hypergraph -1 3 0\n", ":1: need n >= 0 and R >= 1"),
            ("read_coloring", "0 1 1\n1 2\n", ":2:"),
            ("read_coloring", "0 1 one\n", ":1:"),
            ("read_coloring", "0 1 1\n\n1 2 0\n", ":3: color 0"),  # colors start at 1
            ("read_coloring", "0 1 1\n1 1 1\n", "loop"),
            ("read_coloring", "0 1 1\n-1 1 1\n", ":2: negative vertex"),
            ("read_graph", "graph 3 2\n0 1\n1 0\n", ":3: duplicate edge 0 1 (first on line 2)"),
            ("read_hypergraph", "hypergraph 7 3 2\n0 1 2\n2 0 1\n", ":3: duplicate edge 0 1 2"),
            ("read_coloring", "0 1 1\n1 0 2\n", ":2: duplicate edge 0 1 (first on line 1)"),
            # headers above the size limit, checked before anything is sized by them
            ("read_graph", f"graph {eio.HEADER_LIMIT + 1} 0\n", ":1: header field above"),
            ("read_graph", "graph 100000000000 0\n", ":1: header field above"),
            ("read_hypergraph", f"hypergraph {eio.HEADER_LIMIT + 1} 3 0\n",
             ":1: header field above"),
            ("read_hypergraph", f"hypergraph 7 {eio.HEADER_LIMIT + 1} 0\n",
             ":1: header field above"),
            # R at the limit: the message names the field count, not R placeholders
            ("read_hypergraph", f"hypergraph 7 {eio.HEADER_LIMIT} 1\n0 1\n",
             f":2: expected {eio.HEADER_LIMIT} integers, got '0 1'"),
        ],
    )
    def test_malformed_input_raises_format_error(self, tmp_path, reader, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(eio.FormatError) as err:
            getattr(eio, reader)(path)
        assert str(path) in str(err.value) and where in str(err.value)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("reader", ["read_graph", "read_hypergraph", "read_coloring"])
    def test_non_utf8_raises_format_error(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"graph 2 1\n0 \xff\n")
        with pytest.raises(eio.FormatError, match="not UTF-8") as err:
            getattr(eio, reader)(path)
        assert str(path) in str(err.value)

    def test_coloring_above_t_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1 1\n1 2 3\n")
        assert eio.read_coloring(path).t == 3
        with pytest.raises(eio.FormatError, match=":2: color 3"):
            eio.read_coloring(path, t=2)

    def test_header_at_limit_accepted(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"graph {eio.HEADER_LIMIT} 1\n0 {eio.HEADER_LIMIT - 1}\n")
        g = eio.read_graph(path)
        assert g.n == eio.HEADER_LIMIT and g.m == 1
        path.write_text(f"hypergraph {eio.HEADER_LIMIT} {eio.HEADER_LIMIT} 0\n")
        H = eio.read_hypergraph(path)
        assert (H.n, H.R, H.m) == (eio.HEADER_LIMIT, eio.HEADER_LIMIT, 0)

    def test_wide_rows_rejected_before_the_graph_is_built(self, tmp_path, monkeypatch):
        # a 4.7 KB file: 400 edges from low vertices to vertices near 2^20,
        # whose 400 low rows would take 128 KB each as bitmasks
        n = eio.HEADER_LIMIT
        path = tmp_path / "wide.txt"
        path.write_text(f"graph {n} 400\n" + "".join(f"{i} {n - 1 - i}\n" for i in range(400)))
        assert path.stat().st_size < 5000

        def unbuilt(*args):
            raise AssertionError("Graph built")

        monkeypatch.setattr(eio, "Graph", unbuilt)
        with pytest.raises(eio.FormatError, match="adjacency masks would take") as err:
            eio.read_graph(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("reader", ["read_graph", "read_hypergraph", "read_coloring"])
    @given(st.one_of(st.binary(max_size=12), _text_files()))
    # headers just past the size limit
    @example(f"graph {eio.HEADER_LIMIT + 1} 0\n".encode())
    @example(f"hypergraph {eio.HEADER_LIMIT + 1} 2 0\n".encode())
    @example(f"hypergraph 4 {eio.HEADER_LIMIT + 1} 0\n".encode())
    @settings(max_examples=150, deadline=None)
    def test_readers_raise_only_format_error(self, reader, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(data)
            try:
                getattr(eio, reader)(path)
            except eio.FormatError:
                pass

    @staticmethod
    def _assert_writes_match_oracle(graph, colorings):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.txt", Path(tmp) / "want.txt"
            eio.write_graph(got, graph)
            naive_write_graph(want, graph)
            assert got.read_bytes() == want.read_bytes()
            for coloring in colorings:
                naive_write_coloring(want, coloring)
                # also kept as rows, over two more vertices, which are isolated
                for form in (coloring, rows_coloring(coloring, graph.n + 2)):
                    eio.write_coloring(got, form)
                    assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("graph", [
        Graph(0),
        Graph(5),                                  # isolated vertices only
        Graph(6, [(0, 5), (1, 5), (2, 5)]),        # 5's neighbours are all lower
        Graph(7, [(1, 2), (4, 6), (2, 6), (0, 3)]),  # isolated 5 between rows
        Graph.complete(5),
    ])
    def test_writers_match_per_edge_oracle(self, graph):
        colors = {(u, v): 1 + (7 * u + v) % 3 for u, v in graph.edges()}
        self._assert_writes_match_oracle(graph, [
            EdgeColoring(3, colors),
            EdgeColoring(3, [((v, u), c) for (u, v), c in reversed(list(colors.items()))]),
        ])

    @given(st.integers(0, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_writers_match_per_edge_oracle_property(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        colors = data.draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
        # a list of (pair, colour) items in drawn order, some pairs reversed
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        items = [((v, u) if flip else (u, v), c) for (u, v), c, flip in zip(edges, colors, flips)]
        self._assert_writes_match_oracle(Graph(n, edges), [
            EdgeColoring(4, dict(zip(edges, colors))),
            EdgeColoring(4, items),
        ])

    def test_coloring_rows_above_the_mask_limit_are_not_written(self, tmp_path):
        path = tmp_path / "coloring.txt"
        with pytest.raises(GraphError, match="coloring rows would take"):
            eio.write_coloring(path, EdgeColoring(1, {(0, 1 << 40): 1}))
        # the rows' list slots count too: 8 bytes for each of 2^21 vertices
        with pytest.raises(GraphError, match="coloring rows would take"):
            eio.write_coloring(path, EdgeColoring(1, {(0, 1 << 21): 1}))
        with pytest.raises(GraphError, match="negative vertex"):
            eio.write_coloring(path, EdgeColoring(1, {(-1, 1): 1}))
        assert not path.exists()

    @given(st.integers(0, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coloring_write_read_write_round_trip(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        items = [((v, u), data.draw(st.integers(1, 5))) for u, v in edges]
        coloring = EdgeColoring(5, items)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
            eio.write_coloring(first, coloring)
            loaded = eio.read_coloring(first, t=5)
            assert loaded.colors == coloring.colors
            eio.write_coloring(second, loaded)
            assert second.read_bytes() == first.read_bytes()

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=25, deadline=None)
    def test_graph_round_trip_property(self, n, data):
        import tempfile

        pairs = list(itertools.combinations(range(n), 2))
        flags = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, keep in zip(pairs, flags) if keep])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            eio.write_graph(path, g)
            assert eio.read_graph(path).edges() == g.edges()
