"""Graph/hypergraph core: predicates, incidence structure, file formats."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab.graphs import (
    CliqueCover,
    EdgeColoring,
    Graph,
    GraphError,
    LinearHypergraph,
    MalformedHypergraphError,
    NonLinearError,
    cover_partitions_edges,
    enumerate_cliques,
    first_clique,
    incidence_graph,
    uncovered_clique,
    validate_hypergraph,
)
from erlab import io as eio

from oracles import naive_cliques, random_graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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
        assert g.neighbors(1) == (0, 3, 4)
        for u in range(5):
            for v in range(5):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_induced_relabels(self):
        g = Graph.complete(5)
        sub, old = g.induced([4, 1, 3])
        assert old == [1, 3, 4]
        assert sub.n == 3 and sub.m == 3


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
            if not any(set(c) <= set(cover.members(v)) for v in range(n_ground))
        ]
        if s < 2:
            with pytest.raises(GraphError):
                enumerate_cliques(g, s)
            with pytest.raises(GraphError):
                uncovered_clique(g, cover, s)
        else:
            assert enumerate_cliques(g, s) == naive
            assert uncovered_clique(g, cover, s) == (uncovered[0] if uncovered else None)


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
        assert cover.members(3) == (0, 1)
        assert all(len(cover.members(v)) == 1 for v in (1, 2, 4, 5))

    def test_sunflower_triangle_is_covered(self):
        H = LinearHypergraph(8, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])
        g, cover = incidence_graph(H)
        assert enumerate_cliques(g, 3) == [(0, 1, 2)]
        assert uncovered_clique(g, cover, 3) is None

    def test_rejects_nonlinear(self):
        with pytest.raises(NonLinearError) as err:
            incidence_graph(LinearHypergraph(5, 3, [(1, 2, 3), (2, 3, 4)]))
        assert err.value.pair == (0, 1)

    def test_cover_partitions_edges(self):
        H = LinearHypergraph(9, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)])
        g, cover = incidence_graph(H)
        assert cover_partitions_edges(g, cover) is None

    def test_uncovered_clique_detects_planted_violation(self):
        # cover missing one clique: the triangle on {0,1,2} is uncovered
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        cover = CliqueCover(2, {0: (0, 1), 1: (1, 2)})
        assert uncovered_clique(g, cover, 3) == (0, 1, 2)


class TestColoring:
    def test_normalizes_and_looks_up(self):
        col = EdgeColoring(2, {(2, 1): 1, (0, 1): 2})
        assert col.color_of(1, 2) == 1 and col.color_of(2, 1) == 1
        assert col.colors_used() == {1, 2}

    def test_restrict_and_relabel(self):
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (0, 2): 1})
        sub = col.restrict([0, 1])
        assert sub.colors == {(0, 1): 1}
        back = col.relabel({0: 5, 1: 4, 2: 3})
        assert back.color_of(4, 5) == 1


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
            ("read_graph", "graph 3 1\n0 3\n", "out of range"),   # GraphError, wrapped
            ("read_hypergraph", "hypergraph 7 3 1\n0 1\n", ":2:"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1 2.0\n", ":2:"),
            ("read_hypergraph", "hypergraph 7 3.5 1\n0 1 2\n", ":1:"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1 7\n", "out of range"),
            ("read_hypergraph", "hypergraph 7 3 1\n0 1 1\n", "repeated vertex"),
            ("read_coloring", "0 1 1\n1 2\n", ":2:"),
            ("read_coloring", "0 1 one\n", ":1:"),
            ("read_coloring", "0 1 1\n\n1 2 0\n", ":3: color 0"),  # colors start at 1
            ("read_coloring", "0 1 1\n1 1 1\n", "loop"),
            ("read_graph", "graph 3 2\n0 1\n1 0\n", ":3: duplicate edge 0 1 (first on line 2)"),
            ("read_hypergraph", "hypergraph 7 3 2\n0 1 2\n2 0 1\n", ":3: duplicate edge 0 1 2"),
            ("read_coloring", "0 1 1\n1 0 2\n", ":2: duplicate edge 0 1 (first on line 1)"),
        ],
    )
    def test_malformed_input_raises_format_error(self, tmp_path, reader, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(eio.FormatError) as err:
            getattr(eio, reader)(path)
        assert str(path) in str(err.value) and where in str(err.value)

    def test_coloring_above_t_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1 1\n1 2 3\n")
        assert eio.read_coloring(path).t == 3
        with pytest.raises(eio.FormatError, match=":2: color 3"):
            eio.read_coloring(path, t=2)

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
