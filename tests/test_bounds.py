"""Exponent recursions, the g-table, vertex ordering, and half sequences."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab import bounds
from erlab.bounds import (
    HALF,
    LAY3,
    RECURSIVE,
    SATURATED,
    default_g_table,
    exponent_lower,
    exponent_upper,
    half_sequence,
    order_vertices,
)
from erlab.checkers import check_half_sequence, check_ordering
from erlab.freeness import UnresolvedRamseyError, default_table, find_mono_clique
from erlab.graphs import EdgeColoring, Graph, GraphError

from oracles import naive_induced_coloring, reference_exponent_lower, sample_mono_free_coloring


class TestExponentLower:
    def test_table_values(self):
        assert exponent_lower(5, 2).value == Fraction(1, 2)
        assert exponent_lower(5, 3).value == Fraction(5, 11)
        assert exponent_lower(5, 4).value == Fraction(20, 61)
        assert exponent_lower(6, 2).value == 1

    def test_regimes(self):
        assert exponent_lower(6, 2).regime == SATURATED
        assert exponent_lower(5, 2).regime == HALF
        assert exponent_lower(5, 3).regime == LAY3
        assert exponent_lower(5, 4).regime == RECURSIVE

    def test_lay3_formula_direct(self):
        assert exponent_lower(3, 3).value == Fraction(2, 5)
        assert exponent_lower(4, 3).value == Fraction(3, 7)

    def test_s2_inverse_ramsey_chain(self):
        for t in range(1, 7):
            assert exponent_lower(2, t).value == Fraction(1, t + 1)

    def test_trace_replays_recursion(self):
        res = exponent_lower(5, 4)
        consumed = {
            entry[1]: Fraction(entry[2]) for entry in res.trace if entry[0] == "a"
        }
        g_used = {entry[1]: entry[2] for entry in res.trace if entry[0] == "g"}
        inv = Fraction(1)
        for i in range(2, 6):
            inv += Fraction(1, 4) / consumed[4 - g_used[i]]
        assert 1 / inv == res.value

    def test_large_t_matches_recursion(self):
        # the recursion needs about 1 200 frames here, beyond Python's default limit
        res = exponent_lower(5, 1200)
        assert res.regime == RECURSIVE
        assert (res.value, res.regime, res.trace) == reference_exponent_lower(5, 1200)

    def test_regime_consistency(self):
        table = default_table()
        for s in range(2, 7):
            for t in range(0, 5):
                res = exponent_lower(s, t)
                assert (res.value == 1) == table.r_le(t, 3, s)

    def test_unresolved_g_beyond_table(self):
        with pytest.raises(UnresolvedRamseyError):
            exponent_lower(7, 5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            exponent_lower(1, 2)
        with pytest.raises(GraphError):
            exponent_lower(3, -1)


class TestExponentUpper:
    def test_table_values(self):
        assert exponent_upper(5, 3, 4).value == Fraction(1, 3)
        assert exponent_upper(5, 3, 2).value == Fraction(1, 2)
        for t in range(1, 7):
            assert exponent_upper(2, 3, t).value == Fraction(1, t + 1)

    def test_ell_in_trace(self):
        res = exponent_upper(5, 3, 4)
        assert res.trace == (("ell", 2),)

    def test_trivial_when_ell_exceeds_t(self):
        assert exponent_upper(5, 3, 1).value == 1

    def test_b4(self):
        # r_1(4) = 4 <= 5 < r_2(4) = 18, so ell = 2
        assert exponent_upper(5, 4, 4).value == Fraction(1, 3)

    def test_unresolved(self):
        with pytest.raises(UnresolvedRamseyError):
            exponent_upper(45, 5, 2)


class TestGTable:
    def test_small_values(self):
        assert default_g_table().g == {2: 1, 3: 2, 4: 2, 5: 2, 6: 3}

    def test_non_decreasing(self):
        g = default_g_table().g
        values = [g[i] for i in sorted(g)]
        assert values == sorted(values)

    def test_lookup_beyond_range(self):
        with pytest.raises(UnresolvedRamseyError):
            default_g_table().value(7)

    def test_writes_reach_no_other_caller(self):
        default_g_table().g[3] = 1
        exponent_lower.cache_clear()
        assert exponent_lower(5, 4).value == Fraction(20, 61)
        assert default_g_table().value(3) == 2


def coloring_of(k, assignment, t):
    return EdgeColoring(t, dict(zip(itertools.combinations(range(k), 2), assignment)))


class TestOrderVertices:
    def test_k2(self):
        res = order_vertices(2, coloring_of(2, [1], 1))
        assert res.ell_pi == {2: 1}
        assert res.n_pi == 0

    def test_k3_example(self):
        col = coloring_of(3, [1, 2, 1], 2)  # edges 01->1, 02->2, 12->1
        res = order_vertices(3, col)
        assert check_ordering(3, col, res.pi, default_g_table().g) is None
        assert res.ell_pi[3] == 2

    def test_mono_triangle_rejected(self):
        col = coloring_of(3, [1, 1, 1], 1)
        with pytest.raises(GraphError):
            order_vertices(3, col)

    def test_descent_counterexample_regression(self):
        # an n_pi = 0 ordering alone can violate ell >= g: vertex 3 here sees
        # a single color, so it must land in the first two positions
        col = EdgeColoring(3, {(0, 1): 1, (0, 2): 1, (0, 3): 2,
                               (1, 2): 3, (1, 3): 2, (2, 3): 2})
        res = order_vertices(4, col)
        assert check_ordering(4, col, res.pi, default_g_table().g) is None
        assert res.pi.index(3) <= 1

    def test_exhaustive_k4_two_colors(self):
        g_values = default_g_table().g
        edges = list(itertools.combinations(range(4), 2))
        for assignment in itertools.product([1, 2], repeat=6):
            col = EdgeColoring(2, dict(zip(edges, assignment)))
            if find_mono_clique(Graph.complete(4), col, 3):
                continue
            res = order_vertices(4, col)
            assert check_ordering(4, col, res.pi, g_values) is None

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_sampled_k6(self, seed):
        col = sample_mono_free_coloring(6, 3, seed)
        res = order_vertices(6, col)
        assert check_ordering(6, col, res.pi, default_g_table().g) is None


class TestHalfSequence:
    def test_k2(self):
        assert half_sequence(2, coloring_of(2, [1], 1)) == (0,)

    def test_k3_example(self):
        col = coloring_of(3, [1, 2, 1], 2)
        seq = half_sequence(3, col)
        assert len(seq) == 2
        assert check_half_sequence(3, col, seq) is None

    def test_precondition(self):
        with pytest.raises(GraphError):
            half_sequence(3, coloring_of(3, [2, 2, 2], 2))

    def test_orders_a_complement_that_shares_one_color(self, monkeypatch):
        # at k = 7 each w outside the shorter sequence sees only its most
        # frequent color toward it, the same for all, so the ordering lemma
        # runs on the coloring induced on them
        col = coloring_of(7, [2, 3, 3, 3, 1, 1, 3, 3, 3, 2, 1, 1, 2, 1, 3, 2, 3, 1, 3, 1, 3], 3)
        calls = []

        def record(k, coloring):
            calls.append((k, coloring))
            return order_vertices(k, coloring)

        monkeypatch.setattr(bounds, "order_vertices", record)
        seq = half_sequence(7, col)
        assert calls == [(3, EdgeColoring(3, naive_induced_coloring(col, [2, 3, 4])))]
        assert seq == (4, 3, 2, 5)
        assert check_half_sequence(7, col, seq) is None

    @given(st.integers(0, 400), st.integers(4, 7))
    @settings(max_examples=80, deadline=None)
    def test_sampled_colorings(self, seed, k):
        col = sample_mono_free_coloring(k, 3, seed)
        seq = half_sequence(k, col)
        assert check_half_sequence(k, col, seq) is None


class TestCheckers:
    def test_bad_ordering_reported(self):
        col = coloring_of(3, [1, 2, 1], 2)
        assert check_ordering(3, col, [0, 0, 1], {2: 1, 3: 2}) is not None
        # vertex 2 sees colors {2, 1}: ell = [1, 2], and g(3) is missing
        assert check_ordering(3, col, range(3), {2: 1}) == "no g value for position 3"
        # vertex 2 sees color 2 twice: ell = [1, 1], below g(3) = 2
        col = coloring_of(3, [1, 2, 2], 2)
        assert check_ordering(3, col, range(3), default_g_table().g) == (
            "ell(3) = 1 < g(3) = 2")
        # vertex 2 sees colors {1, 2}, vertex 3 only color 3
        col = coloring_of(4, [1, 2, 3, 1, 3, 3], 3)
        assert check_ordering(4, col, range(4), {2: 1, 3: 2, 4: 2}) == (
            "ell not non-decreasing at position 3: [1, 2, 1]")

    def test_bad_sequence_reported(self):
        col = coloring_of(4, [1, 1, 2, 3, 2, 2], 3)
        assert check_half_sequence(4, col, (0,)) is not None  # wrong length
        assert check_half_sequence(4, col, (0, 0)) is not None  # repeat
        assert check_half_sequence(4, col, (0, 4)) == "vertex out of range in [0, 4]"
        # color 1 is on two of vertex 0's three edges, and on (0, 1)
        assert check_half_sequence(4, col, (0, 1)) == (
            "first edge (0,1) carries the most frequent color 1 at 0")
        # vertex 0's most frequent color is 2, not the first edge's 1; vertex
        # 2 meets 0 and 1 both in color 2
        col = coloring_of(5, [1, 2, 2, 2, 2, 1, 1, 1, 1, 2], 2)
        assert check_half_sequence(5, col, (0, 1, 2)) == (
            "vertex 2 (position 3) sees fewer than 2 colors")
