"""Exact exponent computation, the inverse-local-Ramsey table, the
swap-descent vertex ordering, and the half-sequence extraction.

All exponents are exact rationals; no floats enter the recursion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .freeness import UnresolvedRamseyError, default_table, find_mono_clique
from .graphs import EdgeColoring, Graph, GraphError

SATURATED = "saturated"
HALF = "half"
LAY3 = "lay3"
RECURSIVE = "recursive"
UPPER = "upper"


@dataclass(frozen=True)
class ExponentResult:
    value: Fraction
    regime: str
    trace: tuple


@dataclass(frozen=True)
class GTable:
    """g(i): the smallest k such that the local Ramsey value for triangles
    with k colors per vertex exceeds i."""

    g: dict[int, int]

    def value(self, i: int) -> int:
        if i not in self.g:
            raise UnresolvedRamseyError(f"g({i}) not in the verified range")
        return self.g[i]


@functools.cache
def _default_g_pairs() -> tuple[tuple[int, int], ...]:
    table = default_table()
    return tuple((i, next(k for k in range(i + 2) if table.local_greater(k, i)))
                 for i in range(2, 7))


def default_g_table() -> GTable:
    """g(2)..g(6) from the default table, memoised per process; each call
    returns a fresh table, so a caller's writes reach no other caller."""
    return GTable(dict(_default_g_pairs()))


@functools.cache
def exponent_lower(s: int, t: int) -> ExponentResult:
    """Exact lower-bound exponent for the t-color triangle-free setting.

    Four regimes: 1 when r_t(3) <= s; 1/2 one level up; the explicit
    half-integer formula one level further (s >= 3); otherwise the recursion
    1/a_t = 1 + (1/(s-1)) * sum_{i=2..s} 1/a_{t-g(i)}.

    Reads the default table and g table, and is memoised per process: the
    recursive extractor asks it again at every step.  The recursion runs on
    an explicit stack, so t is not bounded by Python's recursion limit.
    """
    if s < 2:
        raise GraphError("s must be at least 2")
    if t < 0:
        raise GraphError("t must be non-negative")
    table = default_table()
    g_table = default_g_table()

    memo: dict[int, tuple[Fraction, str]] = {}
    trace: list[tuple] = []

    # a(tt) yields each index it recurses on and is sent back that index's
    # value; the loop below keeps the pending calls on ``stack``
    def a(tt: int):
        if tt < 0:
            raise UnresolvedRamseyError(
                f"recursion reached negative color count t={tt}"
            )
        if tt in memo:
            return memo[tt][0]
        if table.r_le(tt, 3, s):
            val, regime = Fraction(1), SATURATED
        elif table.r_le(tt - 1, 3, s):
            val, regime = Fraction(1, 2), HALF
        elif s >= 3 and table.r_le(tt - 2, 3, s):
            half_up = (s + 1) // 2
            val = Fraction(s + half_up - 3, 2 * s + 2 * half_up - 5)
            regime = LAY3
        else:
            inv = Fraction(1)
            for i in range(2, s + 1):
                gi = g_table.value(i)
                trace.append(("g", i, gi))
                inv += Fraction(1, s - 1) / (yield tt - gi)
            val, regime = 1 / inv, RECURSIVE
        memo[tt] = (val, regime)
        trace.append(("a", tt, str(val), regime))
        return val

    stack, value = [a(t)], None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(a(child))
            value = None
    return ExponentResult(value, memo[t][1], tuple(trace))


def exponent_upper(
    s: int,
    b: int,
    t: int,
) -> ExponentResult:
    """Exact upper-bound exponent 1/(floor(t/ell)+1), where ell is the
    minimum number of colors whose Ramsey value for K_b exceeds s."""
    if s < 2 or b < 3 or t < 1:
        raise GraphError(f"require s >= 2, b >= 3, t >= 1, got {(s, b, t)}")
    ell = default_table().min_ell(b, s, t)
    if ell is None:
        raise UnresolvedRamseyError(f"minimum ell with r_ell({b}) > {s} beyond t+1")
    value = Fraction(1, t // ell + 1)
    return ExponentResult(value, UPPER, (("ell", ell),))


# ---------------------------------------------------------------------------
# ordering lemma (swap descent) and half sequence


@dataclass(frozen=True)
class OrderingResult:
    pi: tuple[int, ...]
    ell_pi: dict[int, int]  # 1-based position i >= 2 -> distinct colors to earlier vertices
    n_pi: int


def _require_complete_mono_free(k: int, coloring: EdgeColoring) -> None:
    # K_k is built only once the coloring has every pair: the first missing
    # one lies within the first |coloring| + 1 pairs in lexicographic order
    for e in itertools.combinations(range(k), 2):
        if e not in coloring.colors:
            raise GraphError(f"coloring does not match graph: missing edge {e}")
    mono = find_mono_clique(Graph.complete(k), coloring, 3)
    if mono is not None:
        raise GraphError(f"coloring has a monochromatic triangle: {mono}")


def _ell_at(coloring: EdgeColoring, pi: list[int], j: int) -> int:
    return len({coloring.color_of(pi[j], pi[a]) for a in range(j)})


def order_vertices(k: int, coloring: EdgeColoring) -> OrderingResult:
    """Ordering with non-decreasing backward color counts satisfying
    ell(i) >= g(i) at every position.

    Built backward: repeatedly peel the vertex seeing the most distinct
    colors among the remaining ones (ties toward the smallest id).  Peeling
    the maximum makes every prefix an exactly-ell(i)-local coloring of a
    complete graph: each prefix vertex sees at most as many colors as the
    peeled one.  A monochromatic-triangle-free ell-local coloring of K_i
    forces i below the local Ramsey value, which is the definition of
    ell >= g(i); the count sequence is non-decreasing because removing a
    vertex never adds colors, so n_pi = 0.

    Note: an adjacent-swap descent to n_pi = 0 alone does NOT guarantee
    ell(i) >= g(i) (earlier vertices may see extra colors on forward
    edges); see the K_4 regression in the test suite.
    """
    if k < 2:
        raise GraphError("ordering needs at least 2 vertices")
    _require_complete_mono_free(k, coloring)
    remaining = list(range(k))
    peeled: list[int] = []
    while len(remaining) > 1:
        best, best_count = None, -1
        for x in remaining:
            cnt = len({coloring.color_of(x, y) for y in remaining if y != x})
            if cnt > best_count:
                best, best_count = x, cnt
        peeled.append(best)
        remaining.remove(best)
    pi = remaining + peeled[::-1]

    ell = [0] * k
    for j in range(1, k):
        ell[j] = _ell_at(coloring, pi, j)
    n_pi = sum(
        1
        for i in range(1, k)
        for j in range(i + 1, k)
        if ell[i] > ell[j]
    )
    assert n_pi == 0, "peeling order must have a non-decreasing count sequence"
    ell_map = {j + 1: ell[j] for j in range(1, k)}
    return OrderingResult(tuple(pi), ell_map, n_pi)


def half_sequence(k: int, coloring: EdgeColoring) -> tuple[int, ...]:
    """A sequence v_1..v_{ceil(k/2)} such that v_1v_2 avoids v_1's most
    frequent color and every later vertex sees at least two distinct colors
    among its edges to earlier sequence vertices.

    Constructive induction: even k drops one vertex; odd k extends the
    shorter sequence by a two-colored vertex, prepends an off-frequency
    vertex, patches with a two-vertex prefix, or orders the complement via
    the swap descent.  Ties for "most frequent color" break toward the
    smallest color index; the dropped vertex is always the largest id.
    """
    if k < 2:
        raise GraphError("half sequence needs at least 2 vertices")
    _require_complete_mono_free(k, coloring)
    most_freq = {x: coloring.tally(x, (y for y in range(k) if y != x))[0][1] for x in range(k)}

    def solve(U: tuple[int, ...]) -> list[int]:
        kk = len(U)
        if kk == 2:
            return [min(U)]
        if kk == 3:
            for x in U:
                rest = sorted(u for u in U if u != x)
                for y in rest:
                    other = next(z for z in rest if z != y)
                    if (
                        coloring.color_of(x, y) != coloring.color_of(x, other)
                        and coloring.color_of(x, y) != most_freq[x]
                    ):
                        return [x, y]
            raise AssertionError(f"no valid pair in triangle {U}")
        if kk % 2 == 0:
            return solve(tuple(u for u in U if u != max(U)))

        seq = solve(tuple(u for u in U if u != max(U)))
        V = seq
        W = sorted(set(U) - set(V))

        # a vertex of W seeing two colors back to V extends the sequence
        for w in W:
            if len({coloring.color_of(w, v) for v in V}) >= 2:
                return V + [w]

        # otherwise every w is monochromatic toward V
        cw = {w: coloring.color_of(w, V[0]) for w in W}

        for w in W:
            if cw[w] != most_freq[w]:
                # w, v_1, ..., v_m: edges w-v_1 and w-v_i share c(w), so
                # v_1-v_i differs (no monochromatic triangle)
                return [w] + V

        for ai in range(len(W)):
            for bi in range(ai + 1, len(W)):
                w1, w2 = W[ai], W[bi]
                if cw[w1] != cw[w2]:
                    if coloring.color_of(w1, w2) != cw[w1]:
                        return [w1, w2] + V[: len(V) - 1]
                    return [w2, w1] + V[: len(V) - 1]

        # all of W shares one color toward V, so no W-internal edge uses it;
        # the ordering lemma on W gives two colors at every later position;
        # W is sorted, so the induced coloring's vertex i is W[i]
        ordering = order_vertices(len(W), coloring.induced(W))
        return [W[i] for i in ordering.pi]

    seq = solve(tuple(range(k)))
    assert len(seq) == (k + 1) // 2
    return tuple(seq)
