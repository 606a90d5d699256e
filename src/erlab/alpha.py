"""K_s-free subsets: exact branch-and-bound, exhaustive counting, the
alteration sampler, and the constructive extractors for triangle-free
colorings.

Every extractor verifies its output before returning; an invalid set is a
bug, never a silent result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import SATURATED, default_g_table, exponent_lower
from .freeness import find_mono_clique
from .graphs import BudgetError, EdgeColoring, Graph, GraphError, enumerate_cliques, first_clique
from .util import iter_bits, make_rng


class ExtractionError(RuntimeError):
    """Precondition or regime violation inside an extractor; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


# ---------------------------------------------------------------------------
# exact solver and counting


@dataclass(frozen=True)
class AlphaResult:
    size: int
    witness: tuple[int, ...]
    complete: bool
    upper_bound: int
    nodes: int


class _Joinable:
    """``memo[mask]`` is True iff ``mask`` holds no K_size of ``rows``.

    The searches look a mask up in ``memo`` themselves and call this helper
    on a miss, with the vertex ``v`` whose chosen neighbours ``mask`` is.
    It answers from two facts kept per vertex before it asks
    ``first_clique``, since holding a clique is monotone in the mask:

    - ``clique[v]``, the last K_size found for ``v`` as a bitmask: a mask
      that contains it holds a clique;
    - ``free[v]``, the last clique-free mask asked for ``v``: a mask inside
      it holds none.

    Every answer, however found, goes into ``memo``.  One helper serves one
    search: while ``rows`` and ``size`` are fixed, each answer is the one a
    fresh query would give.
    """

    __slots__ = ("rows", "size", "memo", "clique", "free")

    def __init__(self, rows: list[int], size: int):
        self.rows = rows
        self.size = size
        self.memo: dict[int, bool] = {}
        self.clique = [0] * len(rows)
        self.free = [0] * len(rows)

    def __call__(self, v: int, mask: int) -> bool:
        clique = self.clique[v]
        if clique and not clique & ~mask:
            free = False
        elif not mask & ~self.free[v]:
            free = True
        else:
            found = first_clique(self.rows, mask, self.size)
            free = found is None
            if free:
                self.free[v] = mask
            else:
                clique = 0
                for u in found:
                    clique |= 1 << u
                self.clique[v] = clique
        self.memo[mask] = free
        return free


def alpha_exact(
    graph: Graph,
    s: int,
    node_budget: int | None = None,
) -> AlphaResult:
    """Maximum vertex set inducing no K_s, by include-first branch and bound
    in ascending vertex order.

    The first maximum-size solution found in this order is the
    lexicographically least one, so the witness is canonical.  With a node
    budget the search may stop early; ``upper_bound`` then caps the true
    value (equal to ``size`` iff ``complete``).

    The search is one loop with no recursion, so no recursion limit applies
    at any graph size.  ``chosen`` is its stack of decisions: every vertex
    in it was included and still owes its exclude branch, and every vertex
    between two of them was excluded with nothing left to try.  Backtracking
    pops the last included vertex ``v`` and goes on excluding it, at
    ``v + 1``.  A node is a vertex decided at a position the bound
    ``len(chosen) + (n - idx) > len(best)`` leaves open.

    When the budget runs out at ``idx``, the open subtrees are the one at
    ``idx`` and the exclude branch of each ``chosen[j]``; their sizes cap
    the true value at ``len(chosen) + n - idx`` and ``j + n - chosen[j] - 1``.

    Vertex ``idx`` may join ``chosen`` iff ``chosen & N(idx)`` holds no
    K_{s-1}.  The search asks this of few distinct masks many times over,
    since backtracking over non-neighbours of ``idx`` leaves the mask as it
    was, so each answer is kept in a memo that lives for this call only.
    A mask not in the memo is first put to two rules kept per vertex
    (``_Joinable``): it holds a clique if it contains the last K_{s-1}
    found for ``idx``, and it holds none if it lies inside the last
    clique-free mask asked for ``idx``; only otherwise is the clique
    searched for.  Both rules are exact, since holding a clique is
    monotone in the mask and the graph is fixed during the call: the
    search tree, ``nodes`` and the witness are those of a search that
    asks every query afresh.
    """
    if s < 2:
        raise GraphError("s must be at least 2")
    n = graph.n
    rows = graph._rows
    joinable = _Joinable(rows, s - 1)
    memo = joinable.memo
    limit = math.inf if node_budget is None else node_budget
    best: list[int] = []
    chosen: list[int] = []
    chosen_mask = 0
    # len(chosen) and len(best), kept beside the lists
    count = best_count = 0
    nodes = 0
    idx = 0
    while True:
        if idx == n:
            if count > best_count:
                best, best_count = chosen.copy(), count
        elif count + (n - idx) > best_count:
            if nodes >= limit:
                bounds = [best_count, count + (n - idx)]
                bounds += [j + (n - v) - 1 for j, v in enumerate(chosen)]
                return AlphaResult(best_count, tuple(best), False, max(bounds), nodes)
            nodes += 1
            mask = chosen_mask & rows[idx]
            free = memo.get(mask)
            if free is None:
                free = joinable(idx, mask)
            if free:
                chosen.append(idx)
                chosen_mask |= 1 << idx
                count += 1
            idx += 1
            continue
        if not chosen:
            return AlphaResult(best_count, tuple(best), True, best_count, nodes)
        v = chosen.pop()
        count -= 1
        chosen_mask ^= 1 << v
        idx = v + 1


COUNT_LIMIT = 24


def count_free_subsets(graph: Graph, s: int, min_size: int = 0) -> int:
    """Exact number of vertex subsets of size >= min_size inducing no K_s,
    by depth-first enumeration with feasibility pruning.

    Refuses graphs above ``COUNT_LIMIT`` vertices; use alpha_exact for a single
    extremal witness instead.

    As in alpha_exact, whether vertex ``idx`` may join is asked of the
    mask ``chosen & N(idx)`` alone, and is answered from the memo and the
    two per-vertex rules of ``_Joinable`` before the clique is searched
    for; each answer is the one a fresh query gives, so the count is too."""
    if s < 2:
        raise GraphError("s must be at least 2")
    if graph.n > COUNT_LIMIT:
        raise GraphError(
            f"count_free_subsets is exhaustive and limited to {COUNT_LIMIT} vertices "
            f"(got {graph.n}); use alpha_exact for larger graphs"
        )
    n = graph.n
    rows = graph._rows
    joinable = _Joinable(rows, s - 1)
    memo = joinable.memo
    count = 0

    def walk(idx: int, chosen_mask: int, size: int):
        nonlocal count
        if size + (n - idx) < min_size:
            return
        if idx == n:
            count += 1
            return
        walk(idx + 1, chosen_mask, size)
        mask = chosen_mask & rows[idx]
        free = memo.get(mask)
        if free is None:
            free = joinable(idx, mask)
        if free:
            walk(idx + 1, chosen_mask | (1 << idx), size + 1)

    walk(0, 0, 0)
    return count


def greedy_free_subset(graph: Graph, s: int) -> tuple[int, ...]:
    """Baseline: scan vertices in ascending order, keep those that preserve
    K_s-freeness."""
    rows = graph._rows
    chosen_mask = 0
    out = []
    for v in range(graph.n):
        if first_clique(rows, chosen_mask & rows[v], s - 1) is None:
            out.append(v)
            chosen_mask |= 1 << v
    return tuple(out)


def is_free_set(graph: Graph, vertices, s: int) -> bool:
    """No K_s inside the induced subgraph (first_clique on the induced mask)."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return first_clique(graph._rows, mask, s) is None


# ---------------------------------------------------------------------------
# alteration


def alteration_probability(families, n: int) -> float:
    """min(1, (1/3) min_f (n/|f|)^{1/(k_f-1)}) over the non-empty families
    f, where k_f is the length of a member of f; 1 when every family is
    empty."""
    best = None
    for fam in families:
        if not fam:
            continue
        k = len(fam[0])
        if k < 2:
            raise GraphError("family uniformity must be at least 2")
        ratio = (n / len(fam)) ** (1.0 / (k - 1))
        best = ratio if best is None else min(best, ratio)
    if best is None:
        return 1.0
    return min(1.0, best / 3.0)


def alteration_set(n: int, families, seed: int) -> tuple[int, ...]:
    """Keep each vertex of 0..n-1 independently with probability
    ``alteration_probability(families, n)``, then delete the lowest-id
    vertex of every fully kept member of every family.  Each family is a
    list of vertex tuples.  The output is independent in all families,
    unconditionally."""
    p = alteration_probability(families, n)
    rng = make_rng(seed, "alteration")
    selected = set(u for u in range(n) if rng.random() < p)
    doomed = set()
    for fam in families:
        for edge in fam:
            if all(v in selected for v in edge):
                doomed.add(min(edge))
    result = tuple(sorted(selected - doomed))
    kept = set(result)
    for fam in families:
        for edge in fam:
            assert not all(v in kept for v in edge), "alteration left a full hyperedge"
    return result


# ---------------------------------------------------------------------------
# constructive extractors

# factor on both extractors' branch thresholds, n^(a_t / a_{t-g(i)}) and n^beta
THRESHOLD_SCALE = 1.0
# most (i-1)-tuples one recursive extraction scans, over every i and depth,
# before it raises BudgetError
SCAN_CAP = 2_000_000


@dataclass
class ExtractionResult:
    vertices: tuple[int, ...]
    path: list[str] = field(default_factory=list)


def _check_precondition(graph: Graph, coloring: EdgeColoring):
    mono = find_mono_clique(graph, coloring, 3)
    if mono is not None:
        raise ExtractionError(f"coloring has a monochromatic triangle {mono[1]}", mono)


def recursive_free_subset(
    graph: Graph,
    coloring: EdgeColoring,
    s: int,
    t: int | None = None,
    seed: int = 0,
) -> ExtractionResult:
    """K_s-free subset via the recursive dichotomy: look for an (i-1)-tuple
    whose common neighborhood (limited to edge sets showing >= g(i)
    distinct colors) is large, fix the most frequent color pattern and
    recurse on the survivors with g(i) fewer colors; otherwise run the
    alteration sampler on the K_s-copy hypergraph.

    Thresholds are n^(a_t / a_{t-g(i)}) from the exact exponent table,
    scaled by ``THRESHOLD_SCALE``.  ``SCAN_CAP`` bounds the tuples scanned
    by the whole extraction, over every size i and recursion depth.
    """
    if s < 2:
        raise GraphError("s must be at least 2")
    if t is None:
        t = coloring.t
    _check_precondition(graph, coloring)

    result = _recursive_step(graph, coloring, s, t, SCAN_CAP, seed, depth=0)
    if not is_free_set(graph, result.vertices, s):
        raise ExtractionError("extractor produced a set containing a clique", result.vertices)
    return result


def _recursive_step(graph, coloring, s, t, scan_budget, seed, depth) -> ExtractionResult:
    n = graph.n
    if n == 0:
        return ExtractionResult((), [f"depth {depth}: empty graph"])
    exponent = exponent_lower(s, t)
    if exponent.regime == SATURATED:
        # r_t(3) <= s: few enough colors that any clique would force a
        # monochromatic triangle
        return ExtractionResult(tuple(range(n)), [f"depth {depth}: base t={t}"])

    g_table = default_g_table()
    scanned = 0

    for i in range(2, s + 1):
        gi = g_table.value(i)
        if t - gi < 0:
            continue
        a_prev = exponent_lower(s, t - gi).value
        threshold = THRESHOLD_SCALE * n ** float(exponent.value / a_prev)
        need = max(1, math.ceil(threshold))
        hit, used = _scan_tuples(graph, coloring, i, gi, need, scan_budget - scanned)
        scanned += used
        if hit is None:
            continue
        anchors, candidates = hit
        # group the candidates by their colors to the anchors: split each
        # group's mask by every color's row at the next anchor
        patterns = {(): candidates}
        for v in anchors:
            patterns = {
                pat + (c,): part
                for pat, mask in patterns.items()
                for c, rows in coloring.rows.items()
                if v < len(rows) and (part := mask & rows[v])
            }
        best_pat = min(patterns, key=lambda p: (-patterns[p].bit_count(), p))
        survivors = list(iter_bits(patterns[best_pat]))
        sub, old_ids = graph.induced(survivors)
        inner = _recursive_step(
            sub, coloring.induced(survivors), s, t - gi, scan_budget - scanned, seed, depth + 1
        )
        verts = tuple(sorted(old_ids[v] for v in inner.vertices))
        path = [
            f"depth {depth}: pigeonhole i={i} anchors={anchors} pattern={best_pat} "
            f"|survivors|={len(survivors)}"
        ] + inner.path
        return ExtractionResult(verts, path)

    cliques = enumerate_cliques(graph, s)
    verts = alteration_set(n, [cliques], seed)
    return ExtractionResult(verts, [f"depth {depth}: alteration over {len(cliques)} cliques"])


def _scan_tuples(graph, coloring, i, gi, need, scan_budget):
    """First (i-1)-tuple (lexicographic) whose qualified common neighborhood
    reaches ``need``; the qualification asks >= gi distinct edge colors, the
    colors whose row at u meets the anchors.

    Returns ``((anchors, qualified mask) or None, tuples scanned)``."""
    n = graph.n
    rows = graph._rows
    full = (1 << n) - 1
    by_color = list(coloring.rows.values())
    scanned = 0
    for anchors in itertools.combinations(range(n), i - 1):
        scanned += 1
        if scanned > scan_budget:
            raise BudgetError(f"tuple scan exceeded the cap at i={i}")
        common = full
        for v in anchors:
            common &= rows[v]
            if common.bit_count() < need:
                break
        if common.bit_count() < need:
            continue
        anchor_mask = sum(1 << v for v in anchors)
        qualified = 0
        for u in iter_bits(common):
            seen = sum(1 for c_rows in by_color if u < len(c_rows) and c_rows[u] & anchor_mask)
            if seen >= gi:
                qualified |= 1 << u
        if qualified.bit_count() >= need:
            return (anchors, qualified), scanned
    return None, scanned


def _ordering_satisfies(coloring, x, clique, most_freq):
    """Does some ordering (x, v_2, ..) of ``clique`` meet the two-color
    conditions, with the first edge off ``most_freq`` unless it is None?

    v_i meets them when its edges back to the vertices before it have two
    colors, which stays so as vertices are put before it.  So with x and
    v_2 first, an ordering exists iff putting next, again and again, every
    vertex that meets them reaches the whole clique.  The colors are read
    from the rows."""
    color_rows = list(coloring.rows.values())
    avoid = coloring.rows[most_freq][x] if most_freq is not None else 0
    full = sum(1 << v for v in clique)
    for v2 in clique:
        if v2 == x or avoid >> v2 & 1:
            continue
        before = 1 << x | 1 << v2
        while before != full:
            fits = [v for v in clique if not before >> v & 1
                    and sum(1 for rows in color_rows if rows[v] & before) >= 2]
            if not fits:
                break
            for v in fits:
                before |= 1 << v
        else:
            return True
    return False


def lay3_free_subset(
    graph: Graph,
    coloring: EdgeColoring,
    s: int,
    seed: int = 0,
) -> ExtractionResult:
    """K_s-free subset via the two-branch argument: when the mean of
    d_st*d_nd is large, pigeonhole a color pair onto a common
    neighborhood (spanning at most t-2 colors); otherwise build the
    per-vertex s- and ceil(s/2)-uniform families of ordered cliques and run
    the two-family alteration sampler.
    """
    if s < 3:
        raise GraphError("s must be at least 3")
    _check_precondition(graph, coloring)
    n = graph.n
    t = coloring.t
    s_half = (s + 1) // 2
    alpha = Fraction(s + s_half - 3, 2 * s + 2 * s_half - 5)
    beta = alpha + 1

    # the colors on each vertex's edges, most frequent first: d_st and d_nd
    # are the two largest color class sizes, and xi = d_st * d_nd
    tallies = [coloring.tally(x, iter_bits(graph.row(x))) for x in range(n)]
    d_st = [tl[0][0] if tl else 0 for tl in tallies]
    xis = [tl[0][0] * tl[1][0] if len(tl) > 1 else 0 for tl in tallies]
    driver = sum(xis) / n if n else 0.0
    threshold = THRESHOLD_SCALE * n ** float(beta)

    if driver >= threshold and any(xis):
        verts, info = _pigeonhole_pair(coloring, tallies)
        if not is_free_set(graph, verts, s):
            raise ExtractionError(
                "pigeonhole branch output contains a clique; the call is outside "
                "the regime where the remaining colors force freeness",
                verts,
            )
        return ExtractionResult(verts, [f"pigeonhole pair {info}"])

    # x vouches for the s-cliques through it when its largest color class is
    # small, and for the s'-cliques through it otherwise
    power = (s - 1) / (s + s_half - 2)
    scale = n ** (float(alpha) * (s - s_half) / (s + s_half - 2))
    small = [d_st[x] <= xis[x] ** power / scale for x in range(n)]
    family_s = {cl for cl in enumerate_cliques(graph, s)
                if any(small[x] and _ordering_satisfies(coloring, x, cl, None) for x in cl)}
    family_half = {cl for cl in enumerate_cliques(graph, s_half)
                   if any(not small[x] and _ordering_satisfies(coloring, x, cl, tallies[x][0][1])
                          for x in cl)}
    verts = alteration_set(n, [sorted(family_s), sorted(family_half)], seed)
    if not is_free_set(graph, verts, s):
        raise ExtractionError("families branch output contains a clique", verts)
    return ExtractionResult(
        verts, [f"families |F|={len(family_s)} |G|={len(family_half)} s'={s_half}"]
    )


def _pigeonhole_pair(coloring: EdgeColoring, tallies):
    """Most frequent ordered color pair over paths y-x-z with differing
    colors, then the best (y, z); returns the common set and a description.
    ``tallies[x]`` is ``coloring.tally`` of x's edges: x is the middle of
    count(c1) * count(c2) paths colored (c1, c2).  The (y, z) counts and the
    common set read colors c1's and c2's rows."""
    pair_counts: dict[tuple[int, int], int] = {}
    for tally in tallies:
        for k1, c1 in tally:
            for k2, c2 in tally:
                if c1 != c2:
                    pair_counts[(c1, c2)] = pair_counts.get((c1, c2), 0) + k1 * k2
    if not pair_counts:
        raise ExtractionError("no bicolored cherry exists")
    c1, c2 = min(pair_counts, key=lambda p: (-pair_counts[p], p))
    rows1, rows2 = coloring.rows[c1], coloring.rows[c2]
    anchor_counts: dict[tuple[int, int], int] = {}
    # the rows may stop short of the graph when its top vertices are isolated
    for row1, row2 in zip(rows1, rows2):
        zs = list(iter_bits(row2))
        for y in iter_bits(row1):
            for z in zs:
                anchor_counts[(y, z)] = anchor_counts.get((y, z), 0) + 1
    y, z = min(anchor_counts, key=lambda p: (-anchor_counts[p], p))
    members = tuple(iter_bits(rows1[y] & rows2[z]))
    return members, {"colors": (c1, c2), "anchors": (y, z)}
