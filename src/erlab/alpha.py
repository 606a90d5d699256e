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

from .bounds import GTable, exponent_lower
from .freeness import RamseyTable, default_table, find_mono_clique
from .graphs import EdgeColoring, Graph, GraphError, enumerate_cliques, first_clique
from .util import ensure_recursion_depth, iter_bits, make_rng


class ExtractionError(RuntimeError):
    """Precondition or regime violation inside an extractor; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class BudgetError(RuntimeError):
    """A configured enumeration cap was exceeded."""


# ---------------------------------------------------------------------------
# exact solver and counting


@dataclass(frozen=True)
class AlphaResult:
    size: int
    witness: tuple[int, ...]
    complete: bool
    upper_bound: int
    nodes: int


class _JoinableMemo(dict):
    """``memo[mask]`` is True iff ``mask`` holds no K_size of ``rows``.

    A mask not seen before is asked of ``first_clique`` once; the answer is
    kept.  One memo serves one search: while ``rows`` and ``size`` are fixed
    the answer depends on the mask alone, so a kept answer is the one a fresh
    query would give.
    """

    def __init__(self, rows: list[int], size: int):
        super().__init__()
        self.rows = rows
        self.size = size

    def __missing__(self, mask: int) -> bool:
        free = self[mask] = first_clique(self.rows, mask, self.size) is None
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

    Vertex ``idx`` may join ``chosen`` iff ``chosen & N(idx)`` holds no
    K_{s-1}.  The search asks this of few distinct masks many times over,
    since backtracking over non-neighbours of ``idx`` leaves the mask as it
    was, so each answer is kept in a memo that lives for this call only.
    The graph is fixed during the call, so the memo returns exactly what
    the clique query would: the search tree, ``nodes`` and the witness are
    those of the unmemoised search.
    """
    if s < 2:
        raise GraphError("s must be at least 2")
    n = graph.n
    ensure_recursion_depth(n)
    rows = graph._rows
    joinable = _JoinableMemo(rows, s - 1)
    best: list[int] = []
    chosen: list[int] = []
    chosen_mask = 0
    nodes = 0
    aborted_bounds: list[int] = []
    out_of_budget = False

    def walk(idx: int):
        nonlocal chosen_mask, nodes, best, out_of_budget
        if idx == n:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        if len(chosen) + (n - idx) <= len(best):
            return
        if node_budget is not None and nodes >= node_budget:
            out_of_budget = True
            aborted_bounds.append(len(chosen) + (n - idx))
            return
        nodes += 1
        if joinable[chosen_mask & rows[idx]]:
            chosen.append(idx)
            chosen_mask |= 1 << idx
            walk(idx + 1)
            chosen.pop()
            chosen_mask ^= 1 << idx
        if out_of_budget:
            aborted_bounds.append(len(chosen) + (n - idx) - 1)
            return
        walk(idx + 1)

    walk(0)
    complete = not out_of_budget
    upper = len(best) if complete else max([len(best)] + aborted_bounds)
    return AlphaResult(len(best), tuple(best), complete, upper, nodes)


def count_free_subsets(graph: Graph, s: int, min_size: int = 0, limit: int = 24) -> int:
    """Exact number of vertex subsets of size >= min_size inducing no K_s,
    by depth-first enumeration with feasibility pruning.

    Refuses graphs above ``limit`` vertices; use alpha_exact for a single
    extremal witness instead.

    As in alpha_exact, whether vertex ``idx`` may join is asked of the
    mask ``chosen & N(idx)`` alone, and the answers are kept in a memo that
    lives for this call only; the graph is fixed during the call, so the
    count is the one the unmemoised enumeration gives."""
    if s < 2:
        raise GraphError("s must be at least 2")
    if graph.n > limit:
        raise GraphError(
            f"count_free_subsets is exhaustive and limited to {limit} vertices "
            f"(got {graph.n}); use alpha_exact for larger graphs"
        )
    n = graph.n
    ensure_recursion_depth(n)
    rows = graph._rows
    joinable = _JoinableMemo(rows, s - 1)
    count = 0

    def walk(idx: int, chosen_mask: int, size: int):
        nonlocal count
        if size + (n - idx) < min_size:
            return
        if idx == n:
            count += 1
            return
        walk(idx + 1, chosen_mask, size)
        if joinable[chosen_mask & rows[idx]]:
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


@dataclass(frozen=True)
class UniformFamily:
    """A k-uniform set family on ground set 0..n-1 (not necessarily linear)."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n, k, edges):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(tuple(sorted(e)) for e in edges))


@dataclass(frozen=True)
class AlterationParams:
    families: tuple[UniformFamily, ...]
    seed: int
    p: float | None = None  # default: min(1, (1/3) min_f (n/|f|)^{1/(k_f-1)})

    def __init__(self, families, seed, p=None):
        object.__setattr__(self, "families", tuple(families))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "p", p)


def alteration_probability(families, n: int) -> float:
    best = None
    for fam in families:
        if not fam.edges:
            continue
        if fam.k < 2:
            raise GraphError("family uniformity must be at least 2")
        ratio = (n / len(fam.edges)) ** (1.0 / (fam.k - 1))
        best = ratio if best is None else min(best, ratio)
    if best is None:
        return 1.0
    return min(1.0, best / 3.0)


def alteration_set(params: AlterationParams) -> tuple[int, ...]:
    """Sample each vertex independently, then delete the lowest-id vertex of
    every fully selected hyperedge of every family.  The output is
    independent in all families, unconditionally."""
    if not params.families:
        raise GraphError("need at least one family")
    n = params.families[0].n
    if any(f.n != n for f in params.families):
        raise GraphError("families must share one ground set")
    p = params.p if params.p is not None else alteration_probability(params.families, n)
    rng = make_rng(params.seed, "alteration")
    selected = set(u for u in range(n) if rng.random() < p)
    doomed = set()
    for fam in params.families:
        for edge in fam.edges:
            if all(v in selected for v in edge):
                doomed.add(min(edge))
    result = tuple(sorted(selected - doomed))
    kept = set(result)
    for fam in params.families:
        for edge in fam.edges:
            assert not all(v in kept for v in edge), "alteration left a full hyperedge"
    return result


@dataclass(frozen=True)
class CliqueHypergraph:
    """The s-uniform hypergraph whose hyperedges are the K_s copies of a graph."""

    base: Graph
    s: int
    hyperedges: tuple[tuple[int, ...], ...]

    @classmethod
    def from_graph(cls, graph: Graph, s: int, cap: int | None = None) -> "CliqueHypergraph":
        edges = enumerate_cliques(graph, s)
        if cap is not None and len(edges) > cap:
            raise BudgetError(f"{len(edges)} K_{s} copies exceed the cap {cap}")
        return cls(graph, s, tuple(edges))

    def as_family(self) -> UniformFamily:
        return UniformFamily(self.base.n, self.s, self.hyperedges)


# ---------------------------------------------------------------------------
# constructive extractors


@dataclass
class ExtractionResult:
    vertices: tuple[int, ...]
    path: list[str] = field(default_factory=list)

    def __len__(self):
        return len(self.vertices)


def _check_precondition(graph: Graph, coloring: EdgeColoring):
    mono = find_mono_clique(graph, coloring, 3)
    if mono is not None:
        raise ExtractionError(f"coloring has a monochromatic triangle {mono[1]}", mono)


def recursive_free_subset(
    graph: Graph,
    coloring: EdgeColoring,
    s: int,
    t: int | None = None,
    threshold_scale: float = 1.0,
    scan_cap: int = 2_000_000,
    clique_cap: int = 500_000,
    seed: int = 0,
    table: RamseyTable | None = None,
    _check: bool = True,
) -> ExtractionResult:
    """K_s-free subset via the recursive dichotomy: look for an (i-1)-tuple
    whose common neighborhood (restricted to edge sets showing >= g(i)
    distinct colors) is large, fix the most frequent color pattern and
    recurse on the survivors with g(i) fewer colors; otherwise run the
    alteration sampler on the K_s-copy hypergraph.

    Thresholds are n^(a_t / a_{t-g(i)}) from the exact exponent table,
    scaled by ``threshold_scale``.  ``scan_cap`` bounds the tuples scanned
    by the whole extraction, over every size i and recursion depth.
    """
    if s < 2:
        raise GraphError("s must be at least 2")
    table = table or default_table()
    if t is None:
        t = coloring.t
    if _check:
        _check_precondition(graph, coloring)

    result = _recursive_step(
        graph, coloring, s, t, threshold_scale, scan_cap, clique_cap, seed, table, depth=0
    )
    if not is_free_set(graph, result.vertices, s):
        raise ExtractionError("extractor produced a set containing a clique", result.vertices)
    return result


def _recursive_step(graph, coloring, s, t, threshold_scale, scan_cap, clique_cap,
                    seed, table, depth) -> ExtractionResult:
    n = graph.n
    if n == 0:
        return ExtractionResult((), [f"depth {depth}: empty graph"])
    if table.r_le(t, 3, s):
        # few enough colors that any clique would force a monochromatic triangle
        return ExtractionResult(tuple(range(n)), [f"depth {depth}: base t={t}"])

    g_table = GTable.from_table(table, max_i=min(s, 6))
    alpha_t = exponent_lower(s, t, table=table, g_table=g_table).value
    scanned = 0

    for i in range(2, s + 1):
        gi = g_table.value(i)
        if t - gi < 0:
            continue
        a_prev = exponent_lower(s, t - gi, table=table, g_table=g_table).value
        threshold = threshold_scale * n ** float(alpha_t / a_prev)
        need = max(1, math.ceil(threshold))
        hit, used = _scan_tuples(graph, coloring, i, gi, need, scan_cap - scanned)
        scanned += used
        if hit is None:
            continue
        anchors, candidates = hit
        patterns: dict[tuple[int, ...], list[int]] = {}
        for u in candidates:
            pat = tuple(coloring.color_of(u, v) for v in anchors)
            patterns.setdefault(pat, []).append(u)
        best_pat = min(patterns, key=lambda p: (-len(patterns[p]), p))
        survivors = patterns[best_pat]
        sub, old_ids = graph.induced(survivors)
        sub_coloring = coloring.restrict(survivors).relabel(
            {v: idx for idx, v in enumerate(old_ids)}
        )
        inner = _recursive_step(
            sub, sub_coloring, s, t - gi, threshold_scale, scan_cap - scanned, clique_cap,
            seed, table, depth + 1
        )
        verts = tuple(sorted(old_ids[v] for v in inner.vertices))
        path = [
            f"depth {depth}: pigeonhole i={i} anchors={anchors} pattern={best_pat} "
            f"|survivors|={len(survivors)}"
        ] + inner.path
        return ExtractionResult(verts, path)

    hyper = CliqueHypergraph.from_graph(graph, s, cap=clique_cap)
    verts = alteration_set(AlterationParams([hyper.as_family()], seed=seed))
    return ExtractionResult(
        tuple(verts), [f"depth {depth}: alteration over {len(hyper.hyperedges)} cliques"]
    )


def _scan_tuples(graph, coloring, i, gi, need, scan_budget):
    """First (i-1)-tuple (lexicographic) whose qualified common neighborhood
    reaches ``need``; the qualification asks >= gi distinct edge colors.

    Returns ``((anchors, qualified) or None, tuples scanned)``."""
    n = graph.n
    rows = graph._rows
    full = (1 << n) - 1
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
        qualified = []
        for u in iter_bits(common):
            colors = {coloring.color_of(u, v) for v in anchors}
            if len(colors) >= gi:
                qualified.append(u)
        if len(qualified) >= need:
            return (anchors, qualified), scanned
    return None, scanned


@dataclass(frozen=True)
class VertexColorStats:
    d_st: dict[int, int]
    d_nd: dict[int, int]

    def xi(self, x: int) -> int:
        return self.d_st[x] * self.d_nd[x]


def color_stats(graph: Graph, coloring: EdgeColoring) -> VertexColorStats:
    """Largest and second largest color class sizes in each neighborhood."""
    d_st, d_nd = {}, {}
    for x in range(graph.n):
        counts: dict[int, int] = {}
        for y in graph.neighbors(x):
            c = coloring.color_of(x, y)
            counts[c] = counts.get(c, 0) + 1
        sizes = sorted(counts.values(), reverse=True)
        d_st[x] = sizes[0] if sizes else 0
        d_nd[x] = sizes[1] if len(sizes) > 1 else 0
    return VertexColorStats(d_st, d_nd)


def _most_frequent_neighborhood_color(graph, coloring, x):
    counts: dict[int, int] = {}
    for y in graph.neighbors(x):
        c = coloring.color_of(x, y)
        counts[c] = counts.get(c, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda c: (-counts[c], c))


def _ordering_satisfies(coloring, x, rest, need_first_off_frequency, most_freq):
    """Does some ordering (x, v_2, ..) of {x} ∪ rest meet the two-color
    conditions (and, when asked, the off-frequency first edge)?"""
    for perm in itertools.permutations(rest):
        if need_first_off_frequency and coloring.color_of(x, perm[0]) == most_freq:
            continue
        seq = (x,) + perm
        ok = True
        for idx in range(2, len(seq)):
            seen = {coloring.color_of(seq[idx], seq[j]) for j in range(idx)}
            if len(seen) < 2:
                ok = False
                break
        if ok:
            return True
    return False


def lay3_free_subset(
    graph: Graph,
    coloring: EdgeColoring,
    s: int,
    threshold_scale: float = 1.0,
    branch_on: str = "mean",
    seed: int = 0,
    clique_cap: int = 500_000,
    _check: bool = True,
) -> ExtractionResult:
    """K_s-free subset via the two-branch argument: when the mean (or max)
    of d_st*d_nd is large, pigeonhole a color pair onto a common
    neighborhood (spanning at most t-2 colors); otherwise build the
    per-vertex s- and ceil(s/2)-uniform families of ordered cliques and run
    the two-family alteration sampler.
    """
    if s < 3:
        raise GraphError("s must be at least 3")
    if branch_on not in ("mean", "max"):
        raise GraphError("branch_on must be 'mean' or 'max'")
    if _check:
        _check_precondition(graph, coloring)
    n = graph.n
    t = coloring.t
    s_half = (s + 1) // 2
    alpha = Fraction(s + s_half - 3, 2 * s + 2 * s_half - 5)
    beta = alpha + 1

    stats = color_stats(graph, coloring)
    xis = [stats.xi(x) for x in range(n)]
    driver = (sum(xis) / n if n else 0.0) if branch_on == "mean" else max(xis, default=0)
    threshold = threshold_scale * n ** float(beta)

    if driver >= threshold and any(xis):
        verts, info = _pigeonhole_pair(graph, coloring)
        if not is_free_set(graph, verts, s):
            raise ExtractionError(
                "pigeonhole branch output contains a clique; the call is outside "
                "the regime where the remaining colors force freeness",
                verts,
            )
        return ExtractionResult(verts, [f"pigeonhole pair {info}"])

    family_s: set[tuple[int, ...]] = set()
    family_half: set[tuple[int, ...]] = set()
    cliques_s = enumerate_cliques(graph, s) if n >= s else []
    cliques_half = enumerate_cliques(graph, s_half) if n >= s_half else []
    if len(cliques_s) > clique_cap or len(cliques_half) > clique_cap:
        raise BudgetError("clique enumeration exceeded the cap")
    by_vertex_s: dict[int, list] = {}
    for cl in cliques_s:
        for x in cl:
            by_vertex_s.setdefault(x, []).append(cl)
    by_vertex_half: dict[int, list] = {}
    for cl in cliques_half:
        for x in cl:
            by_vertex_half.setdefault(x, []).append(cl)

    for x in range(n):
        xi = xis[x]
        if xi > 0:
            split = xi ** ((s - 1) / (s + s_half - 2)) / n ** (
                float(alpha) * (s - s_half) / (s + s_half - 2)
            )
        else:
            split = 0.0
        if stats.d_st[x] <= split:
            for cl in by_vertex_s.get(x, []):
                rest = tuple(v for v in cl if v != x)
                if _ordering_satisfies(coloring, x, rest, False, None):
                    family_s.add(cl)
        else:
            mf = _most_frequent_neighborhood_color(graph, coloring, x)
            for cl in by_vertex_half.get(x, []):
                rest = tuple(v for v in cl if v != x)
                if _ordering_satisfies(coloring, x, rest, True, mf):
                    family_half.add(cl)

    fam_s = UniformFamily(n, s, sorted(family_s))
    fam_h = UniformFamily(n, s_half, sorted(family_half))
    verts = alteration_set(AlterationParams([fam_s, fam_h], seed=seed))
    if not is_free_set(graph, verts, s):
        raise ExtractionError("families branch output contains a clique", verts)
    return ExtractionResult(
        tuple(verts),
        [f"families |F|={len(fam_s.edges)} |G|={len(fam_h.edges)} s'={s_half}"],
    )


def _pigeonhole_pair(graph: Graph, coloring: EdgeColoring):
    """Most frequent ordered color pair over paths y-x-z with differing
    colors, then the best (y, z); returns the common set and a description."""
    pair_counts: dict[tuple[int, int], int] = {}
    for x in range(graph.n):
        nbrs = graph.neighbors(x)
        for y in nbrs:
            cy = coloring.color_of(x, y)
            for z in nbrs:
                if z == y:
                    continue
                cz = coloring.color_of(x, z)
                if cy != cz:
                    pair_counts[(cy, cz)] = pair_counts.get((cy, cz), 0) + 1
    if not pair_counts:
        raise ExtractionError("no bicolored cherry exists")
    c1, c2 = min(pair_counts, key=lambda p: (-pair_counts[p], p))
    anchor_counts: dict[tuple[int, int], int] = {}
    for x in range(graph.n):
        nbrs = graph.neighbors(x)
        ys = [y for y in nbrs if coloring.color_of(x, y) == c1]
        zs = [z for z in nbrs if coloring.color_of(x, z) == c2]
        for y in ys:
            for z in zs:
                if y != z:
                    anchor_counts[(y, z)] = anchor_counts.get((y, z), 0) + 1
    y, z = min(anchor_counts, key=lambda p: (-anchor_counts[p], p))
    members = tuple(
        sorted(
            x
            for x in iter_bits(graph.row(y) & graph.row(z))
            if coloring.color_of(x, y) == c1 and coloring.color_of(x, z) == c2
        )
    )
    return members, {"colors": (c1, c2), "anchors": (y, z)}
