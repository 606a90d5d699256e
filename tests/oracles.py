"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own algorithms: the DP
works over all 2^n subsets with numpy, the naive checks use itertools, the
instance generators only rely on adjacency bookkeeping, and the reference
packer draws through ``rng.sample`` and tests edge-indexed bitmasks.  The
reference alpha searches are the package's branch and bound and counting
enumeration as they were before their clique tests were memoised: they ask
``first_clique`` afresh at every node.  The reference coloring search is the
package's recursive backtrack over per-vertex color sets, as it was before it
became one loop over bitmask state.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from erlab.alpha import AlphaResult
from erlab.construct import _default_sample_budget
from erlab.freeness import FOUND, INCONCLUSIVE, NONE, SearchResult, _edge_order, find_mono_clique
from erlab.graphs import EdgeColoring, Graph, GraphError, LinearHypergraph, first_clique
from erlab.util import ensure_recursion_depth, iter_bits, make_rng


def dp_clique_tables(graph: Graph, smax: int) -> dict[int, np.ndarray]:
    """tables[s][mask] == True iff the induced subgraph on mask contains K_s.

    Subset DP on the lowest set bit; masks with a higher lowest bit are
    filled first so every dependency is ready.
    """
    n = graph.n
    neigh = [graph.row(u) for u in range(n)]
    size = 1 << n
    tables: dict[int, np.ndarray] = {}
    has2 = np.zeros(size, dtype=bool)
    for v in range(n - 1, -1, -1):
        ys = np.arange(1 << (n - 1 - v), dtype=np.int64)
        rest = ys << (v + 1)
        has2[rest | (1 << v)] = has2[rest] | ((rest & neigh[v]) != 0)
    tables[2] = has2
    for s in range(3, smax + 1):
        prev = tables[s - 1]
        cur = np.zeros(size, dtype=bool)
        for v in range(n - 1, -1, -1):
            ys = np.arange(1 << (n - 1 - v), dtype=np.int64)
            rest = ys << (v + 1)
            cur[rest | (1 << v)] = cur[rest] | prev[rest & neigh[v]]
        tables[s] = cur
    return tables


@functools.lru_cache(maxsize=2)
def popcounts(n: int) -> np.ndarray:
    """Read-only table of popcount(mask) for every mask < 2^n, kept for the
    two most recent n."""
    size = 1 << n
    pops = np.zeros(size, dtype=np.int16)
    for v in range(n):
        pops[(np.arange(size) & (1 << v)) != 0] += 1
    pops.flags.writeable = False
    return pops


def dp_alpha(graph: Graph, s: int, tables=None) -> int:
    """Exact maximum K_s-free subset size over all 2^n subsets."""
    table = (tables or dp_clique_tables(graph, s))[s]
    return int(popcounts(graph.n)[~table].max())


def dp_count_free(graph: Graph, s: int, min_size: int, tables=None) -> int:
    """Exact number of K_s-free subsets of size >= min_size."""
    table = (tables or dp_clique_tables(graph, s))[s]
    return int(((~table) & (popcounts(graph.n) >= min_size)).sum())


def naive_cliques(graph: Graph, s: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations(range(graph.n), s):
        if all(graph.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
            out.append(combo)
    return out


def naive_is_free(graph: Graph, vertices, s: int) -> bool:
    for sub in itertools.combinations(sorted(vertices), s):
        if all(graph.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
            return False
    return True


def random_graph(n: int, p: float, seed) -> Graph:
    rng = make_rng(seed, "oracle-graph")
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def mono_free_colored_graph(n: int, t: int, density: float, seed) -> tuple[Graph, EdgeColoring]:
    """Random graph with a t-edge-coloring free of monochromatic triangles,
    built by keeping each shuffled edge under the first feasible color."""
    rng = make_rng(seed, "oracle-colored")
    edges = list(itertools.combinations(range(n), 2))
    rng.shuffle(edges)
    target = int(density * len(edges))
    rows = [[0] * n for _ in range(t)]
    colors = {}
    kept = []
    for (u, v) in edges:
        if len(kept) >= target:
            break
        palette = list(range(1, t + 1))
        rng.shuffle(palette)
        for c in palette:
            if rows[c - 1][u] & rows[c - 1][v]:
                continue
            rows[c - 1][u] |= 1 << v
            rows[c - 1][v] |= 1 << u
            colors[(u, v)] = c
            kept.append((u, v))
            break
    return Graph(n, kept), EdgeColoring(t, colors)


def sample_mono_free_coloring(k: int, t: int, seed, max_repairs: int = 20_000):
    """Random t-coloring of K_k repaired by local recoloring until no
    monochromatic triangle remains."""
    rng = make_rng(seed, "oracle-sample")
    edges = list(itertools.combinations(range(k), 2))
    colors = {e: rng.randint(1, t) for e in edges}
    triangles = list(itertools.combinations(range(k), 3))
    for _ in range(max_repairs):
        bad = None
        for (a, b, c) in triangles:
            if colors[(a, b)] == colors[(a, c)] == colors[(b, c)]:
                bad = (a, b, c)
                break
        if bad is None:
            return EdgeColoring(t, colors)
        a, b, c = bad
        edge = rng.choice([(a, b), (a, c), (b, c)])
        colors[edge] = rng.choice([x for x in range(1, t + 1) if x != colors[edge]])
    return None


def fano_plane_edges() -> list[tuple[int, int, int]]:
    return [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def brute_max_independent_in_family(n: int, edges) -> int:
    """Largest subset of [n] containing no member of the family."""
    members = [set(e) for e in edges]
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            chosen = set(combo)
            if not any(m <= chosen for m in members):
                return size
    return 0


def reference_linear_tf_hypergraph(n: int, R: int, seed: int, sample_budget: int | None = None):
    """Reference packer: materialises every candidate through ``rng.sample``
    and tests linearity and triangle-freeness over edge-indexed bitmasks."""
    rng = make_rng(seed, "packing")
    total = math.comb(n, R)
    if total <= 10_000:
        candidates = list(itertools.combinations(range(n), R))
        rng.shuffle(candidates)
        enumerated = True
    else:
        budget = sample_budget if sample_budget is not None else _default_sample_budget(n, R)
        candidates = [tuple(sorted(rng.sample(range(n), R))) for _ in range(budget)]
        enumerated = False

    edges: list[tuple[int, ...]] = []
    through = [0] * n        # E_x: bitmask of accepted edge indices containing x
    reach = [0] * n          # OR of inter[f] over accepted edges f containing x
    inter: list[int] = []    # per accepted edge: bitmask of accepted edges meeting it

    for cand in candidates:
        ok = True
        # linearity: no accepted edge may contain two vertices of the candidate
        for a in range(R):
            ea = through[cand[a]]
            for bidx in range(a + 1, R):
                if ea & through[cand[bidx]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # hypergraph triangle: edges f ∋ x, g ∋ y (x≠y in the candidate) with f∩g ≠ ∅
        for a in range(R):
            ra = reach[cand[a]]
            if not ra:
                continue
            for bidx in range(R):
                if bidx != a and ra & through[cand[bidx]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue

        j = len(edges)
        bit = 1 << j
        meet = 0
        for x in cand:
            meet |= through[x]
        inter.append(meet)
        for f in iter_bits(meet):
            inter[f] |= bit
            for w in edges[f]:
                reach[w] |= bit
        for x in cand:
            through[x] |= bit
            reach[x] |= meet
        edges.append(cand)

    edges.sort()
    ceiling = n * n / (R * R)
    report = {
        "edges": len(edges),
        "ceiling_n2_R2": ceiling,
        "ratio_to_ceiling": len(edges) / ceiling if ceiling else 0.0,
        "pair_ceiling": n * (n - 1) // (R * (R - 1)),
        "candidates_tried": len(candidates),
        "enumerated": enumerated,
    }
    return LinearHypergraph(n, R, edges), report


def _has_clique_in_mask(rows: list[int], mask: int, size: int) -> bool:
    return size <= 0 or first_clique(rows, mask, size) is not None


def reference_alpha_exact(graph: Graph, s: int, node_budget: int | None = None) -> AlphaResult:
    """Reference include-first branch and bound: one clique query per node."""
    if s < 2:
        raise GraphError("s must be at least 2")
    n = graph.n
    ensure_recursion_depth(n)
    rows = graph._rows
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
        joinable = not _has_clique_in_mask(rows, chosen_mask & rows[idx], s - 1)
        if joinable:
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


def reference_count_free_subsets(graph: Graph, s: int, min_size: int = 0) -> int:
    """Reference counting enumeration: one clique query per node."""
    n = graph.n
    ensure_recursion_depth(n)
    rows = graph._rows
    count = 0

    def walk(idx: int, chosen_mask: int, size: int):
        nonlocal count
        if size + (n - idx) < min_size:
            return
        if idx == n:
            count += 1
            return
        walk(idx + 1, chosen_mask, size)
        if not _has_clique_in_mask(rows, chosen_mask & rows[idx], s - 1):
            walk(idx + 1, chosen_mask | (1 << idx), size + 1)

    walk(0, 0, 0)
    return count


def _has_clique_through_edge(rows: list[int], u: int, v: int, b: int) -> bool:
    """Does the graph given by ``rows`` contain a K_b through edge (u,v)?"""
    common = rows[u] & rows[v]
    if b == 3:
        return common != 0
    return first_clique(rows, common, b - 2) is not None


def reference_search_free_coloring(
    graph: Graph,
    t: int | None,
    b: int,
    local_bound: int | None = None,
    node_budget: int | None = None,
    time_budget_ms: int | None = None,
) -> SearchResult:
    """Reference recursive coloring search: one call per depth, color sets per
    vertex, and the clock read only on entering a depth at a multiple of 1024
    nodes."""
    if b < 3:
        raise GraphError("forbidden clique order must be at least 3")
    if t is not None and t < 1:
        raise GraphError("number of colors must be at least 1")
    if local_bound is not None and local_bound < 0:
        raise GraphError("local bound must be non-negative")

    edges = _edge_order(graph)
    n_edges = len(edges)
    ensure_recursion_depth(n_edges)
    palette_cap = t if local_bound is None else max(n_edges, 1)

    if n_edges == 0:
        result = EdgeColoring(t or 1, {})
        return SearchResult(FOUND, result, 0, {"edges": 0})
    if local_bound == 0:
        return SearchResult(NONE, None, 0, {"edges": n_edges, "reason": "zero local bound"})

    rows_by_color: list[list[int]] = []
    vertex_colors: list[set[int]] = [set() for _ in range(graph.n)]
    assignment: list[int] = [0] * n_edges
    nodes = 0
    exhausted = False
    deadline = None
    if time_budget_ms is not None:
        import time

        deadline = time.monotonic() + time_budget_ms / 1000.0

    def over_time() -> bool:
        if deadline is None or nodes % 1024:
            return False
        import time

        return time.monotonic() > deadline

    def assign(idx: int) -> bool:
        nonlocal nodes, exhausted
        if idx == n_edges:
            return True
        if node_budget is not None and nodes >= node_budget:
            exhausted = True
            return False
        if over_time():
            exhausted = True
            return False
        u, v = edges[idx]
        used = len(rows_by_color)
        max_c = min(used + 1, palette_cap)
        for c in range(1, max_c + 1):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = True
                return False
            new_u = c not in vertex_colors[u]
            new_v = c not in vertex_colors[v]
            if local_bound is not None:
                if new_u and len(vertex_colors[u]) >= local_bound:
                    continue
                if new_v and len(vertex_colors[v]) >= local_bound:
                    continue
            if c <= used:
                rows = rows_by_color[c - 1]
                if _has_clique_through_edge(rows, u, v, b):
                    continue
            else:
                rows_by_color.append([0] * graph.n)
                rows = rows_by_color[-1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if new_u:
                vertex_colors[u].add(c)
            if new_v:
                vertex_colors[v].add(c)
            assignment[idx] = c
            if assign(idx + 1):
                return True
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            if new_u:
                vertex_colors[u].discard(c)
            if new_v:
                vertex_colors[v].discard(c)
            if c > used:
                rows_by_color.pop()
            if exhausted:
                return False
        return False

    ok = assign(0)
    transcript = {
        "edges": n_edges,
        "nodes": nodes,
        "palette_cap": palette_cap,
        "local_bound": local_bound,
        "b": b,
        "t": t,
    }
    if ok:
        coloring = EdgeColoring(
            t if t is not None else max(assignment), dict(zip(edges, assignment))
        )
        assert find_mono_clique(graph, coloring, b) is None
        if local_bound is not None:
            assert all(len(cs) <= local_bound for cs in vertex_colors)
        return SearchResult(FOUND, coloring, nodes, transcript)
    if exhausted:
        return SearchResult(INCONCLUSIVE, None, nodes, transcript)
    return SearchResult(NONE, None, nodes, transcript)
