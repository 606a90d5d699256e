"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own algorithms: the DP
works over all 2^n subsets with numpy, the naive checks (the first-clique
query, the hypergraph witnesses, the incidence graph, the cover check, a
coloring's coverage of a graph and the induced subgraph and coloring among
them) go over all pairs and triples with
itertools, the naive overlay maps one edge at a time, the naive writers
write one line per edge, the row-kept colorings are filled in one pair at a
time, the instance generators only rely on adjacency
bookkeeping, and the reference packer keeps plain sets and recomputes
compatibility from its definition.  The reference alpha searches are the package's branch and
bound and counting enumeration as they were before their clique tests were
memoised and the branch and bound became one loop: they recurse, and ask
``first_clique`` afresh at every node.  The reference coloring search is the
package's recursive backtrack over per-vertex color sets, as it was before
it became one loop over bitmask state.  The reference lower exponent is
``bounds.exponent_lower`` as it was before its recursion moved onto an
explicit stack.  The recursive searches raise the interpreter's recursion
limit to their depth.
"""

from __future__ import annotations

import collections
import functools
import itertools
import sys
from fractions import Fraction

import numpy as np

from erlab.alpha import AlphaResult
from erlab.bounds import HALF, LAY3, RECURSIVE, SATURATED, default_g_table
from erlab.construct import RETRY_LIMIT, OverlayRecord, blow_up
from erlab.freeness import (
    FOUND,
    INCONCLUSIVE,
    NONE,
    SearchResult,
    UnresolvedRamseyError,
    _edge_order,
    default_table,
    find_mono_clique,
    mono_free_pattern,
)
from erlab.graphs import EdgeColoring, Graph, GraphError, LinearHypergraph, first_clique
from erlab.util import iter_bits, make_rng


def ensure_recursion_depth(depth: int) -> None:
    """Raise the interpreter recursion limit to cover a DFS of the given depth."""
    need = depth + 200
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)


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


def naive_first_clique(rows: list[int], mask: int, s: int):
    """Lexicographically first s-clique inside ``mask``, or None; ``()`` when
    ``s <= 0``: the first of ``itertools.combinations`` over the mask's
    sorted vertices whose pairs are all adjacent in ``rows``."""
    if s <= 0:
        return ()
    members = [v for v in range(len(rows)) if (mask >> v) & 1]
    for combo in itertools.combinations(members, s):
        if all((rows[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)):
            return combo
    return None


def naive_coloring_covers(graph: Graph, coloring: EdgeColoring):
    """``graphs.coloring_covers`` over the coloring's pair map: the first
    edge of ``graph`` with no color, else the first colored pair (in sorted
    order) that is not an edge; None when they match exactly."""
    for e in graph.edges():
        if e not in coloring.colors:
            return ("missing", e)
    for e in sorted(coloring.colors):
        if e[1] >= graph.n or not graph.has_edge(*e):
            return ("extra", e)
    return None


def naive_mono_clique(graph: Graph, coloring: EdgeColoring, b: int):
    """First (color, clique) with every pair of the b-set ``clique`` an edge
    of ``graph`` in that color: colors ascending, then each color's b-subsets
    of range(graph.n) in ``itertools.combinations`` order; None if none."""
    for c in sorted(set(coloring.colors.values())):
        for combo in itertools.combinations(range(graph.n), b):
            if all(graph.has_edge(u, v) and coloring.colors.get((u, v)) == c
                   for u, v in itertools.combinations(combo, 2)):
                return c, combo
    return None


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


def naive_hypergraph_witnesses(edges):
    """(first pair of edges sharing two or more vertices, first hypergraph
    triangle) of an edge family, each lexicographically first on edge
    indices or None, over all pairs and triples.  A triangle is three edges
    that pairwise share exactly one vertex and have no common vertex."""
    sets = [set(e) for e in edges]
    pair = next((
        (i, j) for i, j in itertools.combinations(range(len(sets)), 2)
        if len(sets[i] & sets[j]) >= 2
    ), None)
    triangle = next((
        (i, j, k) for i, j, k in itertools.combinations(range(len(sets)), 3)
        if len(sets[i] & sets[j]) == len(sets[j] & sets[k]) == len(sets[i] & sets[k]) == 1
        and not sets[i] & sets[j] & sets[k]
    ), None)
    return pair, triangle


def naive_linear_triangle_free(edges) -> tuple[bool, bool]:
    """(linear, triangle_free) of an edge family: linear iff no two edges
    share two vertices, triangle-free iff it has no hypergraph triangle."""
    pair, triangle = naive_hypergraph_witnesses(edges)
    return pair is None, triangle is None


def naive_incidence(edges):
    """(first pair of edges sharing two or more vertices, or None; the pairs
    of edges that intersect; for each vertex on some edge, the indices of the
    edges through it), from the edges' vertex sets."""
    sets = [set(e) for e in edges]
    pairs = list(itertools.combinations(range(len(sets)), 2))
    nonlinear = next((p for p in pairs if len(sets[p[0]] & sets[p[1]]) >= 2), None)
    meeting = [p for p in pairs if sets[p[0]] & sets[p[1]]]
    through = {
        v: tuple(i for i, e in enumerate(sets) if v in e) for v in sorted(set().union(*sets))
    }
    return nonlinear, meeting, through


def naive_cover_failure(graph: Graph, cliques: dict):
    """The first way the within-clique pairs of ``cliques`` fail to partition
    the edges of ``graph``: ("doubly", pair) for a pair inside two cliques,
    else ("uncovered", edge) for an edge inside none, else ("missing", pair)
    for a within-clique pair that is not an edge; each pair is the
    lexicographically first of its kind.  None when they partition."""
    inside = collections.Counter(
        p for members in cliques.values() for p in itertools.combinations(sorted(set(members)), 2)
    )
    all_pairs = list(itertools.combinations(range(graph.n), 2))
    for kind, found in (
        ("doubly", [p for p in all_pairs if inside[p] >= 2]),
        ("uncovered", [p for p in all_pairs if graph.has_edge(*p) and not inside[p]]),
        ("missing", [p for p in all_pairs if inside[p] and not graph.has_edge(*p)]),
    ):
        if found:
            return kind, found[0]
    return None


def part_of(part_masks: dict) -> dict[int, dict[int, int]]:
    """For each clique v, the part index of each of its members."""
    return {v: {u: p for p, pm in enumerate(masks) for u in iter_bits(pm)}
            for v, masks in part_masks.items()}


def naive_sparsify_certificate(n: int, cliques: dict, s: int, seed: int, samples: int,
                               threshold: int):
    """(True, certificate) of ``construct.sparsify`` on a graph with n
    vertices and cover ``cliques``, or (False, worst sample) when no part
    assignment certifies: the same draws, with every sampled set's a_v,
    dyadic classes and even splits recomputed from sets on every attempt."""
    rng = make_rng(seed, "samples")
    sets = []
    for _ in range(samples if threshold <= n else 0):
        size = rng.randint(threshold, n)
        sets.append(set(rng.sample(range(n), size)))
    worst = None
    for attempt in range(RETRY_LIMIT):
        rng = make_rng(seed, "partition", attempt)
        part = {v: {u: rng.randrange(s) for u in cliques[v]} for v in sorted(cliques)}
        records = []
        for X in sets:
            a = {v: len(X & set(cliques[v])) for v in cliques}
            sums = collections.Counter()
            for v in a:
                if a[v]:
                    sums[a[v].bit_length()] += a[v]
            if not sums:
                records.append({"size": len(X), "ell": None, "ok": True})
                continue
            best = max(sums.values())
            ell = min(i for i in sums if sums[i] == best)
            dominant = [v for v in a if a[v] and a[v].bit_length() == ell]
            even = sum(
                all((s + 1) * sum(1 for u in X & set(cliques[v]) if part[v][u] == p) >= a[v]
                    for p in range(s))
                for v in dominant
            )
            records.append({"size": len(X), "ell": ell, "dominant": len(dominant),
                            "evenly_partitioned": even, "ok": 2 * even >= len(dominant)})
            frac = even / len(dominant)
            if not records[-1]["ok"] and (worst is None or frac < worst["fraction"]):
                worst = dict(records[-1], fraction=frac, attempt=attempt)
        if all(r["ok"] for r in records):
            return True, {"attempt": attempt, "samples": len(sets), "threshold": threshold,
                          "vacuous": not sets, "sample_records": records}
    return False, worst or {}


def naive_s_partite_witness(graph: Graph, cliques: dict, part_masks: dict):
    """The lexicographically first pair of the lowest clique whose adjacency
    in ``graph`` differs from "in different parts", as {"clique", "edge"},
    or None when every clique is complete s-partite."""
    parts = part_of(part_masks)
    for v in sorted(cliques):
        for a, b in itertools.combinations(sorted(cliques[v]), 2):
            if graph.has_edge(a, b) != (parts[v][a] != parts[v][b]):
                return {"clique": v, "edge": [a, b]}
    return None


def reference_instance_coloring(bundle) -> dict[tuple[int, int], int]:
    """The coloring of an upper-bound instance, rebuilt one edge of the
    blown-up graph at a time: the edge's hyperedges u // k and v // k share
    one ground vertex x (the packing is linear), and the edge takes the
    pattern color of their parts in K_x, in the palette of the lowest copy
    that keeps both of its ends."""
    params, k = bundle.params, bundle.params.k
    pattern = mono_free_pattern(params.s, params.b, params.ell)
    parts = part_of(bundle.sparsified.part_masks)
    hyperedges = [set(e) for e in bundle.hypergraph.edges]
    index = {x: a for a, x in enumerate(bundle.overlay.retained)}
    colors: dict[tuple[int, int], int] = {}
    blown = blow_up(bundle.sparsified.graph, k)
    for copy_idx, perm in enumerate(bundle.overlay.permutations):
        for u, v in blown.edges():
            a, b = index.get(perm[u]), index.get(perm[v])
            if a is None or b is None or (min(a, b), max(a, b)) in colors:
                continue
            p, q = u // k, v // k
            (x,) = hyperedges[p] & hyperedges[q]
            base = pattern.color_of(parts[x][p], parts[x][q])
            colors[(min(a, b), max(a, b))] = copy_idx * params.ell + base
    return colors


def naive_induced(graph: Graph, vertices) -> tuple[list[tuple[int, int]], list[int]]:
    """Edge list of the subgraph induced on ``vertices``, relabeled by rank
    among the distinct vertices, and those vertices in ascending order."""
    keep = sorted(set(vertices))
    edges = [
        (i, j) for i, j in itertools.combinations(range(len(keep)), 2)
        if graph.has_edge(keep[i], keep[j])
    ]
    return edges, keep


def naive_induced_coloring(coloring: EdgeColoring, vertices) -> dict[tuple[int, int], int]:
    """The colour map of ``coloring`` restricted to the pairs within
    ``vertices``, then relabeled by rank among the distinct vertices."""
    keep = set(vertices)
    rank = {v: i for i, v in enumerate(sorted(keep))}
    return {(rank[u], rank[v]): c for (u, v), c in coloring.colors.items()
            if u in keep and v in keep}


def naive_write_graph(path, graph: Graph) -> None:
    """``io.write_graph`` as it was: the header, then one ``u v`` line per
    edge u < v, found by asking every pair."""
    edges = [f"{u} {v}" for u, v in itertools.combinations(range(graph.n), 2)
             if graph.has_edge(u, v)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in [f"graph {graph.n} {graph.m}", *edges])


def naive_write_coloring(path, coloring: EdgeColoring) -> None:
    """``io.write_coloring`` as it was: one ``u v c`` line per item of the
    sorted colour map."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{u} {v} {c}\n" for (u, v), c in sorted(coloring.colors.items()))


def rows_coloring(coloring: EdgeColoring, n: int) -> EdgeColoring:
    """``coloring`` kept as rows by ``EdgeColoring.from_rows``: one row list
    over n vertices for each color 1..t, empty ones too, and for any other
    color it uses, filled in one pair at a time."""
    rows = {c: [0] * n for c in range(1, coloring.t + 1)}
    for (u, v), c in coloring.colors.items():
        rows.setdefault(c, [0] * n)
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return EdgeColoring.from_rows(coloring.t, rows)


def naive_overlay(graph: Graph, copies: int, retention_p: float, seed: int):
    """``overlay_and_retain`` one edge at a time: each copy's permutation and
    the retained vertices are drawn as the package draws them, every copy
    adds (perm[u], perm[v]) for each edge (u, v) of ``graph``, and the
    union's subgraph induced on the retained vertices is returned with its
    ``OverlayRecord``."""
    perms, union = [], set()
    for i in range(copies):
        perm = list(range(graph.n))
        make_rng(seed, "overlay", i).shuffle(perm)
        perms.append(tuple(perm))
        union.update((perm[u], perm[v]) for u, v in graph.edges())
    keep_rng = make_rng(seed, "retain")
    retained = tuple(u for u in range(graph.n) if keep_rng.random() < retention_p)
    edges, _ = naive_induced(Graph(graph.n, union), retained)
    return Graph(len(retained), edges), OverlayRecord(tuple(perms), retained)


def indexed_linear_triangle_free(edges) -> tuple[bool, bool]:
    """``naive_linear_triangle_free`` for families too large for all triples:
    a triangle's third edge meets its first outside the shared vertex, so it
    is looked up through a vertex-to-edges index instead of over all edges."""
    sets = [frozenset(e) for e in edges]
    through: dict[int, list[int]] = {}
    for i, e in enumerate(sets):
        for v in e:
            through.setdefault(v, []).append(i)
    linear = all(
        len(sets[i] & sets[j]) <= 1
        for ids in through.values() for i, j in itertools.combinations(ids, 2)
    )
    for ids in through.values():
        for i, j in itertools.combinations(ids, 2):
            a, b = sets[i], sets[j]
            if len(a & b) != 1:
                continue
            for u in a - b:
                for k in through[u]:
                    c = sets[k]
                    if len(a & c) == len(b & c) == 1 and not a & b & c:
                        return linear, False
    return linear, True


def reference_linear_tf_hypergraph(n: int, R: int, seed: int, stall_limit: int):
    """Reference packer: the package's random extension on the compatible
    graph, with each N[x] kept as a set and compatibility recomputed from
    its definition (x ~ y iff x != y and N[x], N[y] are disjoint) at every
    step, where the package updates bitmask rows in place.  Members are drawn
    through the same calls on the same stream: by rejection over range(n)
    while at least an eighth of it is a candidate, else by index into the
    sorted candidates."""
    rng = make_rng(seed, "packing")
    closed: list[set[int]] = [set() for _ in range(n)]

    def compatible(x: int, candidates) -> set[int]:
        return {y for y in candidates if y != x and closed[x].isdisjoint(closed[y])}

    edges: list[tuple[int, ...]] = []
    tried = stall = 0
    while stall < stall_limit:
        tried += 1
        x = rng.randrange(n)
        chosen, common = [x], compatible(x, range(n))
        while common and len(chosen) < R:
            if 8 * len(common) >= n:
                y = rng.randrange(n)
                while y not in common:
                    y = rng.randrange(n)
            else:
                y = sorted(common)[rng.randrange(len(common))]
            chosen.append(y)
            common = compatible(y, common)
        if len(chosen) < R:
            stall += 1
            continue
        stall = 0
        edges.append(tuple(sorted(chosen)))
        for x in chosen:
            closed[x] |= set(chosen)

    edges.sort()
    ceiling = n * n / (R * R)
    report = {
        "edges": len(edges),
        "ceiling_n2_R2": ceiling,
        "ratio_to_ceiling": len(edges) / ceiling if ceiling else 0.0,
        "pair_ceiling": n * (n - 1) // (R * (R - 1)),
        "candidates_tried": tried,
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

    edges = _edge_order(graph)[0]
    n_edges = len(edges)
    ensure_recursion_depth(n_edges)
    palette_cap = t if local_bound is None else max(n_edges, 1)

    if n_edges == 0:
        result = EdgeColoring(t or 1, {})
        return SearchResult(FOUND, result, 0)
    if local_bound == 0:
        return SearchResult(NONE, None, 0)

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
    if ok:
        coloring = EdgeColoring(
            t if t is not None else max(assignment), dict(zip(edges, assignment))
        )
        assert find_mono_clique(graph, coloring, b) is None
        if local_bound is not None:
            assert all(len(cs) <= local_bound for cs in vertex_colors)
        return SearchResult(FOUND, coloring, nodes)
    if exhausted:
        return SearchResult(INCONCLUSIVE, None, nodes)
    return SearchResult(NONE, None, nodes)


def naive_last_vertex_tries(others, rows_by_color, seen, used, palette_cap, local_bound, b):
    """Colors tried by a depth-first visit to the edges (x, w) for x in
    ``others``, w being a vertex with no colored edge yet; None when some
    coloring of them all passes.  Color sets per vertex, w's neighbours as
    per-color sets, and ``naive_first_clique`` for the K_b check."""
    colors_x = [{c for c in range(len(rows_by_color) + 2) if (s >> c) & 1} for s in seen]
    tries = 0

    def visit(i, nbrs, in_play):
        nonlocal tries
        if i == len(others):
            return True
        x = others[i]
        for c in range(1, min(in_play + 1, palette_cap) + 1):
            tries += 1
            at_w = {d for d, ys in nbrs.items() if ys}
            if local_bound is not None and (
                c not in colors_x[x] and len(colors_x[x]) >= local_bound
                or c not in at_w and len(at_w) >= local_bound
            ):
                continue
            if c <= used:
                rows = rows_by_color[c - 1]
                common = sum(1 << y for y in nbrs.get(c, ()) if (rows[x] >> y) & 1)
                if common and naive_first_clique(rows, common, b - 2) is not None:
                    continue
            if visit(i + 1, {**nbrs, c: nbrs.get(c, set()) | {x}}, max(in_play, c)):
                return True
        return False

    return None if visit(0, {}, used) else tries


def naive_ordering_satisfies(coloring, x, clique, most_freq):
    """``alpha._ordering_satisfies`` by trying every ordering (x, v_2, ..)
    of ``clique``: the first edge's color is not ``most_freq``, and each
    later vertex's pairs back have two colors, each read by ``color_of``."""
    for perm in itertools.permutations([v for v in clique if v != x]):
        seq = (x,) + perm
        if coloring.color_of(x, seq[1]) != most_freq and all(
            len({coloring.color_of(seq[i], seq[j]) for j in range(i)}) >= 2
            for i in range(2, len(seq))
        ):
            return True
    return False


def naive_chained_tries(before, others, rows_by_color, seen, used, palette_cap, local_bound, b):
    """Colors tried by a depth-first visit to the edges (x, v) for x in
    ``before[1]``, v being ``before[0]``, then (x, w) for x in ``others``,
    w being ``len(seen) - 1``; neither v nor w has a colored edge yet.  None
    when some coloring of them all passes.  Color sets and per-color
    neighbour sets per vertex, and ``naive_first_clique`` for the K_b
    check."""
    v, others_v = before
    n = len(seen)
    w = n - 1
    edges = [(x, v) for x in others_v] + [(x, w) for x in others]
    colors = [{c for c in range(1, used + 1) if (s >> c) & 1} for s in seen]
    nbrs = collections.defaultdict(lambda: [set() for _ in range(n)])
    for c, rows in enumerate(rows_by_color, 1):
        for x, y in itertools.combinations(range(n), 2):
            if (rows[x] >> y) & 1:
                nbrs[c][x].add(y)
                nbrs[c][y].add(x)
    tries = 0

    def visit(i, in_play):
        nonlocal tries
        if i == len(edges):
            return True
        x, y = edges[i]
        for c in range(1, min(in_play + 1, palette_cap) + 1):
            tries += 1
            if local_bound is not None and any(
                c not in colors[z] and len(colors[z]) >= local_bound for z in (x, y)
            ):
                continue
            adj = nbrs[c]
            common = sum(1 << z for z in adj[x] & adj[y])
            rows = [sum(1 << z for z in adj[u]) for u in range(n)]
            if common and naive_first_clique(rows, common, b - 2) is not None:
                continue
            new = [z for z in (x, y) if c not in colors[z]]
            for z in new:
                colors[z].add(c)
            adj[x].add(y)
            adj[y].add(x)
            found = visit(i + 1, max(in_play, c))
            adj[x].discard(y)
            adj[y].discard(x)
            for z in new:
                colors[z].discard(c)
            if found:
                return True
        return False

    return None if visit(0, used) else tries


def reference_exponent_lower(s: int, t: int) -> tuple:
    """(value, regime, trace) of the lower exponent by direct recursion on
    a(t), one Python frame per color count."""
    ensure_recursion_depth(t)
    table, g_table = default_table(), default_g_table()
    memo: dict[int, tuple] = {}
    trace: list[tuple] = []

    def a(tt: int):
        if tt < 0:
            raise UnresolvedRamseyError(f"recursion reached negative color count t={tt}")
        if tt in memo:
            return memo[tt][0]
        if table.r_le(tt, 3, s):
            val, regime = Fraction(1), SATURATED
        elif table.r_le(tt - 1, 3, s):
            val, regime = Fraction(1, 2), HALF
        elif s >= 3 and table.r_le(tt - 2, 3, s):
            half_up = (s + 1) // 2
            val, regime = Fraction(s + half_up - 3, 2 * s + 2 * half_up - 5), LAY3
        else:
            inv = Fraction(1)
            for i in range(2, s + 1):
                gi = g_table.value(i)
                trace.append(("g", i, gi))
                inv += Fraction(1, s - 1) / a(tt - gi)
            val, regime = 1 / inv, RECURSIVE
        memo[tt] = (val, regime)
        trace.append(("a", tt, str(val), regime))
        return val

    return a(t), memo[t][1], tuple(trace)
