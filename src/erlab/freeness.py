"""Multicolor freeness: monochromatic-clique detection, exhaustive search for
clique-free colorings with symmetry breaking, and small Ramsey / local-Ramsey
oracles.

Colors are 1-based.  Search outcomes are a tri-state (found / none /
inconclusive); a budget overrun is never reported as "none exists".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graphs import EdgeColoring, Graph, GraphError, coloring_covers, first_clique

FOUND = "found"
NONE = "none"
INCONCLUSIVE = "inconclusive"

VERIFIED = "verified-exhaustively"
LITERATURE = "literature"
UNKNOWN = "unknown"


class UnresolvedRamseyError(LookupError):
    """A needed Ramsey comparison is not resolvable from the table."""

    def __init__(self, entry: str):
        self.entry = entry
        super().__init__(f"unresolved Ramsey entry: {entry}")


def find_mono_clique(graph: Graph, coloring: EdgeColoring, b: int):
    """First monochromatic b-clique in canonical order, or None.

    Canonical order: colors ascending, then lexicographic on the sorted
    clique.  The coloring must cover E(graph) exactly.
    """
    if b < 2:
        raise GraphError("forbidden clique order must be at least 2")
    problem = coloring_covers(graph, coloring)
    if problem is not None:
        kind, edge = problem
        raise GraphError(f"coloring does not match graph: {kind} edge {edge}")
    by_color: dict[int, list[int]] = {}
    for (u, v), c in coloring.colors.items():
        rows = by_color.setdefault(c, [0] * graph.n)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for c in sorted(by_color):
        clique = first_clique(by_color[c], (1 << graph.n) - 1, b)
        if clique is not None:
            return (c, clique)
    return None


@dataclass
class SearchResult:
    status: str  # found | none | inconclusive
    coloring: EdgeColoring | None
    nodes: int
    transcript: dict


def _edge_order(graph: Graph) -> list[tuple[int, int]]:
    # vertex-by-vertex completion with a degree-based vertex order, so each
    # prefix induces a colored subgraph on an initial vertex segment
    verts = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    pos = {v: i for i, v in enumerate(verts)}
    edges = graph.edges()
    edges.sort(key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))
    return edges


def _check_search_parameters(t: int | None, b: int, local_bound: int | None) -> None:
    if b < 3:
        raise GraphError("forbidden clique order must be at least 3")
    if t is not None and t < 1:
        raise GraphError("number of colors must be at least 1")
    if local_bound is not None and local_bound < 0:
        raise GraphError("local bound must be non-negative")


def search_free_coloring(
    graph: Graph,
    t: int | None,
    b: int,
    local_bound: int | None = None,
    node_budget: int | None = None,
    time_budget_ms: int | None = None,
) -> SearchResult:
    """Exhaustive backtracking search for a t-coloring of E(graph) with no
    monochromatic K_b; with ``local_bound`` set, each vertex may see at most
    that many distinct colors and the palette is capped at |E| (WLOG, since
    each edge introduces at most one new color).

    Symmetry breaking: the first edge is fixed to color 1 and new colors are
    introduced in increasing order.  Deterministic.

    Every color tried is a node.  The search stops as inconclusive on
    entering a depth with ``nodes >= node_budget``, on trying a color past
    it, or on reading a clock past the deadline, which it does every 1024 nodes.
    """
    _check_search_parameters(t, b, local_bound)
    edges = _edge_order(graph)
    n_edges = len(edges)
    palette_cap = t if local_bound is None else max(n_edges, 1)

    if n_edges == 0:
        return SearchResult(FOUND, EdgeColoring(t or 1, {}), 0, {"edges": 0})
    if local_bound == 0:
        # an edge must receive a color, so its endpoints see one color each
        return SearchResult(NONE, None, 0, {"edges": n_edges, "reason": "zero local bound"})

    steps = [(u, v, 1 << u, 1 << v) for u, v in edges]
    rows_by_color: list[list[int]] = []
    seen = [0] * graph.n  # per vertex, bit c is set when an edge of color c meets it
    # per depth: (its color, colors in play on entry, seen[u] and seen[v] before)
    undo: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * n_edges
    # more nodes than any search visits stand in for no budget and no clock
    unbounded = 1 << 62
    budget = node_budget if node_budget is not None else unbounded
    next_check = unbounded
    if time_budget_ms is not None:
        import time

        deadline = time.monotonic() + time_budget_ms / 1000.0
        next_check = 1024

    nodes = 0
    status = INCONCLUSIVE if budget <= 0 else None
    idx = 0
    c = 0
    used = 0
    while status is None:
        u, v, bu, bv = steps[idx]
        su = seen[u]
        sv = seen[v]
        top = used + 1 if used < palette_cap else palette_cap
        while c < top:
            c += 1
            nodes += 1
            if nodes > budget:
                status = INCONCLUSIVE
                break
            if nodes >= next_check:
                next_check += 1024
                if time.monotonic() > deadline:
                    status = INCONCLUSIVE
                    break
            bit = 1 << c
            if local_bound:  # None, or at least 1 after the return above
                if not su & bit and su.bit_count() >= local_bound:
                    continue
                if not sv & bit and sv.bit_count() >= local_bound:
                    continue
            if c <= used:
                rows = rows_by_color[c - 1]
                common = rows[u] & rows[v]
                if common and (b == 3 or first_clique(rows, common, b - 2) is not None):
                    continue
            else:
                rows = [0] * graph.n
                rows_by_color.append(rows)
            break
        else:
            # no color fits at this depth: take back the one before it
            if idx == 0:
                status = NONE
                break
            idx -= 1
            u, v, bu, bv = steps[idx]
            c, used, seen[u], seen[v] = undo[idx]
            rows = rows_by_color[c - 1]
            rows[u] &= ~bv
            rows[v] &= ~bu
            if c > used:
                rows_by_color.pop()
            continue
        if status:
            break
        rows[u] |= bv
        rows[v] |= bu
        seen[u] = su | bit
        seen[v] = sv | bit
        undo[idx] = (c, used, su, sv)
        idx += 1
        if idx == n_edges:
            status = FOUND
        elif nodes >= budget:
            status = INCONCLUSIVE
        used = len(rows_by_color)
        c = 0

    transcript = {
        "edges": n_edges,
        "nodes": nodes,
        "palette_cap": palette_cap,
        "local_bound": local_bound,
        "b": b,
        "t": t,
    }
    if status != FOUND:
        return SearchResult(status, None, nodes, transcript)
    assignment = [step[0] for step in undo]
    coloring = EdgeColoring(t if t is not None else max(assignment), dict(zip(edges, assignment)))
    # round-trip soundness: a returned witness is always re-checked
    assert find_mono_clique(graph, coloring, b) is None
    if local_bound is not None:
        assert all(cs.bit_count() <= local_bound for cs in seen)
    return SearchResult(FOUND, coloring, nodes, transcript)


@dataclass
class RamseyEntry:
    value: int | None
    status: str
    lower_bound: int | None = None  # best n known to admit a valid coloring, plus one
    witness: EdgeColoring | None = None
    witness_n: int | None = None
    transcript: dict = field(default_factory=dict)

    def resolve_greater(self, s: int):
        """Is the entry's value > s?  None when unresolvable."""
        if self.value is not None:
            return self.value > s
        if self.lower_bound is not None and self.lower_bound > s:
            return True
        return None


@dataclass
class RamseyTable:
    """Small multicolor and local Ramsey values with per-entry provenance."""

    entries: dict[tuple[int, int], RamseyEntry] = field(default_factory=dict)
    local_entries: dict[int, RamseyEntry] = field(default_factory=dict)

    def multicolor(self, t: int, b: int) -> RamseyEntry | None:
        return self.entries.get((t, b))

    def r_le(self, t: int, b: int, s: int) -> bool:
        """Resolve r_t(b) <= s, using monotonicity in t for the False side."""
        entry = self.entries.get((t, b))
        if entry is not None and entry.value is not None:
            return entry.value <= s
        if entry is not None and entry.lower_bound is not None and entry.lower_bound > s:
            return False
        # r_t(b) is non-decreasing in t: any smaller-t entry exceeding s resolves False
        for tt in range(t, 0, -1):
            prev = self.entries.get((tt, b))
            if prev is None:
                continue
            bound = prev.value if prev.value is not None else prev.lower_bound
            if bound is not None and bound > s:
                return False
        raise UnresolvedRamseyError(f"r_{t}({b}) vs {s}")

    def min_ell(self, b: int, s: int, t: int) -> int | None:
        """Minimum ell <= t+1 with r_ell(b) > s, or None if there is none."""
        for ell in range(1, t + 2):
            if not self.r_le(ell, b, s):
                return ell
        return None

    def local_greater(self, k: int, i: int) -> bool:
        entry = self.local_entries.get(k)
        if entry is not None:
            got = entry.resolve_greater(i)
            if got is not None:
                return got
        # monotone in k: a larger-k entry cannot help, a smaller-k one can
        # only resolve the False side
        for kk in range(k, -1, -1):
            prev = self.local_entries.get(kk)
            if prev is not None and prev.value is not None and prev.value > i:
                return True
        raise UnresolvedRamseyError(f"r_loc_{k}(3) vs {i}")


def greenwood_gleason_coloring() -> EdgeColoring:
    """The classical 3-coloring of K_16 with no monochromatic triangle.

    Vertices are the 16 elements of GF(16); the color of {x,y} is the cubic
    class of x+y (discrete log mod 3 w.r.t. a primitive root).  Verified by
    ``find_mono_clique`` wherever it is consumed.
    """
    # GF(2^4) with modulus x^4 + x + 1; elements as 4-bit ints
    log = {}
    elem = 1
    for e in range(15):
        log[elem] = e
        elem <<= 1
        if elem & 0b10000:
            elem ^= 0b10011
    colors = {}
    for u, v in itertools.combinations(range(16), 2):
        colors[(u, v)] = log[u ^ v] % 3 + 1
    return EdgeColoring(3, colors)


def double_c5_coloring() -> EdgeColoring:
    """2-coloring of K_5 into two edge-disjoint 5-cycles (no mono triangle)."""
    colors = {}
    for i in range(5):
        colors[(i, (i + 1) % 5)] = 1
        colors[(i, (i + 2) % 5)] = 2
    return EdgeColoring(2, colors)


def default_table() -> RamseyTable:
    """The shipped table of small values.

    r_0(3)=2 is a convention: with zero colors, K_2 admits no edge-coloring
    at all, so the defining condition holds vacuously from n=2 on (this is
    also what makes the exponent recursion total at index 0).  The same
    reading gives the local value r^loc_0(3)=2.  r_3(3)=17 carries
    literature status; its lower bound 17 is backed by the shipped 16-vertex
    witness, replayed in the verification suite.
    """
    k16 = greenwood_gleason_coloring()
    k5 = double_c5_coloring()
    entries = {
        (0, 3): RamseyEntry(2, VERIFIED, transcript={"note": "no 0-coloring of an edge exists"}),
        (1, 3): RamseyEntry(3, VERIFIED),
        (2, 3): RamseyEntry(6, VERIFIED, witness=k5, witness_n=5),
        (3, 3): RamseyEntry(17, LITERATURE, lower_bound=17, witness=k16, witness_n=16),
        (1, 4): RamseyEntry(4, VERIFIED),
        (2, 4): RamseyEntry(18, LITERATURE),
        (1, 5): RamseyEntry(5, VERIFIED),
        (2, 5): RamseyEntry(None, UNKNOWN, lower_bound=43),
    }
    for b in range(6, 12):
        entries[(1, b)] = RamseyEntry(b, VERIFIED)
    local = {
        0: RamseyEntry(2, VERIFIED, transcript={"note": "an edge forces one color per endpoint"}),
        1: RamseyEntry(3, VERIFIED),
        2: RamseyEntry(6, VERIFIED, witness=k5, witness_n=5),
        3: RamseyEntry(None, UNKNOWN, lower_bound=17, witness=k16, witness_n=16),
    }
    return RamseyTable(entries, local)


def ramsey_oracle(
    kind: str,
    parameter,
    n_max: int,
    node_budget: int | None = None,
    time_budget_ms: int | None = None,
) -> RamseyEntry:
    """Exhaustive sweep n = 2..n_max deciding a small Ramsey value.

    kind="multicolor": parameter is (t, b); kind="local": parameter is k
    (forbidden clique fixed at K_3).  Returns the threshold with status
    verified-exhaustively, or a lower bound with status unknown when
    colorings still exist at n_max.  The sweep continues past the threshold
    to n_max, asserting monotonicity (no coloring reappears).  A budget
    overrun yields status inconclusive at the offending n.  Parameters the
    search rejects raise ``GraphError`` before the sweep, whatever n_max.
    """
    if kind == "multicolor":
        t, b = parameter
        local_bound = None
    elif kind == "local":
        t, b = None, 3
        local_bound = int(parameter)
    else:
        raise ValueError(f"unknown oracle kind: {kind}")
    _check_search_parameters(t, b, local_bound)

    threshold = None
    witness = None
    witness_n = None
    per_n = {}
    for n in range(2, n_max + 1):
        res = search_free_coloring(Graph.complete(n), t, b, local_bound,
                                   node_budget, time_budget_ms)
        per_n[n] = {"status": res.status, "nodes": res.nodes}
        if res.status == INCONCLUSIVE:
            return RamseyEntry(
                None,
                INCONCLUSIVE,
                lower_bound=(witness_n + 1) if witness_n else None,
                witness=witness,
                witness_n=witness_n,
                transcript={"kind": kind, "parameter": parameter, "per_n": per_n,
                            "inconclusive_at": n},
            )
        if res.status == FOUND:
            if threshold is not None:
                raise AssertionError(
                    f"monotonicity violated: coloring exists at n={n} but not at n={threshold}"
                )
            witness, witness_n = res.coloring, n
        elif threshold is None:
            threshold = n
    transcript = {"kind": kind, "parameter": parameter, "per_n": per_n, "n_max": n_max}
    if threshold is not None:
        return RamseyEntry(threshold, VERIFIED, witness=witness, witness_n=witness_n,
                           transcript=transcript)
    return RamseyEntry(None, UNKNOWN, lower_bound=n_max + 1, witness=witness,
                       witness_n=witness_n, transcript=transcript)


_PATTERN_CACHE: dict[tuple[int, int, int], EdgeColoring] = {}


class UnsupportedParametersError(ValueError):
    pass


def mono_free_pattern(s: int, b: int, ell: int) -> EdgeColoring:
    """An ell-coloring of K_s with no monochromatic K_b.

    Exists exactly when r_ell(b) > s.  The classical double-5-cycle pattern
    is pinned for (s,b,ell) = (5,3,2); everything else is found by the
    exhaustive search and cached.
    """
    key = (s, b, ell)
    if key in _PATTERN_CACHE:
        return _PATTERN_CACHE[key]
    if key == (5, 3, 2):
        pattern = double_c5_coloring()
    else:
        res = search_free_coloring(Graph.complete(s), ell, b)
        if res.status != FOUND:
            raise UnsupportedParametersError(
                f"no monochromatic-K_{b}-free {ell}-coloring of K_{s} ({res.status})"
            )
        pattern = res.coloring
    assert find_mono_clique(Graph.complete(s), pattern, b) is None
    _PATTERN_CACHE[key] = pattern
    return pattern
