"""Multicolor freeness: monochromatic-clique detection, exhaustive search for
clique-free colorings with symmetry breaking, and small Ramsey / local-Ramsey
oracles.

Colors are 1-based.  Search outcomes are a tri-state (found / none /
inconclusive); a budget overrun is never reported as "none exists".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .graphs import EdgeColoring, Graph, GraphError, coloring_covers, first_clique
from .util import iter_bits

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
    """First monochromatic b-clique in canonical order, as (color, clique),
    or None.

    Canonical order: colors ascending, then lexicographic on the sorted
    clique.  The coloring must cover E(graph) exactly, else GraphError
    names ``coloring_covers``'s witness.
    """
    if b < 2:
        raise GraphError("forbidden clique order must be at least 2")
    mismatch = coloring_covers(graph, coloring)
    if mismatch is not None:
        kind, edge = mismatch
        raise GraphError(f"coloring does not match graph: {kind} edge {edge}")
    n = graph.n
    for c, rows in sorted(coloring.rows.items()):
        # rows beyond n are empty, and rows short of n leave the rest isolated
        clique = first_clique(rows, (1 << min(n, len(rows))) - 1, b)
        if clique is not None:
            return (c, clique)
    return None


@dataclass
class SearchResult:
    status: str  # found | none | inconclusive
    coloring: EdgeColoring | None
    nodes: int


def _edge_order(graph: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The search's edge order and its last two blocks, the last first, as
    (vertex w, index where w's edges start).

    Vertex-by-vertex completion with a degree-based vertex order, so each
    prefix induces a colored subgraph on an initial vertex segment; a
    vertex's block is its edges to earlier vertices.  The search counts
    visits to these two blocks in bulk: on the K_11 sweeps a third gains
    nothing, and four or more are 4 to 20 times slower, as deeper visits
    more often end in a coloring, whose bulk count is thrown away.
    """
    verts = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    pos = {v: i for i, v in enumerate(verts)}
    edges = graph.edges()
    edges.sort(key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))
    blocks: list[tuple[int, int]] = []
    end = len(edges)
    while end and len(blocks) < 2:
        w = max(edges[end - 1], key=pos.__getitem__)
        end -= sum(pos[x] < pos[w] for x in iter_bits(graph.row(w)))
        blocks.append((w, end))
    return edges, blocks


class _LastVertexFrontier:
    """The breadth-first count of visits to a vertex w's edges, which run to
    the end of the edge order or, chained, on into the next frontier's, kept
    between the visits of one search.

    ``count`` returns the colors a failing visit tries; None once the count
    reaches ``limit``, or when some state survives the last edge (a complete
    coloring exists).  ``others[i]`` is the other end x of the visit's i-th
    edge.  The check on (x, w) reads x's color rows and colors, which the
    visit leaves alone, and w's colored neighbours so far.  So a state is
    just those neighbours, color c's packed at bits (c-1)*n .. c*n-1, and
    each position's states are grouped by (colors at w, colors in play),
    which fix the local check and the number of colors tried.

    The states entering position i depend only on the colors in play at the
    visit and, for each earlier position j, x_j's rows among the others
    before it (with rows symmetric, these hold every row a K_b check reads)
    and, under a local bound, x_j's colors.  The frontier keeps those inputs,
    the layer entering each position and the colors tried before it, and a
    visit recounts only from the first position whose inputs changed.
    ``expanded`` counts the states of the layers it has counted from.

    Chained, it hands each state that passes w's last edge to ``next``,
    whose count of the visit then following is added in.  That count reads
    inputs beyond this frontier's keys, so a chained frontier recounts its
    last position on every visit.
    """

    def __init__(self, others: list[int], palette_cap: int, local_bound: int | None,
                 b: int, n: int):
        self.others = others
        self.palette_cap = palette_cap
        self.local_bound = local_bound
        self.b = b
        self.n = n
        self.prefix = [0]  # prefix[i]: the bits of others[:i]
        for x in others[:-1]:
            self.prefix.append(self.prefix[-1] | 1 << x)
        self.used = None
        self.keys: list[tuple[list[int], int]] = []  # keys[i]: position i's inputs
        self.layers: list[dict[tuple[int, int], list[int]]] = [{}]  # entering each position
        self.tries = [0]  # the colors tried before each position
        self.expanded = 0
        # when chained: w, and the frontier of the edges just after w's
        self.vertex = -1
        self.next: _LastVertexFrontier | None = None

    def _leaf(self, state: int, sw: int, in_play: int, rows_by_color: list[list[int]],
              seen: list[int], limit: int) -> int | None:
        """The next frontier's count with w's edges colored as ``state``, w's
        colors ``sw`` and ``in_play`` colors in play; the rows and colors are
        left as they were.  w has no colored edge before the visit."""
        w, n, others = self.vertex, self.n, self.others
        bw = 1 << w
        fresh = in_play - len(rows_by_color)
        rows_by_color.extend([0] * n for _ in range(fresh))
        saved = [seen[x] for x in others]
        full = (1 << n) - 1
        for c, rows in enumerate(rows_by_color, 1):
            rows[w] = state >> (c - 1) * n & full
            for x in iter_bits(rows[w]):
                rows[x] |= bw
                seen[x] |= 1 << c
        seen[w] = sw
        tries = self.next.count(rows_by_color, seen, in_play, limit)
        for rows in rows_by_color:
            for x in iter_bits(rows[w]):
                rows[x] ^= bw
            rows[w] = 0
        for x, sx in zip(others, saved):
            seen[x] = sx
        seen[w] = 0
        del rows_by_color[len(rows_by_color) - fresh:]
        return tries

    def count(self, rows_by_color: list[list[int]], seen: list[int], used: int,
              limit: int) -> int | None:
        others, layers, tries_at = self.others, self.layers, self.tries
        palette_cap, local_bound, b, n = self.palette_cap, self.local_bound, self.b, self.n
        keys = [([rows[x] & pre for rows in rows_by_color],
                 seen[x] if local_bound is not None else 0)
                for x, pre in zip(others, self.prefix)]
        final = len(others) - 1
        # a chained count's last position reads more than its keys
        reuse = final if self.next else final + 1
        i = 0
        if used == self.used:
            while i < len(layers) - 1 and i < reuse and keys[i] == self.keys[i]:
                i += 1
        else:  # every layer holds the colors in play
            self.used = used
            layers[0] = {(0, used): [0]}
        self.keys = keys
        del layers[i + 1:], tries_at[i + 1:]
        tries = tries_at[i]
        if tries >= limit:
            return None
        layer = layers[i]
        while layer:
            x = others[i]
            rows_x, sx = keys[i]
            x_full = local_bound is not None and sx.bit_count() >= local_bound
            self.expanded += sum(map(len, layer.values()))
            after: dict[tuple[int, int], list[int]] = {}
            for (sw, in_play), states in layer.items():
                top = in_play + 1 if in_play < palette_cap else palette_cap
                tries += len(states) * top
                if tries >= limit:
                    return None
                w_full = local_bound is not None and sw.bit_count() >= local_bound
                for c in range(1, top + 1):
                    bit = 1 << c
                    if x_full and not sx & bit or w_full and not sw & bit:
                        continue
                    off = (c - 1) * n
                    kids = states
                    # colors new since the visit began have no rows at x
                    if c <= used and rows_x[c - 1]:
                        mask = rows_x[c - 1] << off
                        if b == 3:
                            kids = [s for s in states if not s & mask]
                        else:
                            rows = rows_by_color[c - 1]
                            kids = [s for s in states if not s & mask
                                    or first_clique(rows, (s & mask) >> off, b - 2) is None]
                        if not kids:
                            continue
                    add = 1 << (x + off)
                    group = (sw | bit, c if c > in_play else in_play)
                    if i < final:
                        after.setdefault(group, []).extend([s | add for s in kids])
                        continue
                    if self.next is None:
                        return None
                    for s in kids:
                        leaf = self._leaf(s | add, *group, rows_by_color, seen, limit - tries)
                        if leaf is None:
                            return None
                        tries += leaf
            layers.append(after)
            tries_at.append(tries)
            layer = after
            i += 1
        return tries


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

    Nearly all nodes of a large search lie on the edges of the last two
    vertices, which end the order (over 99% on K_11).  Each fresh visit to
    either vertex's edges is first expanded breadth-first, counting exactly
    the colors the loop would try there, and each coloring of the earlier
    vertex's edges that passes is handed on to the count of the visit to
    the last vertex's edges that follows it.  The expansions are kept
    between visits and recounted from the first edge whose inputs changed.
    When no coloring of a visit's edges passes, the search adds its count
    to its nodes, reading the clock at each multiple of 1024 it passes, and
    backtracks.  The loop runs the visit itself when a coloring passes, so
    the witness is the loop's, or when the count would reach
    ``node_budget``.  Nodes, witnesses and the budget and clock stops are
    thus the loop's alone, node for node.
    """
    _check_search_parameters(t, b, local_bound)
    edges, blocks = _edge_order(graph)
    n_edges = len(edges)
    palette_cap = t if local_bound is None else max(n_edges, 1)

    if n_edges == 0:
        return SearchResult(FOUND, EdgeColoring(t or 1, {}), 0)
    if local_bound == 0:
        # an edge must receive a color, so its endpoints see one color each
        return SearchResult(NONE, None, 0)

    steps = [(u, v, 1 << u, 1 << v) for u, v in edges]
    # per depth, the frontier that counts a fresh visit from it in bulk
    bulk: list[_LastVertexFrontier | None] = [None] * n_edges
    stop, after = n_edges, None
    for w, start in blocks:  # the last block first
        frontier = _LastVertexFrontier([u if v == w else v for u, v in edges[start:stop]],
                                       palette_cap, local_bound, b, graph.n)
        if after is not None:
            frontier.vertex, frontier.next = w, after
        bulk[start] = after = frontier
        stop = start
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
        if not c and bulk[idx] is not None:
            # a fresh visit to one of the last two vertices' edges: count it
            # in bulk if it fails before the budget
            tries = bulk[idx].count(rows_by_color, seen, used, budget - nodes)
            if tries is not None:
                # read the clock at each multiple of 1024 the count passes
                end = nodes + tries
                while next_check <= end:
                    nodes = next_check
                    next_check += 1024
                    if time.monotonic() > deadline:
                        status = INCONCLUSIVE
                        break
                else:
                    nodes = end
                    c = top  # every color has been tried here: backtrack
                if status:
                    break
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

    if status != FOUND:
        return SearchResult(status, None, nodes)
    coloring = EdgeColoring.from_rows(t if t is not None else len(rows_by_color),
                                      dict(enumerate(rows_by_color, 1)))
    # round-trip soundness: a returned witness is always re-checked
    assert find_mono_clique(graph, coloring, b) is None
    if local_bound is not None:
        assert all(cs.bit_count() <= local_bound for cs in seen)
    return SearchResult(FOUND, coloring, nodes)


@dataclass
class RamseyEntry:
    value: int | None
    status: str
    lower_bound: int | None = None  # best n known to admit a valid coloring, plus one
    witness: EdgeColoring | None = None
    witness_n: int | None = None
    transcript: dict = field(default_factory=dict)


def _exceeds(entries: dict, key, index: int, s: int, name: str) -> bool:
    """Does the value at ``index`` exceed s?  ``key(j)`` is index j's key in
    ``entries``.  Values do not decrease with the index, so when the entry's
    own value is unknown, any value or lower bound above s at an index up to
    ``index`` answers True; UnresolvedRamseyError(name) otherwise."""
    entry = entries.get(key(index))
    if entry is not None and entry.value is not None:
        return entry.value > s
    for j in range(index, -1, -1):
        prev = entries.get(key(j))
        if prev is not None:
            bound = prev.value if prev.value is not None else prev.lower_bound
            if bound is not None and bound > s:
                return True
    raise UnresolvedRamseyError(name)


@dataclass
class RamseyTable:
    """Small multicolor and local Ramsey values with per-entry provenance."""

    entries: dict[tuple[int, int], RamseyEntry] = field(default_factory=dict)
    local_entries: dict[int, RamseyEntry] = field(default_factory=dict)

    def multicolor(self, t: int, b: int) -> RamseyEntry | None:
        return self.entries.get((t, b))

    def r_le(self, t: int, b: int, s: int) -> bool:
        """Resolve r_t(b) <= s."""
        return not _exceeds(self.entries, lambda tt: (tt, b), t, s, f"r_{t}({b}) vs {s}")

    def min_ell(self, b: int, s: int, t: int) -> int | None:
        """Minimum ell <= t+1 with r_ell(b) > s, or None if there is none."""
        for ell in range(1, t + 2):
            if not self.r_le(ell, b, s):
                return ell
        return None

    def local_greater(self, k: int, i: int) -> bool:
        """Resolve r^loc_k(3) > i."""
        return _exceeds(self.local_entries, lambda kk: kk, k, i, f"r_loc_{k}(3) vs {i}")


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


class EmptySweepError(GraphError):
    """``ramsey_oracle`` was asked for an n_max below 2, which leaves its
    sweep empty."""


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
    search rejects raise ``GraphError`` before the sweep, whatever n_max;
    then an n_max below 2 raises its subclass ``EmptySweepError``.
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
    if n_max < 2:
        raise EmptySweepError(f"n_max must be at least 2, got {n_max}")

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


class UnsupportedParametersError(ValueError):
    pass


@functools.cache
def mono_free_pattern(s: int, b: int, ell: int) -> EdgeColoring:
    """An ell-coloring of K_s with no monochromatic K_b.

    Exists exactly when r_ell(b) > s.  The classical double-5-cycle pattern
    is pinned for (s,b,ell) = (5,3,2); everything else is found by the
    exhaustive search.  Memoised: a repeated call returns the same object.
    """
    if (s, b, ell) == (5, 3, 2):
        pattern = double_c5_coloring()
    else:
        res = search_free_coloring(Graph.complete(s), ell, b)
        if res.status != FOUND:
            raise UnsupportedParametersError(
                f"no monochromatic-K_{b}-free {ell}-coloring of K_{s} ({res.status})"
            )
        pattern = res.coloring
    assert find_mono_clique(Graph.complete(s), pattern, b) is None
    return pattern
