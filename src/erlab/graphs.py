"""Graph and hypergraph types plus the structural predicates everything else certifies against.

Vertices are dense 0-based integers.  Graphs are immutable after
construction and keep adjacency as one packed bit row (a Python int) per
vertex; ``util.iter_bits`` lists a row's neighbours in ascending order.
All enumeration is canonical (lexicographic on sorted vertex ids) so
witnesses and tests are deterministic.

An ``EdgeColoring`` keeps its colors only as per-color adjacency bit rows,
``rows``, whether it was built from (pair, color) items or by
``EdgeColoring.from_rows``, as a construction builds its coloring.  The
rows answer the coverage (``coloring_covers``) and color-class queries; the
map ``colors`` is a view derived from them on its first read, for
``color_of``'s single-pair lookups.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .util import iter_bits


class GraphError(ValueError):
    pass


class BudgetError(RuntimeError):
    """A configured enumeration cap was exceeded."""


class MalformedHypergraphError(GraphError):
    """An edge has the wrong size or a repeated vertex; carries the edge index."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"edge {index}: {message}")


class NonLinearError(GraphError):
    """Two hyperedges share more than one vertex; carries the violating pair."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"hyperedges {pair[0]} and {pair[1]} share more than one vertex")


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_rows", "m")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        rows = [0] * n
        m = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if not (rows[u] >> v) & 1:
                m += 1
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        self._rows = rows
        self.m = m

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, itertools.combinations(range(n), 2))

    @classmethod
    def from_rows(cls, rows: list[int]) -> "Graph":
        """Build from adjacency bit rows; rows must be symmetric and irreflexive."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g._rows = list(rows)
        g.m = sum(r.bit_count() for r in rows) // 2
        return g

    def row(self, u: int) -> int:
        """Adjacency of u as a bitmask."""
        return self._rows[u]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self._rows[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Each edge (u, v), u < v, in ascending order."""
        out = []
        for u in range(self.n):
            for off in iter_bits(self._rows[u] >> (u + 1)):
                out.append((u, u + 1 + off))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def induced(self, vertices) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``vertices``; returns (graph, old-id list).

        New vertex i corresponds to the i-th smallest old id.
        """
        keep = sorted(set(vertices))
        if keep == list(range(self.n)):
            return Graph.from_rows(self._rows), keep
        index = {v: i for i, v in enumerate(keep)}
        keep_mask = sum(1 << v for v in keep)
        rows = [sum(1 << index[w] for w in iter_bits(self._rows[v] & keep_mask)) for v in keep]
        return Graph.from_rows(rows), keep

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class LinearHypergraph:
    """R-uniform edge family on ground set 0..n-1.

    Linearity and triangle-freeness are certified properties (see
    ``validate_hypergraph``), not construction-time invariants; edges are
    stored as sorted tuples exactly as provided.
    """

    n: int
    R: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, R: int, edges):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "edges", tuple(tuple(sorted(e)) for e in edges))

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CliqueCover:
    """For each ground vertex v, the clique K_v of incidence-graph vertices through v."""

    n_ground: int
    cliques: dict[int, tuple[int, ...]]

    def member_mask(self, v: int) -> int:
        m = 0
        for u in self.cliques.get(v, ()):
            m |= 1 << u
        return m


# most bytes the adjacency bit rows that no header bounds may take: a graph
# file's, a coloring's and a structure.json's part masks
MASK_BYTES_LIMIT = 1 << 24


def mask_bytes(pairs) -> int:
    """Bytes the adjacency bit rows of ``pairs`` take: ceil((t + 1) / 8) for
    each vertex, t its largest neighbour."""
    top: dict[int, int] = {}
    for u, v in pairs:
        if top.get(u, -1) < v:
            top[u] = v
        if top.get(v, -1) < u:
            top[v] = u
    return sum(t // 8 + 1 for t in top.values())


@dataclass(frozen=True)
class EdgeColoring:
    """Map from edges (sorted pairs) to colors in 1..t.

    A coloring keeps only ``rows``, {color: its adjacency bit rows over the
    same vertices}, and derives ``colors`` from them on its first read.  Two
    colorings are equal iff they have the same ``t`` and ``colors``."""

    t: int
    colors: dict[tuple[int, int], int]

    def __init__(self, t: int, colors):
        """From (pair, color) items or a {pair: color} map, its rows over
        0..max vertex.  GraphError for a loop, a negative vertex, or rows
        whose masks and row slots would exceed ``MASK_BYTES_LIMIT`` bytes,
        before any row is built."""
        # a later entry for the same edge, in either order, wins
        items = colors.items() if isinstance(colors, dict) else colors
        norm = {e if e[0] < e[1] else (e[1], e[0]): c for e, c in items}
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "rows", coloring_rows([(u, v, c) for (u, v), c in norm.items()]))

    @classmethod
    def from_rows(cls, t: int, rows_by_color: dict[int, list[int]]) -> "EdgeColoring":
        """Keep ``rows_by_color``, {color: its adjacency bit rows over the
        same vertices}, as given: like ``Graph.from_rows``, the rows must be
        symmetric and irreflexive, and no pair may have two colors."""
        col = cls.__new__(cls)
        object.__setattr__(col, "t", t)
        object.__setattr__(col, "rows", dict(rows_by_color))
        return col

    def __getattr__(self, name):
        # runs only for a missing attribute: ``colors``, derived on its first
        # read and then kept
        if name != "colors":
            raise AttributeError(name)
        object.__setattr__(self, "colors", _colored_pairs(self.rows))
        return self.colors

    def color_of(self, u: int, v: int) -> int:
        return self.colors[(min(u, v), max(u, v))]

    def tally(self, x: int, ys) -> list[tuple[int, int]]:
        """(count, color) for each color on the pairs from x to the vertices
        ``ys``, most frequent first: by descending count, then ascending
        color.  A count is the popcount of the color's row at x within
        ``ys``; a y with no colored pair to x counts nowhere."""
        mask = functools.reduce(operator.or_, (1 << y for y in ys), 0)
        counts = [(k, c) for c, rows in self.rows.items()
                  if x < len(rows) and (k := (rows[x] & mask).bit_count())]
        return sorted(counts, key=lambda kc: (-kc[0], kc[1]))

    def induced(self, vertices) -> "EdgeColoring":
        """The coloring of the pairs within ``vertices``, renumbered as
        ``Graph.induced`` renumbers them: new vertex i is the i-th smallest
        old id.  A vertex beyond the rows has no colored pair."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        keep_mask = sum(1 << v for v in keep)
        out = {}
        for c, rows in self.rows.items():
            span = len(rows)
            sub = [sum(1 << index[w] for w in iter_bits(rows[v] & keep_mask)) if v < span else 0
                   for v in keep]
            if any(sub):
                out[c] = sub
        return EdgeColoring.from_rows(self.t, out)


def coloring_rows(triples) -> dict[int, list[int]]:
    """{color: its adjacency bit rows over 0..max vertex} of ``triples``,
    (u, v, color) in which each pair appears once, in either order.
    GraphError for a loop (the first in order), a negative vertex, or rows
    whose masks (as ``mask_bytes`` counts them) and row slots would exceed
    ``MASK_BYTES_LIMIT`` bytes, before any row is built."""
    top: dict[int, int] = {}  # each vertex's largest neighbour
    colors = set()
    loop = None
    for u, v, c in triples:
        if u == v and loop is None:
            loop = u
        if top.get(u, -1) < v:
            top[u] = v
        if top.get(v, -1) < u:
            top[v] = u
        colors.add(c)
    if loop is not None:
        raise GraphError(f"loop edge ({loop},{loop}) in coloring")
    if min(top, default=0) < 0:
        raise GraphError("coloring has a negative vertex")
    n = max(top, default=-1) + 1
    need = sum(t // 8 + 1 for t in top.values()) + 8 * n * len(colors)
    if need > MASK_BYTES_LIMIT:
        raise GraphError(
            f"coloring rows would take {need} bytes, above the limit {MASK_BYTES_LIMIT}"
        )
    rows_by_color: dict[int, list[int]] = {}
    for u, v, c in triples:
        rows = rows_by_color.get(c)
        if rows is None:
            rows = rows_by_color[c] = [0] * n
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows_by_color


def _colored_pairs(rows_by_color: dict[int, list[int]]) -> dict[tuple[int, int], int]:
    """Each edge (u, v), u < v, of the per-color rows with its color, by u
    ascending, then color, then v."""
    by_color = sorted(rows_by_color.items())
    colors = {}
    for u in range(max((len(rows) for _, rows in by_color), default=0)):
        for c, rows in by_color:
            if u < len(rows):
                for off in iter_bits(rows[u] >> (u + 1)):
                    colors[(u, u + 1 + off)] = c
    return colors


def coloring_covers(graph: Graph, coloring: EdgeColoring):
    """First edge of ``graph`` missing from ``coloring``, or else the first
    extra colored pair, in lexicographic order; None when they match.  Both
    are read from the union of the per-color rows, whose rows at or beyond
    ``graph.n`` are extra in full."""
    rows = graph._rows
    union = [0] * max([graph.n] + [len(r) for r in coloring.rows.values()])
    for color_rows in coloring.rows.values():
        union[:len(color_rows)] = [a | r for a, r in zip(union, color_rows)]
    missing = _first_pair(g & ~u for g, u in zip(rows, union))
    if missing is not None:
        return ("missing", missing)
    extra = _first_pair(u & ~g for u, g in itertools.zip_longest(union, rows, fillvalue=0))
    return None if extra is None else ("extra", extra)


def _cliques(rows: list[int], cand: int, need: int, prefix: tuple[int, ...]):
    """Every ``need``-clique inside ``cand`` (adjacency ``rows``), each
    extending ``prefix``, in lexicographic order; ``need`` is at least 1."""
    while cand.bit_count() >= need:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if need == 1:
            yield prefix + (v,)
        else:
            yield from _cliques(rows, cand & rows[v], need - 1, prefix + (v,))


# most K_s copies enumerate_cliques lists before it raises BudgetError
CLIQUE_CAP = 500_000


def enumerate_cliques(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-element vertex sets inducing a complete subgraph, in
    lexicographic order; BudgetError once ``CLIQUE_CAP`` + 1 of them are
    found, before any more."""
    if s < 2:
        raise GraphError("clique order must be at least 2")
    found = _cliques(graph._rows, graph.full_mask(), s, ())
    cliques = list(itertools.islice(found, CLIQUE_CAP + 1))
    if len(cliques) > CLIQUE_CAP:
        raise BudgetError(f"{len(cliques)} K_{s} copies exceed the cap {CLIQUE_CAP}")
    return cliques


def first_clique(rows: list[int], mask: int, s: int):
    """Lexicographically first s-clique inside ``mask`` (adjacency ``rows``),
    or None; ``()`` when ``s <= 0``."""
    if s <= 0:
        return ()
    return _first_clique(rows, mask, s)


def _first_clique(rows: list[int], cand: int, need: int):
    """``first_clique`` for ``need >= 1``, by direct depth-first search.

    Vertices of ``cand`` are tried in ascending order, and one whose
    candidate set ``cand & N(v)`` (above it) has fewer than ``need - 1``
    bits is skipped without a call.  The recursion stays on this private
    name, so a wrapper rebound over ``first_clique`` sees one call per
    query."""
    if need == 1:
        return ((cand & -cand).bit_length() - 1,) if cand else None
    rest = need - 1
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        sub = cand & rows[v]
        if sub.bit_count() >= rest:
            found = _first_clique(rows, sub, rest)
            if found is not None:
                return (v,) + found
    return None


@dataclass(frozen=True)
class HypergraphReport:
    linear: bool
    triangle_free: bool
    witness: tuple[int, ...] | None  # edge index pair (linearity) or triple (triangle)
    cover: CliqueCover  # each ground vertex's hyperedges, K_v
    incidence: Graph | None  # H's incidence graph when H is linear, else None


def check_hypergraph_shape(H: LinearHypergraph) -> None:
    """Raise MalformedHypergraphError for the first edge that is not R distinct
    vertices of 0..n-1."""
    for idx, e in enumerate(H.edges):
        if len(e) != H.R:
            raise MalformedHypergraphError(idx, f"has {len(e)} vertices, expected {H.R}")
        if len(set(e)) != len(e):
            raise MalformedHypergraphError(idx, "repeated vertex")
        if e and (e[0] < 0 or e[-1] >= H.n):
            raise MalformedHypergraphError(idx, f"vertex out of range for n={H.n}")


def _meets(cliques, n: int) -> tuple[list[int], list[int]]:
    """For each member 0..n-1 of the ``cliques`` (iterables of members), the
    bitmasks of the other members sharing at least one clique with it and of
    those sharing at least two, found in one pass over the cliques; a member
    repeated within one clique counts once."""
    once, twice = [0] * n, [0] * n
    for members in cliques:
        mask = 0
        for u in members:
            mask |= 1 << u
        for u in iter_bits(mask):
            rest = mask ^ (1 << u)
            twice[u] |= once[u] & rest
            once[u] |= rest
    return once, twice


def _first_pair(rows):
    """Lexicographically first pair i < j with bit j set in the i-th of
    ``rows`` (any iterable of bit rows), or None."""
    for i, row in enumerate(rows):
        high = row >> (i + 1)
        if high:
            return (i, i + (high & -high).bit_length())
    return None


def _edges_through(H: LinearHypergraph) -> CliqueCover:
    """The clique cover of H's incidence graph: for each ground vertex v, the
    indices of the hyperedges through v, in ascending order."""
    through: dict[int, list[int]] = {}
    for idx, e in enumerate(H.edges):
        for v in e:
            through.setdefault(v, []).append(idx)
    return CliqueCover(H.n, {v: tuple(members) for v, members in through.items()})


def validate_hypergraph(H: LinearHypergraph) -> HypergraphReport:
    """Certify linearity and hypergraph-triangle-freeness of H.

    A hypergraph triangle is three distinct edges pairwise intersecting in
    exactly one vertex with empty common intersection: a triangle of the
    graph of edges meeting in exactly one vertex that no K_v (the edges
    through ground vertex v) holds.  The witness is the first violation in
    lexicographic order on edge indices; linearity violations take
    precedence in the report's ``witness`` field.  The report also carries
    the cover and, for linear H, the incidence graph it checked.
    """
    check_hypergraph_shape(H)
    cover = _edges_through(H)
    once, twice = _meets(cover.cliques.values(), H.m)
    linear_witness = _first_pair(twice)
    single = Graph.from_rows([a & ~b for a, b in zip(once, twice)])
    triangle_witness = uncovered_clique(single, cover, 3)
    return HypergraphReport(
        linear=linear_witness is None,
        triangle_free=triangle_witness is None,
        witness=linear_witness or triangle_witness,
        cover=cover,
        incidence=single if linear_witness is None else None,
    )


def incidence_graph(H: LinearHypergraph) -> tuple[Graph, CliqueCover]:
    """Edge-vertex incidence graph of a certified-linear H, read from its
    ``validate_hypergraph`` report.

    Vertices are hyperedge indices, adjacent iff the hyperedges intersect;
    the cover maps each ground vertex v to the clique K_v of hyperedges
    through v.  Rejects malformed input with MalformedHypergraphError and
    non-linear input with the first violating pair.
    """
    report = validate_hypergraph(H)
    if report.incidence is None:
        raise NonLinearError(report.witness)
    return report.incidence, report.cover


def uncovered_clique(graph: Graph, cover: CliqueCover, b: int):
    """First b-clique of ``graph`` (lexicographic) not contained in any K_v, or None.

    Exhaustive: enumerates every b-clique and intersects the ground-vertex
    membership masks of its vertices.
    """
    if b < 2:
        raise GraphError("clique order must be at least 2")
    owner = [0] * graph.n  # each vertex's ground vertices, as a bitmask
    for v, members in cover.cliques.items():
        for u in members:
            owner[u] |= 1 << v
    ground = (1 << cover.n_ground) - 1
    for clique in _cliques(graph._rows, graph.full_mask(), b, ()):
        if not functools.reduce(operator.and_, [owner[v] for v in clique], ground):
            return clique
    return None
