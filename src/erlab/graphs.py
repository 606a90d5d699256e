"""Graph and hypergraph types plus the structural predicates everything else certifies against.

Vertices are dense 0-based integers.  Graphs are immutable after
construction and keep adjacency both as packed bit rows (Python ints) and
as sorted neighbor tuples; all enumeration is canonical (lexicographic on
sorted vertex ids) so witnesses and tests are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .util import iter_bits


class GraphError(ValueError):
    pass


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

    __slots__ = ("n", "_rows", "_neighbors", "m")

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
        self._neighbors = None

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
        g._neighbors = None
        return g

    def row(self, u: int) -> int:
        """Adjacency of u as a bitmask."""
        return self._rows[u]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._rows[u] >> v) & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        if self._neighbors is None:
            self._neighbors = [tuple(iter_bits(r)) for r in self._rows]
        return self._neighbors[u]

    def degree(self, u: int) -> int:
        return self._rows[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            high = self._rows[u] >> (u + 1)
            for off in iter_bits(high):
                out.append((u, u + 1 + off))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def induced(self, vertices) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``vertices``; returns (graph, old-id list).

        New vertex i corresponds to the i-th smallest old id.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = []
        for i, v in enumerate(keep):
            for w in keep[i + 1:]:
                if self.has_edge(v, w):
                    edges.append((index[v], index[w]))
        return Graph(len(keep), edges), keep

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

    def edge_masks(self) -> list[int]:
        masks = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << v
            masks.append(m)
        return masks


@dataclass(frozen=True)
class CliqueCover:
    """For each ground vertex v, the clique K_v of incidence-graph vertices through v."""

    n_ground: int
    cliques: dict[int, tuple[int, ...]]

    def members(self, v: int) -> tuple[int, ...]:
        return self.cliques.get(v, ())

    def member_mask(self, v: int) -> int:
        m = 0
        for u in self.cliques.get(v, ()):
            m |= 1 << u
        return m

    def vertex_to_cliques(self, n_vertices: int) -> list[int]:
        """For each incidence vertex, the bitmask of ground vertices whose clique contains it."""
        out = [0] * n_vertices
        for v, members in self.cliques.items():
            bit = 1 << v
            for u in members:
                out[u] |= bit
        return out


@dataclass(frozen=True)
class EdgeColoring:
    """Map from edges (sorted pairs) to colors in 1..t."""

    t: int
    colors: dict[tuple[int, int], int]

    def __init__(self, t: int, colors):
        object.__setattr__(self, "t", t)
        norm = {}
        for (u, v), c in dict(colors).items():
            if u == v:
                raise GraphError(f"loop edge ({u},{v}) in coloring")
            norm[(min(u, v), max(u, v))] = c
        object.__setattr__(self, "colors", norm)

    def color_of(self, u: int, v: int) -> int:
        return self.colors[(min(u, v), max(u, v))]

    def get(self, u: int, v: int):
        return self.colors.get((min(u, v), max(u, v)))

    def colors_used(self) -> set[int]:
        return set(self.colors.values())

    def classes(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list] = {}
        for e in sorted(self.colors):
            out.setdefault(self.colors[e], []).append(e)
        return out

    def restrict(self, vertices) -> "EdgeColoring":
        keep = set(vertices)
        return EdgeColoring(
            self.t, {e: c for e, c in self.colors.items() if e[0] in keep and e[1] in keep}
        )

    def relabel(self, mapping: dict[int, int]) -> "EdgeColoring":
        return EdgeColoring(
            self.t, {(mapping[u], mapping[v]): c for (u, v), c in self.colors.items()}
        )


def coloring_covers(graph: Graph, coloring: EdgeColoring):
    """First edge of ``graph`` missing from ``coloring``, or an extra colored
    pair that is not an edge; None when they match exactly."""
    for e in graph.edges():
        if e not in coloring.colors:
            return ("missing", e)
    for e in sorted(coloring.colors):
        if not graph.has_edge(*e):
            return ("extra", e)
    return None


def _cliques(rows: list[int], cand: int, need: int, prefix: tuple[int, ...]):
    """Every ``need``-clique inside ``cand`` (adjacency ``rows``), each
    extending ``prefix``, in lexicographic order; ``prefix`` once when
    ``need <= 0``."""
    if need <= 0:
        yield prefix
        return
    while cand.bit_count() >= need:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if need == 1:
            yield prefix + (v,)
        else:
            yield from _cliques(rows, cand & rows[v], need - 1, prefix + (v,))


def enumerate_cliques(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-element vertex sets inducing a complete subgraph, in lexicographic order."""
    if s < 2:
        raise GraphError("clique order must be at least 2")
    return list(_cliques(graph._rows, graph.full_mask(), s, ()))


def first_clique(rows: list[int], mask: int, s: int):
    """Lexicographically first s-clique inside ``mask`` (adjacency ``rows``),
    or None; ``()`` when ``s <= 0``."""
    return next(_cliques(rows, mask, s, ()), None)


@dataclass(frozen=True)
class HypergraphReport:
    linear: bool
    triangle_free: bool
    witness: tuple[int, ...] | None  # edge index pair (linearity) or triple (triangle)


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


def validate_hypergraph(H: LinearHypergraph) -> HypergraphReport:
    """Certify linearity and hypergraph-triangle-freeness of H.

    A hypergraph triangle is three distinct edges pairwise intersecting in
    exactly one vertex with empty common intersection.  The witness is the
    first violation in lexicographic order on edge indices; linearity
    violations take precedence in the report's ``witness`` field.
    """
    check_hypergraph_shape(H)
    masks = H.edge_masks()
    m = len(masks)

    linear_witness = None
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            if (mi & masks[j]).bit_count() >= 2:
                linear_witness = (i, j)
                break
        if linear_witness:
            break

    # adj1[i]: edges meeting edge i in exactly one vertex
    adj1 = [0] * m
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            if (mi & masks[j]).bit_count() == 1:
                adj1[i] |= 1 << j
                adj1[j] |= 1 << i

    triangle_witness = None
    for i in range(m):
        if triangle_witness:
            break
        cand_j = adj1[i] >> (i + 1)
        for off in iter_bits(cand_j):
            j = i + 1 + off
            third = (adj1[i] & adj1[j]) >> (j + 1)
            found = None
            for off2 in iter_bits(third):
                k = j + 1 + off2
                if masks[i] & masks[j] & masks[k] == 0:
                    found = k
                    break
            if found is not None:
                triangle_witness = (i, j, found)
                break

    return HypergraphReport(
        linear=linear_witness is None,
        triangle_free=triangle_witness is None,
        witness=linear_witness or triangle_witness,
    )


def incidence_graph(H: LinearHypergraph) -> tuple[Graph, CliqueCover]:
    """Edge-vertex incidence graph of a certified-linear H.

    Vertices are hyperedge indices, adjacent iff the hyperedges intersect;
    the cover maps each ground vertex v to the clique K_v of hyperedges
    through v.  Rejects non-linear input with the violating pair.
    """
    masks = H.edge_masks()
    m = len(masks)
    for i in range(m):
        for j in range(i + 1, m):
            if (masks[i] & masks[j]).bit_count() >= 2:
                raise NonLinearError((i, j))

    through: dict[int, list[int]] = {}
    for idx, e in enumerate(H.edges):
        for v in e:
            through.setdefault(v, []).append(idx)

    edges = []
    for v in sorted(through):
        members = through[v]
        for a, b in itertools.combinations(members, 2):
            edges.append((a, b))
    graph = Graph(m, edges)
    cover = CliqueCover(H.n, {v: tuple(sorted(mem)) for v, mem in through.items()})
    return graph, cover


def cover_partitions_edges(graph: Graph, cover: CliqueCover):
    """Check that within-clique edge sets partition E(graph).

    Returns None on success, else a witness ("uncovered"|"doubly", edge).
    """
    seen: dict[tuple[int, int], int] = {}
    for v in sorted(cover.cliques):
        members = cover.cliques[v]
        for a, b in itertools.combinations(sorted(members), 2):
            e = (a, b)
            if e in seen:
                return ("doubly", e)
            seen[e] = v
    for e in graph.edges():
        if e not in seen:
            return ("uncovered", e)
    # every covered pair must actually be an edge
    for e in seen:
        if not graph.has_edge(*e):
            return ("missing", e)
    return None


def uncovered_clique(graph: Graph, cover: CliqueCover, b: int):
    """First b-clique of ``graph`` (lexicographic) not contained in any K_v, or None.

    Exhaustive: enumerates every b-clique and intersects the ground-vertex
    membership masks of its vertices.
    """
    if b < 2:
        raise GraphError("clique order must be at least 2")
    owner = cover.vertex_to_cliques(graph.n)
    ground = (1 << cover.n_ground) - 1
    for clique in _cliques(graph._rows, graph.full_mask(), b, ()):
        if not functools.reduce(operator.and_, [owner[v] for v in clique], ground):
            return clique
    return None
