"""Upper-bound instance pipeline: packed hypergraph, incidence graph,
s-partite sparsification with sampled even-partition certification, blow-up,
random overlay with vertex retention, and the final disjoint-palette coloring.
Every stage is deterministic given the seed and emits machine-checkable
certificate material.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .freeness import (
    RamseyTable,
    UnsupportedParametersError,
    default_table,
    find_mono_clique,
    mono_free_pattern,
)
from .graphs import (
    CliqueCover,
    EdgeColoring,
    Graph,
    GraphError,
    LinearHypergraph,
    cover_partitions_edges,
    incidence_graph,
    uncovered_clique,
    validate_hypergraph,
)
from .util import derive_seed, iter_bits, make_rng


class CertificationError(RuntimeError):
    """Sparsification certification failed after the retry limit."""

    def __init__(self, message: str, worst_sample: dict):
        self.worst_sample = worst_sample
        super().__init__(message)


# ---------------------------------------------------------------------------
# linear triangle-free hypergraph packing


def _default_sample_budget(n: int, R: int) -> int:
    return max(30_000, 25 * math.ceil(n * n / (R * R)))


def _sample_draws(rng, n: int, R: int, budget: int):
    """Yield what ``budget`` successive ``rng.sample(range(n), R)`` calls would return."""
    getrandbits = rng.getrandbits
    setsize = 21 + (4 ** math.ceil(math.log(3 * R, 4)) if R > 5 else 0)
    if n <= setsize:
        for _ in range(budget):
            pool = list(range(n))
            for m in range(n, n - R, -1):
                k = m.bit_length()
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                pool[j], pool[m - 1] = pool[m - 1], pool[j]
            yield pool[n - R:][::-1]
    else:
        k = n.bit_length()
        for _ in range(budget):
            draw = []
            for _ in range(R):
                j = getrandbits(k)
                while j >= n or j in draw:
                    j = getrandbits(k)
                draw.append(j)
            yield draw


def build_linear_tf_hypergraph(
    n: int,
    R: int,
    seed: int,
    sample_budget: int | None = None,
) -> tuple[LinearHypergraph, dict]:
    """Random-greedy packing of R-sets that stays linear and free of
    hypergraph triangles; desk-scale substitute for the cited existence
    result (the asymptotic edge count is reported, never asserted).

    Candidates are all R-sets shuffled when C(n, R) <= 10 000, else
    ``sample_budget`` lazy draws equal, in order, to ``rng.sample(range(n),
    R)`` calls under CPython >= 3.10.  Let N[x] hold x and the vertices
    sharing an accepted edge with it (empty while x is in none).  Candidate
    vertices x != y share an edge iff y is in N[x]; accepted edges f ∋ x,
    g ∋ y meeting in z make a triangle, where z in {x, y} or f = g means a
    shared edge and else z is in N[x] ∩ N[y], which conversely yields one of
    the two.  So a candidate is accepted iff its vertices' N[x] are pairwise
    disjoint.  Returns the hypergraph and a report of its edge count against
    the n^2/R^2 ceiling.
    """
    if R < 3:
        raise GraphError(f"uniformity must be at least 3, got {R}")
    if R > n:
        raise GraphError(f"uniformity {R} exceeds ground-set size {n}")
    rng = make_rng(seed, "packing")

    tried = math.comb(n, R)
    enumerated = tried <= 10_000
    if enumerated:
        candidates = list(itertools.combinations(range(n), R))
        rng.shuffle(candidates)
    else:
        tried = max(0, _default_sample_budget(n, R) if sample_budget is None else sample_budget)
        candidates = _sample_draws(rng, n, R, tried)

    edges: list[tuple[int, ...]] = []
    closed = [0] * n  # N[x] as a bitmask
    for cand in candidates:
        seen = 0
        for x in cand:
            if seen & closed[x]:
                break
            seen |= closed[x]
        else:
            mask = 0
            for x in cand:
                mask |= 1 << x
            for x in cand:
                closed[x] |= mask
            edges.append(tuple(sorted(cand)))

    edges.sort()
    H = LinearHypergraph(n, R, edges)
    ceiling = n * n / (R * R)
    report = {
        "edges": len(edges),
        "ceiling_n2_R2": ceiling,
        "ratio_to_ceiling": len(edges) / ceiling if ceiling else 0.0,
        "pair_ceiling": n * (n - 1) // (R * (R - 1)),
        "candidates_tried": tried,
        "enumerated": enumerated,
    }
    return H, report


# ---------------------------------------------------------------------------
# s-partite sparsification with sampled even-partition certification


@dataclass(frozen=True)
class SPartition:
    """Per-clique part assignment: parts[v][member] is a part index in 0..s-1."""

    s: int
    parts: dict[int, dict[int, int]]

    def part_masks(self, v: int) -> list[int]:
        masks = [0] * self.s
        for member, p in self.parts.get(v, {}).items():
            masks[p] |= 1 << member
        return masks


@dataclass
class SparsifiedIncidence:
    """Sparsified incidence graph together with its cover and part assignment."""

    graph: Graph
    cover: CliqueCover
    partition: SPartition
    s: int
    certificate: dict = field(default_factory=dict)

    def clique_of_edge(self) -> dict[tuple[int, int], int]:
        """Map each sparsified edge to the unique ground vertex owning it."""
        out = {}
        for v in sorted(self.cover.cliques):
            parts = self.partition.parts.get(v, {})
            members = self.cover.cliques[v]
            for a, b in itertools.combinations(sorted(members), 2):
                if parts[a] != parts[b]:
                    out[(a, b)] = v
        return out


def evenly_partitioned(a_v: int, part_counts: list[int], s: int) -> bool:
    # each part must meet X∩K_v in at least a_v/(s+1) vertices; the empty
    # intersection satisfies this vacuously
    return all((s + 1) * c >= a_v for c in part_counts)


def dyadic_profile(a_values: dict[int, int]) -> tuple[dict[int, list[int]], int | None]:
    """Dyadic classes I_i = {v : 2^(i-1) <= a_v < 2^i} over cliques with a_v >= 1,
    plus the index maximizing sum of a_v (ties toward the smaller index)."""
    classes: dict[int, list[int]] = {}
    sums: dict[int, int] = {}
    for v in sorted(a_values):
        a = a_values[v]
        if a <= 0:
            continue
        i = a.bit_length()
        classes.setdefault(i, []).append(v)
        sums[i] = sums.get(i, 0) + a
    if not sums:
        return {}, None
    best = None
    for i in sorted(sums):
        if best is None or sums[i] > sums[best]:
            best = i
    return classes, best


def sparsify(
    graph: Graph,
    cover: CliqueCover,
    s: int,
    seed: int,
    certification_samples: int = 100,
    threshold: int | None = None,
    retry_limit: int = 32,
    check_cover: bool = True,
) -> SparsifiedIncidence:
    """Replace each clique K_v by a complete s-partite graph via a random
    part assignment, certifying on sampled vertex sets X (|X| >= threshold)
    that at least half of the dominant-dyadic-class cliques are evenly
    partitioned.  The assignment is resampled up to ``retry_limit`` times
    until certification passes.
    """
    if s < 2:
        raise GraphError("sparsification order must be at least 2")
    if check_cover:
        bad = cover_partitions_edges(graph, cover)
        if bad is not None:
            raise GraphError(f"cover inconsistent with graph: {bad[0]} edge {bad[1]}")
    if threshold is None:
        threshold = cover.n_ground

    clique_ids = sorted(cover.cliques)
    member_masks = {v: cover.member_mask(v) for v in clique_ids}

    sample_rng = make_rng(seed, "samples")
    samples: list[int] = []
    if threshold <= graph.n:
        for _ in range(certification_samples):
            size = sample_rng.randint(threshold, graph.n)
            mask = 0
            for u in sample_rng.sample(range(graph.n), size):
                mask |= 1 << u
            samples.append(mask)

    worst = None
    for attempt in range(retry_limit):
        rng = make_rng(seed, "partition", attempt)
        parts: dict[int, dict[int, int]] = {}
        part_masks: dict[int, list[int]] = {}
        for v in clique_ids:
            assign = {u: rng.randrange(s) for u in cover.cliques[v]}
            parts[v] = assign
            masks = [0] * s
            for u, p in assign.items():
                masks[p] |= 1 << u
            part_masks[v] = masks

        sample_records = []
        all_ok = True
        for mask in samples:
            a_values = {v: (mask & member_masks[v]).bit_count() for v in clique_ids}
            classes, ell = dyadic_profile(a_values)
            if ell is None:
                sample_records.append({"size": mask.bit_count(), "ell": None, "ok": True})
                continue
            dominant = classes[ell]
            even = 0
            for v in dominant:
                counts = [(mask & pm).bit_count() for pm in part_masks[v]]
                if evenly_partitioned(a_values[v], counts, s):
                    even += 1
            ok = 2 * even >= len(dominant)
            sample_records.append(
                {
                    "size": mask.bit_count(),
                    "ell": ell,
                    "dominant": len(dominant),
                    "evenly_partitioned": even,
                    "ok": ok,
                }
            )
            if not ok:
                all_ok = False
                frac = even / len(dominant)
                if worst is None or frac < worst.get("fraction", 1.0):
                    worst = dict(sample_records[-1], fraction=frac, attempt=attempt)

        if all_ok:
            rows = [0] * graph.n
            for v in clique_ids:
                masks = part_masks[v]
                members = cover.cliques[v]
                for u in members:
                    others = member_masks[v] & ~masks[parts[v][u]]
                    rows[u] |= others
            sparse = Graph.from_rows(rows)
            certificate = {
                "attempt": attempt,
                "samples": len(samples),
                "threshold": threshold,
                "vacuous": not samples,
                "sample_records": sample_records,
            }
            return SparsifiedIncidence(sparse, cover, SPartition(s, parts), s, certificate)

    raise CertificationError(
        f"even-partition certification failed after {retry_limit} attempts", worst or {}
    )


# ---------------------------------------------------------------------------
# blow-up and overlay


def blow_up(graph: Graph, k: int) -> Graph:
    """k-blow-up: vertex (v, i) becomes v*k + i; fibers are independent sets
    and (u,i) ~ (v,j) iff u ~ v."""
    if k < 1:
        raise GraphError("blow-up factor must be at least 1")
    block = (1 << k) - 1
    expanded = []
    for u in range(graph.n):
        mask = 0
        for v in iter_bits(graph.row(u)):
            mask |= block << (v * k)
        expanded.append(mask)
    rows = [expanded[u] for u in range(graph.n) for _ in range(k)]
    return Graph.from_rows(rows)


@dataclass
class OverlayRecord:
    """The permutation applied to each copy of the overlaid graph and the
    retained union vertices.  Copy i sends vertex u to union vertex
    ``permutations[i][u]``, so with ``inv_i = inverses()[i]`` copy i holds
    union edge (x, y) iff the overlaid graph (in the pipeline, the blown-up
    graph) holds (inv_i[x], inv_i[y])."""

    permutations: tuple[tuple[int, ...], ...]
    retained: tuple[int, ...]

    def inverses(self) -> list[list[int]]:
        out = []
        for perm in self.permutations:
            inv = [0] * len(perm)
            for u, x in enumerate(perm):
                inv[x] = u
            out.append(inv)
        return out


def overlay_and_retain(
    graph: Graph,
    copies: int,
    retention_p: float,
    seed: int,
) -> tuple[Graph, OverlayRecord]:
    """Apply an independent uniform random permutation to each of ``copies``
    copies of ``graph``, union the edge sets, then keep each vertex
    independently with probability ``retention_p`` and return the induced
    subgraph (vertices relabeled in increasing union-id order)."""
    if copies < 1:
        raise GraphError("need at least one copy")
    if not 0.0 <= retention_p <= 1.0:
        raise GraphError("retention probability must lie in [0,1]")

    N = graph.n
    perms = []
    union_rows = [0] * N
    for i in range(copies):
        rng = make_rng(seed, "overlay", i)
        perm = list(range(N))
        rng.shuffle(perm)
        # a permuted symmetric relation stays symmetric: row perm[u] of the
        # copy is row u of the graph with every bit v moved to perm[v]
        for u in range(N):
            mask = 0
            for v in iter_bits(graph.row(u)):
                mask |= 1 << perm[v]
            union_rows[perm[u]] |= mask
        perms.append(tuple(perm))

    keep_rng = make_rng(seed, "retain")
    retained = tuple(u for u in range(N) if keep_rng.random() < retention_p)
    keep_mask = 0
    for u in retained:
        keep_mask |= 1 << u
    index = {u: i for i, u in enumerate(retained)}
    final_rows = []
    for u in retained:
        row = union_rows[u] & keep_mask
        mask = 0
        for v in iter_bits(row):
            mask |= 1 << index[v]
        final_rows.append(mask)
    final = Graph.from_rows(final_rows)
    return final, OverlayRecord(tuple(perms), retained)


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class ConstructionParams:
    s: int
    b: int
    t: int
    ell: int
    beta: int
    k: int
    retention_p: float
    R: int
    C_const: int
    seed: int

    @classmethod
    def derive(
        cls,
        s: int,
        b: int,
        t: int,
        n: int,
        k: int = 1,
        R: int | None = None,
        retention_p: float = 1.0,
        seed: int = 0,
        table: RamseyTable | None = None,
    ) -> "ConstructionParams":
        """Fill ell from the verified Ramsey table (minimum ell with
        r_ell(b) > s) and beta = floor(t/ell) - 1; R defaults to
        max(3, ceil(log2 n))."""
        if s < 2 or b < 3 or t < 1:
            raise UnsupportedParametersError(f"require s >= 2, b >= 3, t >= 1, got {(s, b, t)}")
        table = table or default_table()
        ell = table.min_ell(b, s, t)
        if ell is None:
            raise UnsupportedParametersError(
                f"could not find ell <= {t + 1} with r_ell({b}) > {s}"
            )
        beta = t // ell - 1
        if R is None:
            R = max(3, math.ceil(math.log2(n))) if n > 1 else 3
        return cls(
            s=s,
            b=b,
            t=t,
            ell=ell,
            beta=beta,
            k=k,
            retention_p=retention_p,
            R=R,
            C_const=32 * s * (s + 1) ** 2,
            seed=seed,
        )


@dataclass
class InstanceBundle:
    params: ConstructionParams
    n: int
    hypergraph: LinearHypergraph
    build_report: dict
    incidence: Graph
    cover: CliqueCover
    sparsified: SparsifiedIncidence
    blown: Graph
    overlay: OverlayRecord
    final: Graph
    coloring: EdgeColoring
    certificate: dict


def construct_upper_bound_instance(
    params: ConstructionParams,
    n: int,
    certification_samples: int = 100,
    threshold: int | None = None,
    covered_clique_orders: tuple[int, ...] = (3, 4),
) -> InstanceBundle:
    """Run the full pipeline (pack, incidence, sparsify, blow up, overlay and
    retain) and color each copy with its own disjoint ell-color palette via
    a fixed monochromatic-K_b-free pattern on part indices; joint edges take
    the lowest contributing copy's color.  The certificate bundle carries the
    per-color mono-clique search, the palette checks, and all stage reports.
    """
    if params.ell > params.t:
        raise UnsupportedParametersError(
            f"ell={params.ell} exceeds t={params.t}: no color budget for a single copy"
        )
    s, b, t, k = params.s, params.b, params.t, params.k
    pattern = mono_free_pattern(s, b, params.ell)

    H, build_report = build_linear_tf_hypergraph(n, params.R, derive_seed(params.seed, "hyper"))
    validation = validate_hypergraph(H)
    if not (validation.linear and validation.triangle_free):
        raise CertificationError("packed hypergraph failed validation", {"witness": validation.witness})
    incidence, cover = incidence_graph(H)

    sparsified = sparsify(
        incidence,
        cover,
        s,
        derive_seed(params.seed, "sparsify"),
        certification_samples=certification_samples,
        threshold=threshold,
        check_cover=False,
    )
    g_star = sparsified.graph

    blown = blow_up(g_star, k)
    final, overlay = overlay_and_retain(
        blown, params.beta + 1, params.retention_p, derive_seed(params.seed, "overlay")
    )
    inverses = overlay.inverses()

    edge_owner = sparsified.clique_of_edge()
    parts = sparsified.partition.parts

    colors: dict[tuple[int, int], int] = {}
    palette_ok = True
    palette_witness = None
    for a, bb in final.edges():
        x, y = overlay.retained[a], overlay.retained[bb]
        # the lowest copy holding (x, y) colors it
        for copy_idx, inv in enumerate(inverses):
            u_b, v_b = inv[x], inv[y]
            if blown.has_edge(u_b, v_b):
                break
        else:
            palette_ok = False
            palette_witness = (a, bb)
            continue
        p, q = u_b // k, v_b // k
        v_ground = edge_owner[(min(p, q), max(p, q))]
        pp, pq = parts[v_ground][p], parts[v_ground][q]
        base = pattern.color_of(pp, pq)
        colors[(a, bb)] = copy_idx * params.ell + base
    coloring = EdgeColoring(t, colors)

    mono = find_mono_clique(final, coloring, b)
    palettes = {
        i: list(range(i * params.ell + 1, (i + 1) * params.ell + 1))
        for i in range(params.beta + 1)
    }
    used = coloring.colors_used()
    palette_disjoint = (params.beta + 1) * params.ell <= t and all(
        c <= t for c in used
    )

    s_partite = _check_complete_s_partite(sparsified)
    uncovered = {}
    for order in covered_clique_orders:
        witness = uncovered_clique(incidence, cover, order)
        uncovered[order] = witness

    certificate = {
        "parameters": {
            "s": s, "b": b, "t": t, "n": n, "ell": params.ell, "beta": params.beta,
            "k": k, "R": params.R, "retention_p": params.retention_p,
            "C_const": params.C_const, "seed": params.seed,
        },
        "build_report": build_report,
        "checks": {
            "hypergraph_linear": {"pass": validation.linear, "witness": validation.witness},
            "hypergraph_triangle_free": {"pass": validation.triangle_free,
                                          "witness": validation.witness},
            **{
                f"cliques_of_order_{order}_covered": {
                    "pass": wit is None, "witness": list(wit) if wit else None,
                }
                for order, wit in uncovered.items()
            },
            "complete_s_partite": s_partite,
            "mono_clique_free": {
                "pass": mono is None,
                "witness": None if mono is None else {"color": mono[0], "clique": list(mono[1])},
            },
            "palette_disjoint": {
                "pass": palette_disjoint and palette_ok,
                "palettes": {str(i): p for i, p in palettes.items()},
                "colors_used": sorted(used),
                "witness": palette_witness,
            },
        },
        "final": {"vertices": final.n, "edges": final.m},
    }
    return InstanceBundle(
        params=params,
        n=n,
        hypergraph=H,
        build_report=build_report,
        incidence=incidence,
        cover=cover,
        sparsified=sparsified,
        blown=blown,
        overlay=overlay,
        final=final,
        coloring=coloring,
        certificate=certificate,
    )


def _check_complete_s_partite(sparsified: SparsifiedIncidence) -> dict:
    """Within every K_v the kept edges must be exactly the cross-part pairs."""
    g = sparsified.graph
    for v in sorted(sparsified.cover.cliques):
        members = sorted(sparsified.cover.cliques[v])
        assign = sparsified.partition.parts[v]
        for a, b in itertools.combinations(members, 2):
            want = assign[a] != assign[b]
            if g.has_edge(a, b) != want:
                return {"pass": False, "witness": {"clique": v, "edge": [a, b]}}
    return {"pass": True, "witness": None}


def certificate_passes(certificate: dict) -> bool:
    return all(check["pass"] for check in certificate["checks"].values())
