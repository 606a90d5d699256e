"""Upper-bound instance pipeline: packed hypergraph, incidence graph,
s-partite sparsification with sampled even-partition certification, blow-up,
random overlay with vertex retention, and the final disjoint-palette coloring.
Every stage is deterministic given the seed and emits machine-checkable
certificate material.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .freeness import (
    UnsupportedParametersError,
    default_table,
    find_mono_clique,
    mono_free_pattern,
)
from .graphs import (
    MASK_BYTES_LIMIT,
    CliqueCover,
    EdgeColoring,
    Graph,
    GraphError,
    HypergraphReport,
    LinearHypergraph,
    NonLinearError,
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


# failed extensions in a row that end the packing
_STALL_LIMIT = 200


def _random_member(rng, mask: int, n: int) -> int:
    """A uniform random set bit of the non-empty ``mask`` over range(n),
    drawn as ``rng.randrange`` draws on CPython 3.10-3.13: while c, the
    member count, is at least n/8, ``getrandbits(n.bit_length())`` until a
    member; else the member of rank ``getrandbits(c.bit_length())``, redrawn
    until below c."""
    getrandbits = rng.getrandbits
    count = mask.bit_count()
    if 8 * count >= n:
        k = n.bit_length()
        while True:
            y = getrandbits(k)
            if mask >> y & 1:
                return y
    k = count.bit_length()
    r = getrandbits(k)
    while r >= count:
        r = getrandbits(k)
    for _ in range(r):
        mask &= mask - 1  # clear the lowest member
    return (mask & -mask).bit_length() - 1


def build_linear_tf_hypergraph(n: int, R: int, seed: int) -> tuple[LinearHypergraph, dict]:
    """Random-greedy packing of R-sets that stays linear and free of
    hypergraph triangles; desk-scale substitute for the cited existence
    result (the asymptotic edge count is reported, never asserted).

    Let N[x] hold x and the vertices sharing an accepted edge with it (empty
    while x is in none).  Candidate vertices x != y share an edge iff y is in
    N[x]; accepted edges f ∋ x, g ∋ y meeting in z make a triangle, where z
    in {x, y} or f = g means a shared edge and else z is in N[x] ∩ N[y],
    which conversely yields one of the two.  So an R-set is acceptable iff
    its vertices' N[x] are pairwise disjoint: iff it is an R-clique of the
    compatible graph C, x ~ y iff N[x] ∩ N[y] = ∅.

    Each attempt draws a random start vertex and extends it by random members
    of the running intersection of the compat rows until R vertices are
    chosen, which is accepted, or the intersection is empty.  Packing stops
    after ``_STALL_LIMIT`` failed attempts in a row (Spencer's random greedy
    packing).  Returns the hypergraph and a report of its edge count against
    the n^2/R^2 ceiling and of the attempts made.

    Start vertices are ``getrandbits(n.bit_length())`` until below n, and
    members come from ``_random_member``: ``randrange``'s draws on CPython
    3.10-3.13.  Raises GraphError if the n compat rows of n bits would
    exceed ``graphs.MASK_BYTES_LIMIT`` bytes.
    """
    if R < 3:
        raise GraphError(f"uniformity must be at least 3, got {R}")
    if R > n:
        raise GraphError(f"uniformity {R} exceeds ground-set size {n}")
    need = n * -(-n // 8)  # n compat rows of n bits
    if need > MASK_BYTES_LIMIT:
        raise GraphError(
            f"packing n={n} needs {need} bytes of compat rows, above the limit {MASK_BYTES_LIMIT}"
        )
    rng = make_rng(seed, "packing")
    getrandbits, k = rng.getrandbits, n.bit_length()

    full = (1 << n) - 1
    compat = [full ^ (1 << x) for x in range(n)]  # C's rows, as bitmasks
    closed = [0] * n  # N[x] as a bitmask
    edges: list[tuple[int, ...]] = []
    tried = stall = 0
    while stall < _STALL_LIMIT:
        tried += 1
        x = getrandbits(k)  # randrange(n), drawn as CPython draws it
        while x >= n:
            x = getrandbits(k)
        chosen, common = [x], compat[x]
        while common and len(chosen) < R:
            y = _random_member(rng, common, n)
            chosen.append(y)
            common &= compat[y]
        if len(chosen) < R:
            stall += 1
            continue
        stall = 0
        edges.append(tuple(sorted(chosen)))
        # S joins N[x] for each x in S and no other N[y], so the new
        # conflicts are the pairs of x in S and y in the union of the new N[x]
        mask = reach = 0
        for x in chosen:
            mask |= 1 << x
        for x in chosen:
            closed[x] |= mask
            reach |= closed[x]
        # positive masks: a & (full ^ m) is cheaper than a & ~m on long rows
        keep = full ^ reach
        for x in chosen:
            compat[x] &= keep
        keep = full ^ mask
        for y in iter_bits(reach):
            compat[y] &= keep

    edges.sort()
    H = LinearHypergraph(n, R, edges)
    ceiling = n * n / (R * R)
    report = {
        "edges": len(edges),
        "ceiling_n2_R2": ceiling,
        "ratio_to_ceiling": len(edges) / ceiling if ceiling else 0.0,
        "pair_ceiling": n * (n - 1) // (R * (R - 1)),
        "candidates_tried": tried,
    }
    return H, report


# ---------------------------------------------------------------------------
# s-partite sparsification with sampled even-partition certification


@dataclass
class SparsifiedIncidence:
    """Sparsified incidence graph together with its cover and s-partition:
    ``part_masks[v][p]`` is the bitmask of K_v's members in part p, and
    ``member_masks[v]`` that of all K_v's members, derived on first read."""

    graph: Graph
    cover: CliqueCover
    part_masks: dict[int, tuple[int, ...]]
    s: int
    certificate: dict = field(default_factory=dict)

    @functools.cached_property
    def member_masks(self) -> dict[int, int]:
        # a clique's parts are disjoint, so their sum is its member mask
        return {v: sum(pm) for v, pm in self.part_masks.items()}


def evenly_partitioned(a_v: int, part_counts: list[int], s: int) -> bool:
    # each part must meet X∩K_v in at least a_v/(s+1) vertices; the empty
    # intersection satisfies this vacuously
    return all((s + 1) * c >= a_v for c in part_counts)


def dyadic_profile(member_masks: dict[int, int], x_mask: int) -> tuple[int | None, dict[int, int]]:
    """The dominant dyadic class of a_v = |X ∩ K_v| over the cliques meeting
    X: the index ell maximizing the sum of a_v over I_ell = {v : 2^(ell-1) <=
    a_v < 2^ell} (ties toward the smaller index) and {v: a_v} over I_ell in
    ascending v; (None, {}) when X meets no clique.  It depends on X alone."""
    classes: dict[int, dict[int, int]] = {}
    for v in sorted(member_masks):
        a = (x_mask & member_masks[v]).bit_count()
        if a:
            classes.setdefault(a.bit_length(), {})[v] = a
    if not classes:
        return None, {}
    # max keeps the first of a tie
    ell = max(sorted(classes), key=lambda i: sum(classes[i].values()))
    return ell, classes[ell]


@dataclass(frozen=True)
class DensityProfile:
    ell_dyadic: int | None
    dominant: tuple[int, ...]              # I_ell
    evenly_partitioned: tuple[int, ...]    # I'_ell


def density_profile(ell: int | None, dominant: dict[int, int],
                    part_masks: dict[int, tuple[int, ...]], x_mask: int, s: int) -> DensityProfile:
    """The dominant class ``dyadic_profile`` found for X and its cliques that
    X meets evenly under ``part_masks``: in every one of the s parts, in at
    least a_v/(s+1) vertices."""
    # a_v < s leaves one of the s parts without a vertex of X, short of
    # a_v/(s+1) > 0, so such a clique is never even and is not popcounted
    evenly = tuple(
        v for v, a in dominant.items()
        if a >= s
        and evenly_partitioned(a, [(x_mask & pm).bit_count() for pm in part_masks[v]], s)
    )
    return DensityProfile(ell, tuple(dominant), evenly)


def sample_sets(rng, n: int, threshold: int, count: int) -> list[int]:
    """``count`` subsets of range(n) as bitmasks, each of a size drawn
    uniformly from threshold..n; none when ``threshold`` exceeds n."""
    if count < 0:
        raise GraphError(f"sample count must be non-negative, got {count}")
    if threshold > n:
        return []
    sets = []
    for _ in range(count):
        size = rng.randint(threshold, n)
        mask = 0
        for u in rng.sample(range(n), size):
            mask |= 1 << u
        sets.append(mask)
    return sets


# part assignments drawn before sparsification gives up
RETRY_LIMIT = 32


def sparsify(
    validation: HypergraphReport,
    s: int,
    seed: int,
    certification_samples: int = 100,
    threshold: int | None = None,
) -> SparsifiedIncidence:
    """Replace each clique K_v of a linear hypergraph's incidence graph, read
    from its ``validate_hypergraph`` report, by a complete s-partite graph via
    a random part assignment, certifying on sampled vertex sets X
    (|X| >= threshold) that at least half of the dominant-dyadic-class
    cliques are evenly partitioned.  The assignment is resampled up to
    ``RETRY_LIMIT`` times until certification passes.

    A non-linear report raises NonLinearError with its first violating pair.
    A linear report needs no input check: its members are hyperedge indices
    below ``incidence.n``, and its incidence rows are the cover's meets with
    no pair meeting twice, so every within-clique pair is an edge, every edge
    lies in a clique, and no pair lies in two.
    """
    if s < 2:
        raise GraphError("sparsification order must be at least 2")
    if validation.incidence is None:
        raise NonLinearError(validation.witness)
    graph, cover = validation.incidence, validation.cover
    if threshold is None:
        threshold = cover.n_ground

    clique_ids = sorted(cover.cliques)
    member_masks = {v: cover.member_mask(v) for v in clique_ids}
    samples = sample_sets(make_rng(seed, "samples"), graph.n, threshold, certification_samples)
    # a_v and the dominant class depend on X alone: profile each X once
    profiles = [(mask, *dyadic_profile(member_masks, mask)) for mask in samples]

    worst = None
    for attempt in range(RETRY_LIMIT):
        rng = make_rng(seed, "partition", attempt)
        part_masks = {}
        for v in clique_ids:
            masks = [0] * s
            for u in cover.cliques[v]:
                masks[rng.randrange(s)] |= 1 << u
            part_masks[v] = tuple(masks)

        sample_records = []
        for mask, ell, dominant in profiles:
            record = {"size": mask.bit_count(), "ell": ell, "ok": True}
            if ell is not None:
                even = len(density_profile(ell, dominant, part_masks, mask, s).evenly_partitioned)
                record.update(dominant=len(dominant), evenly_partitioned=even,
                              ok=2 * even >= len(dominant))
                frac = even / len(dominant)
                if not record["ok"] and (worst is None or frac < worst["fraction"]):
                    worst = dict(record, fraction=frac, attempt=attempt)
            sample_records.append(record)

        if all(record["ok"] for record in sample_records):
            # each member of K_v is joined to the members outside its part
            rows = [0] * graph.n
            for v in clique_ids:
                for pm in part_masks[v]:
                    others = member_masks[v] ^ pm
                    for u in iter_bits(pm):
                        rows[u] |= others
            certificate = {
                "attempt": attempt,
                "samples": len(samples),
                "threshold": threshold,
                "vacuous": not samples,
                "sample_records": sample_records,
            }
            sparsified = SparsifiedIncidence(Graph.from_rows(rows), cover, part_masks, s,
                                             certificate)
            sparsified.member_masks = member_masks  # the masks the parts split
            return sparsified

    raise CertificationError(
        f"even-partition certification failed after {RETRY_LIMIT} attempts", worst or {}
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
    ``permutations[i][u]``, so copy i holds union edge
    (permutations[i][u], permutations[i][v]) for each edge (u, v) of the
    overlaid graph (in the pipeline, the blown-up graph)."""

    permutations: tuple[tuple[int, ...], ...]
    retained: tuple[int, ...]


def overlay_and_retain(
    graph: Graph,
    copies: int,
    retention_p: float,
    seed: int,
) -> tuple[Graph, OverlayRecord]:
    """Apply an independent uniform random permutation to each of ``copies``
    copies of ``graph``, union the edge sets, then keep each vertex
    independently with probability ``retention_p`` and return the induced
    subgraph (vertices renumbered in increasing union-id order)."""
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
        # copy is row u of the graph with every bit v moved to perm[v]; twin
        # rows (a blow-up fiber's k vertices share one) are moved once
        images: dict[int, int] = {}
        for u in range(N):
            row = graph.row(u)
            mask = images.get(row)
            if mask is None:
                mask = 0
                for v in iter_bits(row):
                    mask |= 1 << perm[v]
                images[row] = mask
            union_rows[perm[u]] |= mask
        perms.append(tuple(perm))

    keep_rng = make_rng(seed, "retain")
    retained = tuple(u for u in range(N) if keep_rng.random() < retention_p)
    final, _ = Graph.from_rows(union_rows).induced(retained)
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
    ) -> "ConstructionParams":
        """Fill ell from the verified Ramsey table (minimum ell with
        r_ell(b) > s) and beta = floor(t/ell) - 1; R defaults to
        max(3, ceil(log2 n))."""
        if s < 2 or b < 3 or t < 1:
            raise UnsupportedParametersError(f"require s >= 2, b >= 3, t >= 1, got {(s, b, t)}")
        ell = default_table().min_ell(b, s, t)
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
    incidence: Graph
    cover: CliqueCover
    sparsified: SparsifiedIncidence
    overlay: OverlayRecord
    final: Graph
    coloring: EdgeColoring
    certificate: dict


def construct_upper_bound_instance(
    params: ConstructionParams,
    n: int,
    certification_samples: int = 100,
    threshold: int | None = None,
) -> InstanceBundle:
    """Run the full pipeline (pack, incidence, sparsify, blow up, overlay and
    retain) and color each copy with its own disjoint ell-color palette via
    a fixed monochromatic-K_b-free pattern on part indices; joint edges take
    the lowest contributing copy's color.  The coloring is assembled as
    per-color adjacency bit rows and kept in the bundle's
    ``EdgeColoring.from_rows`` coloring; ``find_mono_clique`` checks that
    their union is the final graph's rows (else GraphError) and searches
    them.  The certificate bundle
    carries the per-color mono-clique search, the palette checks, the
    sparsification record, and all stage reports.
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
    incidence, cover = validation.incidence, validation.cover

    sparsified = sparsify(
        validation,
        s,
        derive_seed(params.seed, "sparsify"),
        certification_samples=certification_samples,
        threshold=threshold,
    )
    final, overlay = overlay_and_retain(
        blow_up(sparsified.graph, k), params.beta + 1, params.retention_p,
        derive_seed(params.seed, "overlay"),
    )

    # G_* joins K_v's parts i < j, and the blow-up their fibers, in pattern
    # color (i, j).  Copy by copy, each side's retained image is ORed into
    # the other side's rows of that color in the copy's palette, less the
    # pairs an earlier copy holds (``done``), so an edge that several copies
    # hold keeps the lowest one's color.  color_rows[c - 1]: color c's rows
    N, ell = final.n, params.ell
    index = {x: a for a, x in enumerate(overlay.retained)}
    pattern_pairs = [(i, i + 1 + off, c) for c, rows in pattern.rows.items()
                     for i, row in enumerate(rows) for off in iter_bits(row >> (i + 1))]
    color_rows = [[0] * N for _ in range((params.beta + 1) * ell)]
    done = [0] * N
    for copy_idx, perm in enumerate(overlay.permutations):
        where = [index.get(x) for x in perm]  # blown vertex -> retained id, or None
        palette = color_rows[copy_idx * ell:(copy_idx + 1) * ell]
        for masks in sparsified.part_masks.values():
            images = []
            for pm in masks:
                ids = [a for p in iter_bits(pm) for a in where[p * k:p * k + k] if a is not None]
                image = 0
                for a in ids:
                    image |= 1 << a
                images.append((ids, image))
            for i, j, c in pattern_pairs:
                (left, left_mask), (right, right_mask) = images[i], images[j]
                if left and right:
                    rows = palette[c - 1]
                    for a in left:
                        rows[a] |= right_mask & ~done[a]
                    for a in right:
                        rows[a] |= left_mask & ~done[a]
        for rows in palette:
            done = [d | r for d, r in zip(done, rows)]

    used = [c for c, rows in enumerate(color_rows, 1) if any(rows)]
    by_color = {c: color_rows[c - 1] for c in used}
    coloring = EdgeColoring.from_rows(t, by_color)
    mono = find_mono_clique(final, coloring, b)
    palettes = {i: list(range(i * ell + 1, (i + 1) * ell + 1)) for i in range(params.beta + 1)}
    over = next((c for c in used if c > t), None)

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
            # validation's triangle search on this graph and cover is the order-3
            # check, and implies order 4: in a K_4 abcd, abc lies in some K_x and
            # abd in some K_y, so hyperedges a and b both contain x and y, and
            # linearity gives x = y: all four lie in K_x
            "cliques_of_order_3_covered": {"pass": validation.triangle_free,
                                           "witness": validation.witness},
            "cliques_of_order_4_covered": {"pass": validation.triangle_free, "witness": None},
            "complete_s_partite": _check_complete_s_partite(sparsified),
            "mono_clique_free": {
                "pass": mono is None,
                "witness": None if mono is None else {"color": mono[0], "clique": list(mono[1])},
            },
            "palette_disjoint": {
                "pass": (params.beta + 1) * params.ell <= t and over is None,
                "palettes": {str(i): p for i, p in palettes.items()},
                "colors_used": used,
                "witness": over,
            },
        },
        "sparsification": sparsified.certificate,
        "final": {"vertices": final.n, "edges": final.m},
    }
    return InstanceBundle(
        params=params,
        n=n,
        hypergraph=H,
        incidence=incidence,
        cover=cover,
        sparsified=sparsified,
        overlay=overlay,
        final=final,
        coloring=coloring,
        certificate=certificate,
    )


def _check_complete_s_partite(sparsified: SparsifiedIncidence) -> dict:
    """Within every K_v the kept edges must be exactly the cross-part pairs.
    The witness is the first wrong pair (a, b), a < b, of the first failing
    clique: the least of its parts' first ones."""
    g = sparsified.graph
    for v, masks in sorted(sparsified.part_masks.items()):
        members = sum(masks)  # the parts are disjoint
        firsts = []
        for pm in masks:
            cross = members ^ pm  # the members a member of this part sees
            for a in iter_bits(pm):
                wrong = ((g.row(a) ^ cross) & members) >> (a + 1)
                if wrong:
                    firsts.append((a, a + (wrong & -wrong).bit_length()))
                    break
        if firsts:
            return {"pass": False, "witness": {"clique": v, "edge": list(min(firsts))}}
    return {"pass": True, "witness": None}


def certificate_passes(certificate: dict) -> bool:
    return all(check["pass"] for check in certificate["checks"].values())
