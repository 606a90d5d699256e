"""Upper-bound instance pipeline: packed hypergraph, incidence graph,
s-partite sparsification with sampled even-partition certification, blow-up,
random overlay with vertex retention, and the final disjoint-palette coloring.
Every stage is deterministic given the seed and emits machine-checkable
certificate material.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .freeness import (
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


# Words drawn per getrandbits call by the set branch and by the pool branch;
# the pool branch keeps R index arrays per word, so its blocks are smaller.
# The enumerate branch tests this many candidates per pass.  Rows left in a
# pass after an accepted edge are tested again this many at a time.
_BLOCK_WORDS = 1 << 14
_POOL_BLOCK_WORDS = 1 << 12
_CHUNK_ROWS = 1 << 10
_RECHECK_ROWS = 64


def _sample_draws(rng, n: int, R: int, budget: int):
    """Yield, as int arrays of R columns, what ``budget`` successive
    ``rng.sample(range(n), R)`` calls would return, and leave ``rng`` in the
    state those calls would.

    ``random.sample`` keeps a pool of range(n) when n <= setsize and a set of
    picks above it; both draw with ``getrandbits(k)``, k <= 32, which is the
    next 32-bit word shifted right by 32 - k.  ``getrandbits(32 * W)``
    concatenates the next W words little-endian, so the samples are cut from
    blocks of words, one array per block; a sample cut by a block's end is
    carried into the next.  At the end the generator goes back to the last
    block's start and draws only the words used.
    """
    setsize = 21 + (4 ** math.ceil(math.log(3 * R, 4)) if R > 5 else 0)
    cut, size = (_cut_set, _BLOCK_WORDS) if n > setsize else (_cut_pool, _POOL_BLOCK_WORDS)
    carry = np.empty(0, np.uint32)  # the words of a sample cut by a block's end
    left = budget
    while left:
        start = rng.getstate()
        block = rng.getrandbits(32 * size).to_bytes(4 * size, "little")
        words = np.concatenate((carry, np.frombuffer(block, "<u4")))
        del block  # the words hold a copy; free the bytes before cutting
        chunk, end = cut(words, n, R, left)
        left -= len(chunk)
        if left:
            carry = words[end:]
        if len(chunk):
            yield chunk
    if budget:
        rng.setstate(start)
        rng.getrandbits(32 * (end - len(carry)))


def _cut_pool(words, n: int, R: int, limit: int):
    """The first pool-branch samples, at most ``limit``, that lie wholly in
    ``words``, as an int array of R columns, and the index after the last.

    Step i of a sample draws words until one, shifted right by 32 - k with
    m = n - i and k = m.bit_length(), is below m.  That value j indexes a
    pool of range(n), and the pool's last live slot, m - 1, moves into slot j.
    """
    size = len(words)
    steps = range(n, n - R, -1)
    shifts = np.array([[32 - m.bit_length()] for m in steps], np.uint32)
    # the columns run backwards: column c stands for index size + 1 - c, and
    # every step accepts columns 0 and 1, past the end; a running maximum of
    # c' (1 for c' = 0) over the accepted c' finds the nearest one
    hits = np.ones((R, size + 2), bool)
    np.less(words[::-1], np.array([[m] for m in steps], np.uint32) << shifts, out=hits[:, 2:])
    last = hits * np.arange(size + 2, dtype=np.int32).clip(1)
    np.maximum.accumulate(last, axis=1, out=last)
    # after[i, p]: the index after the first word at or after p that step i
    # accepts, else size + 1, which maps to itself
    after = np.subtract(size + 2, last[:, ::-1], dtype=np.int32)
    ends = after[0]
    for row in after[1:]:
        ends = row.take(ends)  # ends[p]: the index after the sample from p

    # the starts 0, ends[0], ends[ends[0]], ... by pointer doubling: each
    # pass appends the starts one jump on and squares the jump
    starts, jump = np.zeros(1, np.int32), ends
    while ends[starts[-1]] <= size and len(starts) < limit:
        starts = np.concatenate((starts, jump.take(starts)))
        jump = jump.take(jump)
    starts = starts[ends.take(starts) <= size][:limit]
    if not len(starts):
        return np.empty((0, R), np.intp), 0

    taken, p = [], starts
    for row in after:
        p = row.take(p)
        taken.append(p)  # the index after the word step i takes
    # slots[2i] is the slot step i draws and slots[2i + 1] the last live slot,
    # whose value moves there; found holds the values those slots have at
    # step i: their own, unless an earlier step moved a value into them
    slots = np.empty((2 * R, len(starts)), np.int32)
    slots[0::2] = words.take(np.array(taken) - 1) >> shifts
    slots[1::2] = np.array([[m - 1] for m in steps])
    found = slots.copy()
    for t in range(R - 1):
        np.copyto(found[2 * t + 2:], found[2 * t + 1], where=slots[2 * t] == slots[2 * t + 2:])
    return found[0::2].T.astype(np.intp), int(ends[starts[-1]])


def _cut_set(words, n: int, R: int, limit: int):
    """The first set-branch samples, at most ``limit``, that lie wholly in
    ``words``, as an int array of R columns, and the index after the last.

    A sample draws ``getrandbits(k)``, k = n.bit_length(), until it holds R
    distinct values below n.
    """
    shift = 32 - n.bit_length()
    kept = words < (n << shift)  # the words whose value is below n
    chunk, end = _cut_samples(words[np.flatnonzero(kept)] >> shift, R, limit)
    return chunk, int(np.flatnonzero(kept)[end - 1]) + 1 if end else 0


def _cut_samples(vals, R: int, limit: int):
    """The first samples, at most ``limit``, that lie wholly in ``vals``, as
    an int array of R columns, and the index after the last one.

    The samples from a start p are the windows p, p + R, ... of R values,
    up to the first spoiled start: one whose window holds a repeat or runs
    past the end.  That sample ends at its R-th distinct value, and the next
    one starts there.
    """
    size = len(vals)
    # a repeat vals[a] == vals[a + d], d < R, spoils the starts in
    # [a + d - R + 1, a]; the end spoils size - R + 1 .. size, which holds a
    # start of each residue mod R, so each lane has one at or after any p
    first, last = [[max(size - R + 1, 0)]], [[size]]
    for d in range(1, R):
        a = np.flatnonzero(vals[:-d] == vals[d:])
        first.append(np.maximum(a + d - R + 1, 0))
        last.append(a)
    first, last = np.concatenate(first), np.concatenate(last)
    length = last - first + 1
    spoiled = np.repeat(first - (np.cumsum(length) - length), length)
    spoiled = np.sort(spoiled + np.arange(len(spoiled)))
    residue = spoiled % R
    spoiled = spoiled[np.argsort(residue, kind="stable")].tolist()
    bounds = np.cumsum(np.bincount(residue, minlength=R)).tolist()
    lanes = [spoiled[a:b] for a, b in zip([0] + bounds, bounds)]  # by residue

    run_starts, run_rows, cut = [], [], {}
    rows = p = 0
    while rows < limit:
        lane = lanes[p % R]
        h = lane[bisect.bisect_left(lane, p)]
        run = min((h - p) // R, limit - rows)
        if run:
            run_starts.append(p)
            run_rows.append(run)
            rows += run
            p += run * R
            if rows == limit:
                break
        draw = _distinct_prefix(vals, h, R)
        if draw is None:
            break
        cut[rows] = list(dict.fromkeys(draw))
        run_starts.append(h)
        run_rows.append(1)
        rows += 1
        p = h + len(draw)

    if not rows:
        return np.empty((0, R), np.intp), p
    offset = np.repeat(np.cumsum(run_rows) - run_rows, run_rows)
    starts = np.repeat(run_starts, run_rows) + R * (np.arange(rows) - offset)
    chunk = vals.take(starts[:, None] + np.arange(R), mode="clip").astype(np.intp)
    if cut:
        chunk[list(cut)] = list(cut.values())
    return chunk, p


def _distinct_prefix(vals, h: int, R: int) -> list[int] | None:
    """The shortest run vals[h:q] that holds R distinct values, or None if
    vals[h:] holds fewer; vals[h:h + R] is known to hold fewer."""
    width = 2 * R
    while True:
        values = vals[h:h + width].tolist()
        q = R + 1
        while q <= len(values) and len(set(values[:q])) < R:
            q += 1
        if q <= len(values):
            return values[:q]
        if h + width >= len(vals):
            return None
        width *= 2


def _accept(chunk, conflict, closed: list[int], edges: list[tuple[int, ...]]) -> None:
    """Append to ``edges``, in order, each row of ``chunk`` whose vertices'
    N[x] are pairwise disjoint at its turn, updating ``closed`` (N[x]) and
    ``conflict`` (x, y: N[x] ∩ N[y] ≠ ∅).  Conflicts only grow, so a row in
    conflict before the chunk stays rejected; the rest are tested again,
    ``_RECHECK_ROWS`` at a time, from the row after each accepted one.  An
    accepted edge S adds S to N[x] for each x in S and changes no other N[y],
    so the new conflicts are the pairs of x in S and y in the union of the
    new N[x]."""
    n, R = conflict.shape[0], chunk.shape[1]
    flat = conflict.reshape(-1)
    rows = chunk
    for b in range(1, R):
        # column b against the columns before it, on the rows still live
        rows = rows[~flat[rows[:, :b] * n + rows[:, b:b + 1]].any(axis=1)]
    left, right = np.triu_indices(R, 1)
    at = 0
    while at < len(rows):
        batch = rows[at:at + _RECHECK_ROWS]
        clear = ~flat[batch[:, left] * n + batch[:, right]].any(axis=1)
        first = int(clear.argmax())
        if not clear[first]:
            at += len(batch)
            continue
        edge = batch[first].tolist()
        edges.append(tuple(sorted(edge)))
        mask = reach = 0
        for x in edge:
            mask |= 1 << x
        for x in edge:
            closed[x] |= mask
            reach |= closed[x]
        reach = list(iter_bits(reach))
        conflict[np.ix_(edge, reach)] = True
        conflict[np.ix_(reach, edge)] = True
        at += first + 1


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
    disjoint; candidates are tested in numpy passes against an n x n boolean
    matrix of the pairs whose N[x] meet.  Returns the hypergraph and a report
    of its edge count against the n^2/R^2 ceiling.
    """
    if R < 3:
        raise GraphError(f"uniformity must be at least 3, got {R}")
    if R > n:
        raise GraphError(f"uniformity {R} exceeds ground-set size {n}")
    rng = make_rng(seed, "packing")

    tried = math.comb(n, R)
    enumerated = tried <= 10_000
    if enumerated:
        combos = list(itertools.combinations(range(n), R))
        rng.shuffle(combos)
        candidates = (
            np.array(combos[i:i + _CHUNK_ROWS], np.intp) for i in range(0, tried, _CHUNK_ROWS)
        )
    else:
        tried = max(0, _default_sample_budget(n, R) if sample_budget is None else sample_budget)
        candidates = _sample_draws(rng, n, R, tried)

    edges: list[tuple[int, ...]] = []
    conflict = np.zeros((n, n), dtype=bool)
    closed = [0] * n  # N[x] as a bitmask
    for chunk in candidates:
        _accept(chunk, conflict, closed, edges)

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
    return classes, max(sorted(sums), key=sums.get)  # max keeps the first of a tie


@dataclass(frozen=True)
class DensityProfile:
    a: dict[int, int]                      # clique id -> |X ∩ K_v|, only a_v >= 1
    dyadic_classes: dict[int, tuple[int, ...]]
    ell_dyadic: int | None
    evenly_partitioned: tuple[int, ...]    # I'_ell


def density_profile(
    member_masks: dict[int, int],
    part_masks: dict[int, list[int]],
    x_mask: int,
    s: int,
) -> DensityProfile:
    """a_v = |X ∩ K_v| for every clique meeting X, the dyadic classes of those
    a_v, and the cliques of the dominant class that X meets evenly: in every
    one of the s parts, in at least a_v/(s+1) vertices."""
    a_values = {}
    for v, member in member_masks.items():
        a = (x_mask & member).bit_count()
        if a:
            a_values[v] = a
    classes, ell = dyadic_profile(a_values)
    evenly = []
    if ell is not None:
        for v in classes[ell]:
            counts = [(x_mask & pm).bit_count() for pm in part_masks[v]]
            if evenly_partitioned(a_values[v], counts, s):
                evenly.append(v)
    return DensityProfile(
        a=a_values,
        dyadic_classes={i: tuple(vs) for i, vs in classes.items()},
        ell_dyadic=ell,
        evenly_partitioned=tuple(evenly),
    )


def sample_sets(rng, n: int, threshold: int, count: int) -> list[int]:
    """``count`` subsets of range(n) as bitmasks, each of a size drawn
    uniformly from threshold..n; none when ``threshold`` exceeds n."""
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


def sparsify(
    graph: Graph,
    cover: CliqueCover,
    s: int,
    seed: int,
    certification_samples: int = 100,
    threshold: int | None = None,
    retry_limit: int = 32,
) -> SparsifiedIncidence:
    """Replace each clique K_v by a complete s-partite graph via a random
    part assignment, certifying on sampled vertex sets X (|X| >= threshold)
    that at least half of the dominant-dyadic-class cliques are evenly
    partitioned.  The assignment is resampled up to ``retry_limit`` times
    until certification passes.
    """
    if s < 2:
        raise GraphError("sparsification order must be at least 2")
    bad = cover_partitions_edges(graph, cover)
    if bad is not None:
        raise GraphError(f"cover inconsistent with graph: {bad[0]} edge {bad[1]}")
    if threshold is None:
        threshold = cover.n_ground

    clique_ids = sorted(cover.cliques)
    member_masks = {v: cover.member_mask(v) for v in clique_ids}
    samples = sample_sets(make_rng(seed, "samples"), graph.n, threshold, certification_samples)

    worst = None
    for attempt in range(retry_limit):
        rng = make_rng(seed, "partition", attempt)
        partition = SPartition(
            s, {v: {u: rng.randrange(s) for u in cover.cliques[v]} for v in clique_ids}
        )
        part_masks = {v: partition.part_masks(v) for v in clique_ids}

        sample_records = []
        all_ok = True
        for mask in samples:
            profile = density_profile(member_masks, part_masks, mask, s)
            ell = profile.ell_dyadic
            if ell is None:
                sample_records.append({"size": mask.bit_count(), "ell": None, "ok": True})
                continue
            dominant = len(profile.dyadic_classes[ell])
            even = len(profile.evenly_partitioned)
            ok = 2 * even >= dominant
            sample_records.append(
                {
                    "size": mask.bit_count(),
                    "ell": ell,
                    "dominant": dominant,
                    "evenly_partitioned": even,
                    "ok": ok,
                }
            )
            if not ok:
                all_ok = False
                frac = even / dominant
                if worst is None or frac < worst.get("fraction", 1.0):
                    worst = dict(sample_records[-1], fraction=frac, attempt=attempt)

        if all_ok:
            # each member of K_v is joined to the members outside its part
            rows = [0] * graph.n
            for v in clique_ids:
                for pm in part_masks[v]:
                    others = member_masks[v] & ~pm
                    for u in iter_bits(pm):
                        rows[u] |= others
            certificate = {
                "attempt": attempt,
                "samples": len(samples),
                "threshold": threshold,
                "vacuous": not samples,
                "sample_records": sample_records,
            }
            return SparsifiedIncidence(Graph.from_rows(rows), cover, partition, s, certificate)

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

# the incidence graph's cliques of these orders must each lie in one K_v
COVERED_CLIQUE_ORDERS = (3, 4)


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
) -> InstanceBundle:
    """Run the full pipeline (pack, incidence, sparsify, blow up, overlay and
    retain) and color each copy with its own disjoint ell-color palette via
    a fixed monochromatic-K_b-free pattern on part indices; joint edges take
    the lowest contributing copy's color.  The certificate bundle carries the
    per-color mono-clique search, the palette checks, the sparsification
    record, and all stage reports.
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
    )
    g_star = sparsified.graph

    blown = blow_up(g_star, k)
    final, overlay = overlay_and_retain(
        blown, params.beta + 1, params.retention_p, derive_seed(params.seed, "overlay")
    )

    masks = H.edge_masks()
    parts = sparsified.partition.parts
    index = {x: a for a, x in enumerate(overlay.retained)}
    blown_edges = blown.edges()

    # copy by copy, so an edge that several copies hold keeps the lowest one's color
    colors: dict[tuple[int, int], int] = {}
    for copy_idx, perm in enumerate(overlay.permutations):
        for u_b, v_b in blown_edges:
            a, bb = index.get(perm[u_b]), index.get(perm[v_b])
            if a is None or bb is None:
                continue
            edge = (a, bb) if a < bb else (bb, a)
            if edge in colors:
                continue
            p, q = u_b // k, v_b // k
            # H is certified linear, so hyperedges p and q share one ground vertex
            v_ground = (masks[p] & masks[q]).bit_length() - 1
            base = pattern.color_of(parts[v_ground][p], parts[v_ground][q])
            colors[edge] = copy_idx * params.ell + base
    coloring = EdgeColoring(t, sorted(colors.items()))

    mono = find_mono_clique(final, coloring, b)
    palettes = {
        i: list(range(i * params.ell + 1, (i + 1) * params.ell + 1))
        for i in range(params.beta + 1)
    }
    used = sorted(coloring.colors_used())
    over = next((c for c in used if c > t), None)

    s_partite = _check_complete_s_partite(sparsified)
    uncovered = {
        order: uncovered_clique(incidence, cover, order) for order in COVERED_CLIQUE_ORDERS
    }

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
