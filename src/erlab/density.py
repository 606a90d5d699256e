"""Uniform-density measurements on sparsified incidence graphs: the dyadic
profile of a vertex subset, the transversal witness sub-hypergraph with exact
edge counts and codegrees, the two inequality families, and the blow-up
transfer check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .construct import DensityProfile, SparsifiedIncidence, blow_up, density_profile
from .graphs import Graph, GraphError, enumerate_cliques
from .util import iter_bits

# above this many transversals the witness keeps counts only
MATERIALIZE_LIMIT = 200_000


@dataclass(frozen=True)
class WitnessSubgraph:
    hyperedges: tuple[tuple[int, ...], ...] | None  # None when above MATERIALIZE_LIMIT
    e_count: int
    codegrees: dict[int, int]
    params: tuple  # (N, m, alpha, lam)


def density_witness(sparsified: SparsifiedIncidence, X) -> tuple[DensityProfile, WitnessSubgraph]:
    """Dyadic profile of X plus the witness sub-hypergraph made of the
    part-transversals of evenly partitioned dominant-class cliques.

    The edge count is the exact product formula; codegrees are exact (for
    i >= 2 a vertex set lies in at most one clique, so the maximum is a
    per-clique product over the untouched parts).
    """
    X = sorted(set(X))
    if not X:
        raise GraphError("X must be non-empty")
    x_mask = 0
    for u in X:
        x_mask |= 1 << u

    s = sparsified.s
    cover = sparsified.cover
    clique_ids = sorted(cover.cliques)
    part_masks = {v: sparsified.partition.part_masks(v) for v in clique_ids}
    profile = density_profile(
        {v: cover.member_mask(v) for v in clique_ids}, part_masks, x_mask, s
    )
    evenly = profile.evenly_partitioned
    part_lists = {v: [list(iter_bits(pm & x_mask)) for pm in part_masks[v]] for v in evenly}

    e_count = sum(math.prod(len(lst) for lst in part_lists[v]) for v in evenly)

    hyperedges = None
    if e_count <= MATERIALIZE_LIMIT:
        hyperedges = tuple(sorted(
            tuple(sorted(combo)) for v in evenly for combo in itertools.product(*part_lists[v])
        ))

    codegrees = _exact_codegrees(evenly, part_lists, s, e_count)
    m = len(X)
    alpha_min = Fraction(e_count, m ** s)
    lam_min = _minimal_lambda(codegrees, e_count, m, s)
    witness = WitnessSubgraph(
        hyperedges=hyperedges,
        e_count=e_count,
        codegrees=codegrees,
        params=(sparsified.graph.n, m, alpha_min, lam_min),
    )
    return profile, witness


def _exact_codegrees(evenly, part_lists, s, e_count) -> dict[int, int]:
    codegrees = {i: 0 for i in range(1, s + 1)}
    if e_count == 0:
        return codegrees

    # an evenly partitioned clique meets X in every part: (s+1)|part| >= a_v >= 1
    # i = 1: a vertex may lie in several cliques; sum its per-clique counts
    per_vertex: dict[int, int] = {}
    for v in evenly:
        lists = part_lists[v]
        total = math.prod(len(lst) for lst in lists)
        for lst in lists:
            for x in lst:
                per_vertex[x] = per_vertex.get(x, 0) + total // len(lst)
    codegrees[1] = max(per_vertex.values(), default=0)

    # i >= 2: at most one common clique; hit the i smallest parts
    for v in evenly:
        sizes = sorted(len(lst) for lst in part_lists[v])
        for i in range(2, s + 1):
            codegrees[i] = max(codegrees[i], math.prod(sizes[i:]))
    return codegrees


def _minimal_lambda(codegrees, e_count, m, s) -> float:
    if e_count == 0:
        return 0.0
    density = e_count / m
    lam = 0.0
    for i in range(1, s + 1):
        exponent = 1 - (i - 1) / (s - 1) if s > 1 else 1.0
        bound_unit = density ** exponent
        if bound_unit > 0:
            lam = max(lam, codegrees[i] / bound_unit)
    return lam


@dataclass(frozen=True)
class DensityReport:
    edge_margin: float
    codegree_margins: dict[int, float]
    passes: bool
    minimal_alpha: Fraction
    minimal_lambda: float


def check_uniform_density(
    witness: WitnessSubgraph,
    X_size: int,
    alpha=None,
    lam=None,
) -> DensityReport:
    """Evaluate the edge-count and codegree inequality families at the given
    (alpha, lam), defaulting to the witness's stored parameters.  Margins are
    achieved/required ratios: >= 1 passes, 0 means an empty witness."""
    if X_size <= 0:
        raise GraphError("X_size must be positive")
    _, _, alpha_stored, lam_stored = witness.params
    if alpha is None:
        alpha = alpha_stored
    if lam is None:
        lam = lam_stored
    s = max(witness.codegrees) if witness.codegrees else 1

    required_edges = float(alpha) * X_size ** s
    edge_margin = witness.e_count / required_edges if required_edges > 0 else math.inf

    codegree_margins = {}
    density = witness.e_count / X_size
    for i in range(1, s + 1):
        exponent = 1 - (i - 1) / (s - 1) if s > 1 else 1.0
        bound = float(lam) * density ** exponent
        delta = witness.codegrees.get(i, 0)
        codegree_margins[i] = math.inf if delta == 0 else bound / delta

    passes = edge_margin >= 1.0 and all(mg >= 1.0 for mg in codegree_margins.values())
    X = X_size
    minimal_alpha = Fraction(witness.e_count, X ** s)
    minimal_lambda = _minimal_lambda(witness.codegrees, witness.e_count, X, s)
    return DensityReport(edge_margin, codegree_margins, passes, minimal_alpha, minimal_lambda)


# ---------------------------------------------------------------------------
# blow-up transfer


def hypergraph_blow_up(hyperedges, k: int) -> set[tuple[int, ...]]:
    """k-blow-up of an s-uniform edge set under v -> {v*k, .., v*k + k-1}."""
    out = set()
    for edge in hyperedges:
        fibers = [[v * k + j for j in range(k)] for v in edge]
        for combo in itertools.product(*fibers):
            out.add(tuple(sorted(combo)))
    return out


def blow_up_transfer_report(graph: Graph, k: int, s: int) -> dict:
    """Compare the K_s-hypergraph of the k-blow-up with the k-blow-up of the
    K_s-hypergraph, plus the exact vertex/edge count identities."""
    blown = blow_up(graph, k)
    lifted = hypergraph_blow_up(enumerate_cliques(graph, s), k)
    direct = set(enumerate_cliques(blown, s))
    return {
        "equal": lifted == direct,
        "lifted_count": len(lifted),
        "direct_count": len(direct),
        "vertices_ok": blown.n == k * graph.n,
        "edges_ok": blown.m == k * k * graph.m,
    }
