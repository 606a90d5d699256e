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

from .construct import DensityProfile, SparsifiedIncidence, blow_up, density_profile, dyadic_profile
from .graphs import Graph, GraphError, enumerate_cliques
from .util import iter_bits

# above this many transversals the witness keeps counts only
MATERIALIZE_LIMIT = 200_000


@dataclass(frozen=True)
class WitnessSubgraph:
    hyperedges: tuple[tuple[int, ...], ...] | None  # None when above MATERIALIZE_LIMIT
    e_count: int
    codegrees: dict[int, int]


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

    s, part_masks = sparsified.s, sparsified.part_masks
    ell, dominant = dyadic_profile(sparsified.member_masks, x_mask)
    profile = density_profile(ell, dominant, part_masks, x_mask, s)
    evenly = profile.evenly_partitioned
    part_lists = {v: [list(iter_bits(pm & x_mask)) for pm in part_masks[v]] for v in evenly}

    e_count = sum(math.prod(len(lst) for lst in part_lists[v]) for v in evenly)

    hyperedges = None
    if e_count <= MATERIALIZE_LIMIT:
        hyperedges = tuple(sorted(
            tuple(sorted(combo)) for v in evenly for combo in itertools.product(*part_lists[v])
        ))
    codegrees = _exact_codegrees(evenly, part_lists, s)
    return profile, WitnessSubgraph(hyperedges, e_count, codegrees)


def _exact_codegrees(evenly, part_lists, s) -> dict[int, int]:
    codegrees = {i: 0 for i in range(1, s + 1)}
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


def _codegree_units(density: float, s: int) -> list[float]:
    """density^(1-(i-1)/(s-1)) for i = 1..s: the codegree bounds at lam = 1."""
    return [density ** (1 - (i - 1) / (s - 1) if s > 1 else 1.0) for i in range(1, s + 1)]


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
    (alpha, lam), defaulting to the least pair the witness meets at
    |X| = X_size: alpha = e/|X|^s, and lam = max_i Delta_i/(e/|X|)^(1-(i-1)/(s-1))
    stepped up to the first float at which every codegree margin reads >= 1.
    Margins are achieved/required ratios, the edge margin rounded once from
    the exact ratio: >= 1 passes, 0 means an empty witness."""
    if X_size <= 0:
        raise GraphError("X_size must be positive")
    e_count, codegrees = witness.e_count, witness.codegrees
    s = max(codegrees) if codegrees else 1
    units = _codegree_units(e_count / X_size, s)

    def codegree_margins(lam) -> dict[int, float]:
        return {i: math.inf if not codegrees.get(i) else float(lam) * unit / codegrees[i]
                for i, unit in enumerate(units, 1)}

    minimal_alpha = Fraction(e_count, X_size ** s)
    minimal_lambda = max(
        (codegrees.get(i, 0) / unit for i, unit in enumerate(units, 1) if unit > 0), default=0.0
    )
    # the quotient can round so that its margin reads below 1: step up (a
    # zero unit's margin is 0 at every lam)
    while any(0.0 < m < 1.0 for m in codegree_margins(minimal_lambda).values()):
        minimal_lambda = math.nextafter(minimal_lambda, math.inf)
    if alpha is None:
        alpha = minimal_alpha
    if lam is None:
        lam = minimal_lambda

    required_edges = Fraction(alpha) * X_size ** s
    edge_margin = float(e_count / required_edges) if required_edges > 0 else math.inf
    margins = codegree_margins(lam)
    passes = edge_margin >= 1.0 and all(mg >= 1.0 for mg in margins.values())
    return DensityReport(edge_margin, margins, passes, minimal_alpha, minimal_lambda)


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
    K_s-hypergraph, plus the exact vertex/edge count identities; BudgetError
    when either graph holds more copies of K_s than ``enumerate_cliques`` lists."""
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
