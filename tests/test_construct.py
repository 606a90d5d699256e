"""Construction pipeline: packing, sparsification, blow-up, overlay, and the
end-to-end certified instances."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab.construct import (
    CertificationError,
    ConstructionParams,
    _sample_draws,
    blow_up,
    build_linear_tf_hypergraph,
    certificate_passes,
    construct_upper_bound_instance,
    dyadic_profile,
    evenly_partitioned,
    overlay_and_retain,
    sparsify,
)
from erlab.freeness import UnsupportedParametersError, find_mono_clique
from erlab.graphs import (
    Graph,
    GraphError,
    LinearHypergraph,
    enumerate_cliques,
    incidence_graph,
    uncovered_clique,
    validate_hypergraph,
)

from erlab.util import make_rng

from oracles import random_graph, reference_linear_tf_hypergraph


def sunflower(petals, center=0):
    """R=3 sunflower: incidence graph is a single clique K_petals."""
    edges = [(center, 2 * i + 1, 2 * i + 2) for i in range(petals)]
    return LinearHypergraph(2 * petals + 1, 3, edges)


class TestBuilder:
    def test_small_instances(self):
        H, report = build_linear_tf_hypergraph(7, 3, seed=1)
        rep = validate_hypergraph(H)
        assert rep.linear and rep.triangle_free
        assert H.m <= 7  # packing ceiling n(n-1)/(R(R-1))
        H3, _ = build_linear_tf_hypergraph(3, 3, seed=0)
        assert H3.m == 1

    def test_rejects_bad_uniformity(self):
        with pytest.raises(GraphError):
            build_linear_tf_hypergraph(5, 6, seed=0)
        with pytest.raises(GraphError):
            build_linear_tf_hypergraph(5, 2, seed=0)

    def test_deterministic(self):
        a, _ = build_linear_tf_hypergraph(30, 3, seed=9)
        b, _ = build_linear_tf_hypergraph(30, 3, seed=9)
        c, _ = build_linear_tf_hypergraph(30, 3, seed=10)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_certified_output_covers_triangles(self):
        H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
        g, cover = incidence_graph(H)
        assert uncovered_clique(g, cover, 3) is None
        assert uncovered_clique(g, cover, 4) is None

    def test_report_fields(self):
        _, report = build_linear_tf_hypergraph(20, 3, seed=2)
        assert report["edges"] >= 1
        assert 0 < report["ratio_to_ceiling"] <= 1.5


# random.sample keeps a pool when n <= setsize = 21 + (4**ceil(log4(3R)) if R > 5),
# i.e. n <= 21 for R <= 5 and n <= 85 for R in {6, 7}; above it, a set of picks.
POOL_SHAPES = [(6, 6), (19, 5), (21, 5), (32, 6), (64, 6), (85, 7)]
SET_SHAPES = [(22, 5), (37, 5), (38, 5), (41, 3), (86, 7), (100, 4), (128, 7), (256, 8)]


class TestPackingStream:
    @pytest.mark.parametrize("n,R", POOL_SHAPES + SET_SHAPES)
    def test_draws_match_random_sample(self, n, R):
        for seed in (0, 3):
            rng, twin = make_rng(seed, "draws"), make_rng(seed, "draws")
            for draw in _sample_draws(rng, n, R, 300):
                assert draw == twin.sample(range(n), R)
            assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize(
        "n,R,seed,budget",
        # enumerate branch (C(n, R) <= 10 000), then both sample branches at the
        # default budget, at a short budget, and at budgets of zero and below
        [(n, R, 1, None) for n, R in [(7, 3), (16, 4), (20, 3), (40, 3)]]
        + [(n, R, seed, None) for n, R in [(21, 5), (64, 6), (85, 7)] for seed in (0, 7)]
        + [(n, R, seed, None) for n, R in [(38, 5), (86, 7), (100, 4), (128, 7)] for seed in (0, 7)]
        + [(n, R, 4, 3000) for n, R in POOL_SHAPES[1:] + SET_SHAPES + [(1024, 10)]]
        + [(64, 5, 1, 0), (64, 5, 1, -2)],
    )
    def test_matches_reference_packer(self, n, R, seed, budget):
        H, report = build_linear_tf_hypergraph(n, R, seed, sample_budget=budget)
        H_ref, report_ref = reference_linear_tf_hypergraph(n, R, seed, sample_budget=budget)
        assert H.edges == H_ref.edges
        assert report == report_ref


class TestEvenPartition:
    def test_spec_splits(self):
        assert evenly_partitioned(6, [3, 3], 2)       # 3 >= 6/3
        assert not evenly_partitioned(6, [6, 0], 2)   # 0 < 6/3
        assert evenly_partitioned(0, [0, 0], 2)       # vacuous

    def test_dyadic_classes(self):
        classes, ell = dyadic_profile({1: 3, 2: 0, 3: 1, 4: 8})
        assert classes == {2: [1], 1: [3], 4: [4]}
        assert ell == 4  # sums: class2=3, class1=1, class4=8
        # tie goes to the smaller index: class 2 and class 3 both sum to 4
        _, ell2 = dyadic_profile({1: 4, 2: 2, 3: 2})
        assert ell2 == 2
        _, ell3 = dyadic_profile({1: 4, 2: 4})
        assert ell3 == 3


class TestSparsify:
    def test_single_clique_complete_s_partite(self):
        g, cover = incidence_graph(sunflower(10))
        sp = sparsify(g, cover, 5, seed=3, threshold=g.n + 1)
        parts = sp.partition.parts[0]
        for a, b in itertools.combinations(range(10), 2):
            assert sp.graph.has_edge(a, b) == (parts[a] != parts[b])

    def test_no_k_s_plus_1_within_clique(self):
        g, cover = incidence_graph(sunflower(12))
        sp = sparsify(g, cover, 4, seed=5, threshold=g.n + 1)
        assert enumerate_cliques(sp.graph, 5) == []

    def test_never_adds_edges(self):
        H, _ = build_linear_tf_hypergraph(40, 3, seed=6)
        g, cover = incidence_graph(H)
        sp = sparsify(g, cover, 3, seed=6, threshold=g.n + 1)
        for u, v in sp.graph.edges():
            assert g.has_edge(u, v)

    def test_nonvacuous_certificate_passes(self):
        H, _ = build_linear_tf_hypergraph(128, 3, seed=7)
        g, cover = incidence_graph(H)
        sp = sparsify(g, cover, 2, seed=8, threshold=(4 * g.n) // 5,
                      certification_samples=25)
        cert = sp.certificate
        assert not cert["vacuous"]
        assert all(rec["ok"] for rec in cert["sample_records"])

    def test_impossible_certification_exhausts_retries(self):
        # s=5 on tiny cliques: an intersection of size < 5 can never cover
        # all five parts, so the dominant class never certifies
        H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
        g, cover = incidence_graph(H)
        with pytest.raises(CertificationError) as err:
            sparsify(g, cover, 5, seed=1, certification_samples=10,
                     threshold=g.n // 2, retry_limit=3)
        assert err.value.worst_sample

    def test_inconsistent_cover_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        from erlab.graphs import CliqueCover

        with pytest.raises(GraphError):
            sparsify(g, CliqueCover(1, {0: (0, 1)}), 2, seed=0)


class TestBlowUp:
    def test_identity(self):
        g = random_graph(8, 0.5, seed=1)
        b = blow_up(g, 1)
        assert b.n == g.n and b.edges() == g.edges()

    def test_single_edge_doubles_to_c4(self):
        b = blow_up(Graph(2, [(0, 1)]), 2)
        assert (b.n, b.m) == (4, 4)
        assert not b.has_edge(0, 1) and not b.has_edge(2, 3)

    def test_fibers_independent(self):
        b = blow_up(Graph.complete(3), 3)
        for v in range(3):
            for i, j in itertools.combinations(range(3), 2):
                assert not b.has_edge(3 * v + i, 3 * v + j)

    @given(st.integers(0, 50), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_counts(self, seed, k):
        g = random_graph(7, 0.5, seed=seed)
        b = blow_up(g, k)
        assert b.n == k * g.n
        assert b.m == k * k * g.m

    def test_rejects_k_zero(self):
        with pytest.raises(GraphError):
            blow_up(Graph.complete(2), 0)


def overlay_provenance(graph, permutations):
    """Union edge (x, y), x < y, -> ascending indices of the copies holding
    it, worked out from the permutations and the overlaid graph alone."""
    prov = {}
    for i, perm in enumerate(permutations):
        for u, v in graph.edges():
            x, y = sorted((perm[u], perm[v]))
            prov.setdefault((x, y), []).append(i)
    return prov


class TestOverlay:
    def test_single_copy_full_retention_is_isomorphic(self):
        g = random_graph(12, 0.4, seed=2)
        final, record = overlay_and_retain(g, 1, 1.0, seed=3)
        assert final.n == g.n and final.m == g.m
        perm = record.permutations[0]
        for u, v in g.edges():
            assert final.has_edge(perm[u], perm[v])

    def test_zero_retention(self):
        final, _ = overlay_and_retain(Graph.complete(4), 1, 0.0, seed=0)
        assert final.n == 0 and final.m == 0

    def test_union_bounds_and_provenance(self):
        g = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
        final, record = overlay_and_retain(g, 2, 1.0, seed=5)
        assert 10 <= final.m <= 20
        assert record.retained == tuple(range(10))
        # every union edge has a contributing copy, and nothing else is in the union
        prov = overlay_provenance(g, record.permutations)
        assert sorted(prov) == final.edges()
        # inverses() undoes each permutation, and finds the same copies
        for perm, inv in zip(record.permutations, record.inverses()):
            assert [inv[x] for x in perm] == list(range(10))
        for (x, y), owners in prov.items():
            assert owners == [
                i for i, inv in enumerate(record.inverses()) if g.has_edge(inv[x], inv[y])
            ]

    @pytest.mark.parametrize("copies, retention_p", [(0, 1.0), (1, -0.1), (1, 1.1)])
    def test_bad_arguments_rejected(self, copies, retention_p):
        with pytest.raises(GraphError):
            overlay_and_retain(Graph.complete(3), copies, retention_p, seed=0)

    def test_deterministic(self):
        g = random_graph(9, 0.5, seed=4)
        a, ra = overlay_and_retain(g, 2, 0.7, seed=9)
        b, rb = overlay_and_retain(g, 2, 0.7, seed=9)
        assert a.edges() == b.edges() and ra == rb


class TestParams:
    def test_ell_and_beta(self):
        p = ConstructionParams.derive(5, 3, 2, 64, seed=0)
        assert (p.ell, p.beta) == (2, 0)
        p4 = ConstructionParams.derive(5, 3, 4, 64, seed=0)
        assert (p4.ell, p4.beta) == (2, 1)
        p1 = ConstructionParams.derive(2, 3, 1, 64, seed=0)
        assert (p1.ell, p1.beta) == (1, 0)

    def test_constant(self):
        p = ConstructionParams.derive(5, 3, 2, 64, seed=0)
        assert p.C_const == 32 * 5 * 36

    def test_default_R(self):
        assert ConstructionParams.derive(5, 3, 2, 64, seed=0).R == 6
        assert ConstructionParams.derive(5, 3, 2, 100, seed=0).R == 7


class TestPipeline:
    def test_5_3_2_at_64(self):
        params = ConstructionParams.derive(5, 3, 2, 64, R=5, seed=7)
        bundle = construct_upper_bound_instance(params, 64)
        assert params.ell == 2 and params.beta == 0 and params.k == 1
        assert certificate_passes(bundle.certificate)
        assert find_mono_clique(bundle.final, bundle.coloring, 3) is None

    def test_5_3_4_blowup_overlay(self):
        params = ConstructionParams.derive(5, 3, 4, 32, k=4, R=4, seed=11)
        bundle = construct_upper_bound_instance(params, 32)
        assert params.beta == 1
        used = bundle.coloring.colors_used()
        assert used <= {1, 2, 3, 4}
        assert find_mono_clique(bundle.final, bundle.coloring, 3) is None
        # per-copy palettes are disjoint ranges; every edge takes the color of
        # its lowest contributing copy
        prov = overlay_provenance(bundle.blown, bundle.overlay.permutations)
        lowest_copies = set()
        for a, b in bundle.final.edges():
            x, y = bundle.overlay.retained[a], bundle.overlay.retained[b]
            owners = prov.get((min(x, y), max(x, y)))
            assert owners, f"final edge {(a, b)} has no contributing copy"
            lowest = owners[0]
            lowest_copies.add(lowest)
            color = bundle.coloring.color_of(a, b)
            assert lowest * params.ell < color <= (lowest + 1) * params.ell
        assert lowest_copies == {0, 1}

    def test_s2_single_color(self):
        params = ConstructionParams.derive(2, 3, 1, 32, R=3, seed=5)
        bundle = construct_upper_bound_instance(params, 32)
        assert params.ell == 1
        assert bundle.coloring.colors_used() <= {1}
        assert enumerate_cliques(bundle.final, 3) == []

    def test_vacuous_parameters_rejected(self):
        params = ConstructionParams.derive(5, 3, 1, 32, seed=0)  # ell=2 > t=1
        with pytest.raises(UnsupportedParametersError):
            construct_upper_bound_instance(params, 32)

    def test_reproducible(self):
        params = ConstructionParams.derive(5, 3, 2, 48, R=4, seed=13)
        a = construct_upper_bound_instance(params, 48)
        b = construct_upper_bound_instance(params, 48)
        assert a.final.edges() == b.final.edges()
        assert a.coloring.colors == b.coloring.colors
        assert a.certificate == b.certificate

    def test_certificate_shape(self):
        params = ConstructionParams.derive(5, 3, 2, 32, R=4, seed=3)
        bundle = construct_upper_bound_instance(params, 32)
        checks = bundle.certificate["checks"]
        for name in (
            "hypergraph_linear",
            "hypergraph_triangle_free",
            "cliques_of_order_3_covered",
            "cliques_of_order_4_covered",
            "complete_s_partite",
            "mono_clique_free",
            "palette_disjoint",
        ):
            assert name in checks
            assert checks[name]["pass"] is True
