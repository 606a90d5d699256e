"""Construction pipeline: packing, sparsification, blow-up, overlay, and the
end-to-end certified instances."""

import collections
import functools
import hashlib
import itertools
import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlab import construct, graphs
from erlab.construct import (
    CertificationError,
    ConstructionParams,
    SparsifiedIncidence,
    _check_complete_s_partite,
    blow_up,
    build_linear_tf_hypergraph,
    certificate_passes,
    construct_upper_bound_instance,
    density_profile,
    dyadic_profile,
    evenly_partitioned,
    overlay_and_retain,
    sample_sets,
    sparsify,
)
from erlab.freeness import UnsupportedParametersError, find_mono_clique
from erlab.graphs import (
    CliqueCover,
    EdgeColoring,
    Graph,
    GraphError,
    LinearHypergraph,
    NonLinearError,
    enumerate_cliques,
    incidence_graph,
    uncovered_clique,
    validate_hypergraph,
)

from erlab.util import derive_seed, iter_bits, make_rng

from oracles import (
    indexed_linear_triangle_free,
    naive_linear_triangle_free,
    naive_overlay,
    naive_s_partite_witness,
    naive_sparsify_certificate,
    part_of,
    random_graph,
    reference_instance_coloring,
    reference_linear_tf_hypergraph,
)


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

    def test_rejects_compat_rows_above_the_mask_limit(self, monkeypatch):
        # n = 20 000 would allocate 20 000 rows of 2 500 bytes: refused before any row
        def unseeded(*parts):
            raise AssertionError("packing started")

        monkeypatch.setattr(construct, "make_rng", unseeded)
        with pytest.raises(GraphError, match="^packing n=20000 needs 50000000 bytes of compat "
                                             "rows, above the limit 16777216$"):
            build_linear_tf_hypergraph(20000, 5, seed=0)

    def test_compat_row_limit_is_inclusive(self, monkeypatch):
        # 64 rows of 8 bytes fill a 512-byte limit; 65 rows of 9 bytes exceed it
        monkeypatch.setattr(construct, "MASK_BYTES_LIMIT", 64 * 8)
        assert build_linear_tf_hypergraph(64, 5, seed=0)[0].n == 64
        with pytest.raises(GraphError, match="n=65 needs 585 bytes"):
            build_linear_tf_hypergraph(65, 5, seed=0)

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
        H, report = build_linear_tf_hypergraph(20, 3, seed=2)
        assert report["edges"] == H.m >= 1
        assert 0 < report["ratio_to_ceiling"] <= 1.5
        # bench/tracer.py reads edges and candidates_tried; every accepted
        # edge is one attempt, and packing ends on _STALL_LIMIT failed ones
        assert report["candidates_tried"] >= H.m + construct._STALL_LIMIT

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_packing_is_linear_and_triangle_free(self, data):
        R = data.draw(st.integers(3, 6), label="R")
        n = data.draw(st.integers(R, 22), label="n")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        H, report = build_linear_tf_hypergraph(n, R, seed)
        assert H.m == report["edges"] >= 1
        assert all(len(set(e)) == R and 0 <= min(e) and max(e) < n for e in H.edges)
        assert naive_linear_triangle_free(H.edges) == (True, True)

    @pytest.mark.parametrize("n,R,seed,edges,tried,digest", [
        # the battery's n=1024 and R=7 shapes, the (5,3,4) grid's n=64 and
        # n=128, small shapes at R=5 and R=7, and the (5,3,2) grid's n=48
        (1024, 10, 7, 377, 1105, "b9816d492db33597f1c35971bfefc26f63b20e0d1a7294aa6cf90f73bcdd39ae"),
        (256, 7, 7, 117, 916, "457a34348f87bba59fc6457682dd551f11d3a16a0c8a7410526be1a78398c2db"),
        (64, 6, 1, 17, 225, "0ea84e077e0b849c44c4d3a9e4308e5fc55db48b68a4fad4e4fdab4dac905289"),
        (128, 7, 1, 41, 286, "a0a1f7815042268f017c355ad97be9b7b4040532e59ff1134efa445f9c799be3"),
        (21, 5, 1, 6, 206, "8c2a69f89137cf64e2dc259e80488b82631cb8eb354739c1ea77c307f18fd618"),
        (48, 6, 1, 12, 212, "115275fc906e2303c5f7712a8845a7df985e9632d5ecb1452fac1097d0692145"),
        (85, 7, 1, 21, 283, "5dbcd3fce0d5f10c1619ffb0b50ebed6c21374bc0a5980ff0aafb35e2cac86ff"),
    ])
    def test_golden_packing(self, n, R, seed, edges, tried, digest):
        H, report = build_linear_tf_hypergraph(n, R, derive_seed(seed, "hyper"))
        assert report["edges"] == H.m == edges
        assert report["candidates_tried"] == tried
        assert hashlib.sha256(json.dumps(H.edges).encode()).hexdigest() == digest


# shapes at R = n, then the (5,3,4) grid's and the battery's shapes, and a
# spread of n per R on both sides of _random_member's one-eighth switch
SMALL_SHAPES = [(3, 3), (5, 5), (7, 3), (16, 4), (20, 3), (40, 3)]
GRID_SHAPES = [(21, 5), (48, 6), (64, 6), (85, 7), (128, 7), (256, 7)]
SPREAD_SHAPES = [(19, 5), (22, 5), (32, 6), (37, 5), (38, 5), (41, 3), (86, 7), (100, 4), (256, 8)]

# _random_member's index branch (fewer than n/8 bits set), the switch
# itself, and its rejection branch; then the widths it draws by hand: a
# power-of-two and a single-member count, a rejection range that is not a
# power of two, and the switch at n = 1024
MEMBER_MASKS = [
    (64, [5]), (64, [0, 9, 33, 40, 51, 60, 63]), (64, list(range(0, 64, 8))),
    (64, list(range(1, 64, 2))), (64, list(range(1, 64))), (1024, [3, 500, 1023]),
    (1024, list(range(7, 1024, 16))), (1024, [700]), (1000, list(range(1, 1000, 2))),
    (1024, list(range(3, 1024, 8))),
]


def assert_randrange_replay(n, bits, seed, draws=50):
    """``_random_member`` returns what the reference packer's ``randrange``
    protocol returns and leaves the stream where it leaves it: rejection over
    range(n) while at least an eighth of range(n) is set, else index by rank."""
    mask = sum(1 << b for b in bits)
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        if 8 * len(bits) >= n:
            expected = twin.randrange(n)
            while not mask >> expected & 1:
                expected = twin.randrange(n)
        else:
            expected = bits[twin.randrange(len(bits))]
        assert construct._random_member(rng, mask, n) == expected
    assert rng.getstate() == twin.getstate()


class TestRandomExtension:
    @pytest.mark.parametrize(
        "n,R,seed",
        [(n, R, 1) for n, R in SMALL_SHAPES]
        + [(n, R, seed) for n, R in GRID_SHAPES for seed in (0, 7)]
        + [(n, R, 4) for n, R in SPREAD_SHAPES]
        + [(1024, 10, 7)],
    )
    def test_matches_reference_packer(self, n, R, seed):
        H, report = build_linear_tf_hypergraph(n, R, seed)
        H_ref, report_ref = reference_linear_tf_hypergraph(n, R, seed, construct._STALL_LIMIT)
        assert H.edges == H_ref.edges
        assert report == report_ref

    @pytest.mark.parametrize("limit", [1, 2, 5, 50])
    @pytest.mark.parametrize("n,R", [(16, 4), (64, 6), (128, 7)])
    def test_stall_limit_matches_reference_packer(self, monkeypatch, n, R, limit):
        monkeypatch.setattr(construct, "_STALL_LIMIT", limit)
        H, report = build_linear_tf_hypergraph(n, R, 3)
        H_ref, report_ref = reference_linear_tf_hypergraph(n, R, 3, limit)
        assert H.edges == H_ref.edges
        assert report == report_ref
        # every accepted edge is one attempt, and the last `limit` attempts failed
        assert report["candidates_tried"] >= H.m + limit

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_shapes_match_reference_packer(self, data):
        R = data.draw(st.integers(3, 10), label="R")
        n = data.draw(st.integers(R, 160), label="n")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        limit = data.draw(st.integers(1, 60), label="limit")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_STALL_LIMIT", limit)
            H, report = build_linear_tf_hypergraph(n, R, seed)
        H_ref, report_ref = reference_linear_tf_hypergraph(n, R, seed, limit)
        assert H.edges == H_ref.edges
        assert report == report_ref

    @pytest.mark.parametrize("n,R,seed", [
        (1024, 10, 7), (256, 7, 7), (64, 6, 1), (128, 7, 1), (21, 5, 1), (48, 6, 1), (85, 7, 1),
    ])
    def test_golden_shapes_are_linear_and_triangle_free(self, n, R, seed):
        H, _ = build_linear_tf_hypergraph(n, R, derive_seed(seed, "hyper"))
        assert indexed_linear_triangle_free(H.edges) == (True, True)

    @pytest.mark.parametrize("R", [3, 5, 8])
    def test_ground_set_of_size_R_packs_one_edge(self, R):
        # the first attempt takes every vertex; then no vertex is compatible
        H, report = build_linear_tf_hypergraph(R, R, 2)
        assert H.edges == (tuple(range(R)),)
        assert report["candidates_tried"] == 1 + construct._STALL_LIMIT

    @pytest.mark.parametrize("n,bits", MEMBER_MASKS)
    def test_random_member_is_uniform_over_the_mask(self, n, bits):
        mask = sum(1 << b for b in bits)
        rng = random.Random(11)
        draws = 300 * len(bits)
        counts = collections.Counter(construct._random_member(rng, mask, n) for _ in range(draws))
        assert set(counts) == set(bits)
        assert all(200 <= c <= 400 for c in counts.values())

    @pytest.mark.parametrize("n,bits", MEMBER_MASKS)
    def test_random_member_draw_protocol(self, n, bits):
        assert_randrange_replay(n, bits, seed=5)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_member_draw_protocol_on_random_masks(self, data):
        n = data.draw(st.integers(2, 2100), label="n")
        bits = sorted(data.draw(st.one_of(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n // 8 + 2),  # about the switch
            st.integers(1, (1 << n) - 1).map(lambda m: set(iter_bits(m))),
        ), label="bits"))
        assert_randrange_replay(n, bits, seed=data.draw(st.integers(0, 2**32), label="seed"))


class TestEvenPartition:
    def test_spec_splits(self):
        assert evenly_partitioned(6, [3, 3], 2)       # 3 >= 6/3
        assert not evenly_partitioned(6, [6, 0], 2)   # 0 < 6/3
        assert evenly_partitioned(0, [0, 0], 2)       # vacuous

    @pytest.mark.parametrize("s", range(2, 7))
    def test_fewer_than_s_vertices_never_even(self, s):
        # density_profile skips these cliques without counting their parts
        for a in range(1, s):
            for counts in itertools.product(range(a + 1), repeat=s):
                if sum(counts) == a:
                    assert not evenly_partitioned(a, list(counts), s)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 24), st.integers(1, 6), st.data())
    def test_density_profile_matches_naive_filter(self, s, n, cliques, data):
        # each clique's members split into s disjoint part masks; part -1 is a non-member
        part_masks = {}
        for v in range(cliques):
            parts = data.draw(st.lists(st.integers(-1, s - 1), min_size=n, max_size=n))
            part_masks[v] = tuple(sum(1 << u for u in range(n) if parts[u] == p)
                                  for p in range(s))
        x_mask = data.draw(st.integers(0, (1 << n) - 1))
        member_masks = {v: functools.reduce(operator.or_, masks)
                        for v, masks in part_masks.items()}
        ell, dominant = dyadic_profile(member_masks, x_mask)
        profile = density_profile(ell, dominant, part_masks, x_mask, s)
        assert profile.evenly_partitioned == tuple(
            v for v, a in dominant.items()
            if evenly_partitioned(a, [(x_mask & pm).bit_count() for pm in part_masks[v]], s)
        )

    def test_dyadic_classes(self):
        x_mask = (1 << 16) - 1
        # a_v = 3, 0, 1, 8 put cliques 1, 3, 4 in classes 2, 1, 4
        masks = {4: 0xFF << 8, 1: 0b111, 2: 1 << 20, 3: 1 << 3}
        assert dyadic_profile(masks, x_mask) == (4, {4: 8})  # sums: 3, 1, 8
        # tie goes to the smaller index: class 2 and class 3 both sum to 4
        assert dyadic_profile({3: 0b11 << 6, 1: 0b1111, 2: 0b11 << 4}, x_mask) == (2, {2: 2, 3: 2})
        ell, dominant = dyadic_profile({2: 0b1111 << 4, 1: 0b1111}, x_mask)
        assert (ell, list(dominant)) == (3, [1, 2])  # ascending clique ids
        assert dyadic_profile(masks, 1 << 30) == (None, {})


class TestSparsify:
    def test_single_clique_complete_s_partite(self):
        rep = validate_hypergraph(sunflower(10))
        sp = sparsify(rep, 5, seed=3, threshold=rep.incidence.n + 1)
        parts = part_of(sp.part_masks)[0]
        for a, b in itertools.combinations(range(10), 2):
            assert sp.graph.has_edge(a, b) == (parts[a] != parts[b])

    def test_no_k_s_plus_1_within_clique(self):
        rep = validate_hypergraph(sunflower(12))
        sp = sparsify(rep, 4, seed=5, threshold=rep.incidence.n + 1)
        assert enumerate_cliques(sp.graph, 5) == []

    def test_never_adds_edges(self):
        H, _ = build_linear_tf_hypergraph(40, 3, seed=6)
        rep = validate_hypergraph(H)
        g = rep.incidence
        sp = sparsify(rep, 3, seed=6, threshold=g.n + 1)
        for u, v in sp.graph.edges():
            assert g.has_edge(u, v)

    def test_nonvacuous_certificate_passes(self):
        H, _ = build_linear_tf_hypergraph(128, 3, seed=7)
        rep = validate_hypergraph(H)
        sp = sparsify(rep, 2, seed=8, threshold=(4 * rep.incidence.n) // 5,
                      certification_samples=25)
        cert = sp.certificate
        assert not cert["vacuous"]
        assert all(rec["ok"] for rec in cert["sample_records"])

    def test_impossible_certification_exhausts_retries(self, monkeypatch):
        # s=5 on tiny cliques: an intersection of size < 5 can never cover
        # all five parts, so the dominant class never certifies
        monkeypatch.setattr(construct, "RETRY_LIMIT", 3)
        H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
        rep = validate_hypergraph(H)
        with pytest.raises(CertificationError) as err:
            sparsify(rep, 5, seed=1, certification_samples=10,
                     threshold=rep.incidence.n // 2)
        assert err.value.worst_sample

    @pytest.mark.parametrize("n,seed,samples,digest", [
        # criterion 4's case, then test_nonvacuous_certificate_passes's case
        (256, 11, 100, "140fdd5676e5b874b13df1964cb3662adc2429784be88cbcbf4b898a32708da9"),
        (128, 8, 25, "8957fdde58402dbe58701e4a28e71a2fb5b0b54e8964b010acbfc668c92d0517"),
    ])
    def test_nonvacuous_certificate_golden(self, n, seed, samples, digest):
        # the benchmark's certificates are all vacuous, so these pin the
        # sample records and the sparsified rows byte for byte
        H, _ = build_linear_tf_hypergraph(n, 3, seed=7)
        rep = validate_hypergraph(H)
        sp = sparsify(rep, 2, seed=seed, certification_samples=samples,
                      threshold=(4 * rep.incidence.n) // 5)
        blob = json.dumps(sp.certificate, sort_keys=True) + json.dumps(sp.graph.edges())
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_worst_sample_golden(self, monkeypatch):
        monkeypatch.setattr(construct, "RETRY_LIMIT", 3)
        H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
        rep = validate_hypergraph(H)
        with pytest.raises(CertificationError) as err:
            sparsify(rep, 5, seed=1, certification_samples=10,
                     threshold=rep.incidence.n // 2)
        assert err.value.worst_sample == {
            "size": 63, "ell": 2, "dominant": 38, "evenly_partitioned": 0,
            "ok": False, "fraction": 0.0, "attempt": 0,
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(8, 24), st.integers(0, 2**16), st.integers(0, 12),
           st.data())
    def test_certificate_matches_naive_reference(self, s, n, seed, samples, data):
        H, _ = build_linear_tf_hypergraph(n, 3, seed=seed)
        rep = validate_hypergraph(H)
        g, cover = rep.incidence, rep.cover
        threshold = data.draw(st.integers(0, g.n - 1))
        try:
            sp = sparsify(rep, s, seed, certification_samples=samples, threshold=threshold)
            got = True, sp.certificate
        except CertificationError as err:
            got = False, err.worst_sample
        assert got == naive_sparsify_certificate(g.n, cover.cliques, s, seed, samples, threshold)

    @pytest.mark.parametrize("retry_limit", [1, 3, 32])
    def test_each_sample_profiled_once(self, monkeypatch, retry_limit):
        # (2, 3, 1) at n = 32, R = 3, seed 11 certifies at attempt 29
        monkeypatch.setattr(construct, "RETRY_LIMIT", retry_limit)
        calls = []
        profile = construct.dyadic_profile
        monkeypatch.setattr(construct, "dyadic_profile",
                            lambda *args: calls.append(args) or profile(*args))
        H, _ = build_linear_tf_hypergraph(32, 3, derive_seed(11, "hyper"))
        rep = validate_hypergraph(H)
        try:
            attempts = sparsify(rep, 2, derive_seed(11, "sparsify"),
                                threshold=16).certificate["attempt"] + 1
        except CertificationError:
            attempts = retry_limit
        assert attempts == min(retry_limit, 30)
        assert len(calls) == 100

    @pytest.mark.parametrize("threshold", [3, 11])
    def test_negative_sample_count_rejected(self, threshold):
        with pytest.raises(GraphError, match="^sample count must be non-negative, got -1$"):
            sample_sets(make_rng(0, "samples"), 10, threshold, -1)
        assert sample_sets(make_rng(0, "samples"), 10, threshold, 0) == []

    def test_nonlinear_report_rejected(self):
        # as incidence_graph does: the report's first pair meeting twice
        rep = validate_hypergraph(LinearHypergraph(4, 3, [(0, 1, 2), (0, 1, 3)]))
        with pytest.raises(NonLinearError) as err:
            sparsify(rep, 2, 0)
        assert err.value.pair == (0, 1)

    def test_part_masks_split_each_clique(self):
        H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
        rep = validate_hypergraph(H)
        g, cover = rep.incidence, rep.cover
        sp = sparsify(rep, 3, seed=11, threshold=g.n + 1)
        assert sorted(sp.part_masks) == sorted(cover.cliques)
        for v, masks in sp.part_masks.items():
            assert len(masks) == 3
            assert sum(masks) == cover.member_mask(v) == sp.member_masks[v]
            assert all(a & b == 0 for a, b in itertools.combinations(masks, 2))
        # sparsify hands on the masks it split; a copy derives them from the parts
        copy = SparsifiedIncidence(g, cover, sp.part_masks, 3)
        assert copy.member_masks == sp.member_masks
        assert copy.member_masks is copy.member_masks


class TestCompleteSPartite:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_witness_matches_naive_oracle(self, data):
        # disjoint random cliques over a random graph, each split at random
        n = data.draw(st.integers(2, 12))
        s = data.draw(st.integers(2, 4))
        order = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3)))
        cliques = {v: tuple(order[a:b]) for v, (a, b) in
                   enumerate(zip([0, *cuts], [*cuts, n]))}
        part_masks = {}
        for v, members in cliques.items():
            masks = [0] * s
            for u in members:
                masks[data.draw(st.integers(0, s - 1))] |= 1 << u
            part_masks[v] = tuple(masks)
        density = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
        g = random_graph(n, density, data.draw(st.integers(0, 99)))
        sp = SparsifiedIncidence(g, CliqueCover(len(cliques), cliques), part_masks, s)
        want = naive_s_partite_witness(g, cliques, part_masks)
        assert _check_complete_s_partite(sp) == {"pass": want is None, "witness": want}


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
        # each copy relabels g by a bijection, so it holds exactly g.m union
        # edges, and the union loses one edge per edge both copies hold
        for i, perm in enumerate(record.permutations):
            assert sorted(perm) == list(range(10))
            assert sum(i in owners for owners in prov.values()) == g.m
        assert all(owners in ([0], [1], [0, 1]) for owners in prov.values())
        assert final.m == 2 * g.m - sum(len(owners) == 2 for owners in prov.values())

    @pytest.mark.parametrize("copies, retention_p", [(0, 1.0), (1, -0.1), (1, 1.1)])
    def test_bad_arguments_rejected(self, copies, retention_p):
        with pytest.raises(GraphError):
            overlay_and_retain(Graph.complete(3), copies, retention_p, seed=0)

    @given(st.integers(0, 10_000), st.integers(1, 9), st.sampled_from([0.2, 0.5, 0.8]),
           st.integers(1, 3), st.integers(1, 3), st.sampled_from([1.0, 0.6]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, seed, n, p, k, copies, retention_p):
        # blow-ups give twin rows, whose images the overlay shares
        g = blow_up(random_graph(n, p, seed=seed), k)
        final, record = overlay_and_retain(g, copies, retention_p, seed=seed)
        want, want_record = naive_overlay(g, copies, retention_p, seed)
        assert final._rows == want._rows
        assert record == want_record

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


# the benchmark's construct battery at seed 7, then a (5,3,4) point that
# drops vertices
_POINT = "s,b,t,n,k,R,retention_p,seed"
_BATTERY_POINTS = [
    (5, 3, 2, 64, 1, 5, 1.0, 7), (5, 3, 2, 128, 1, 5, 1.0, 7), (5, 3, 2, 256, 1, 7, 1.0, 7),
    (5, 3, 4, 64, 4, 5, 1.0, 7), (5, 3, 4, 128, 4, 5, 1.0, 7), (5, 3, 4, 256, 4, 7, 1.0, 7),
    (5, 3, 2, 1024, 1, None, 1.0, 7),
    (5, 3, 4, 64, 4, 5, 0.6, 7),
]


@functools.cache
def _bundle(s, b, t, n, k, R, retention_p, seed):
    params = ConstructionParams.derive(s, b, t, n, k=k, R=R, retention_p=retention_p, seed=seed)
    return construct_upper_bound_instance(params, n)


class TestPipeline:
    def test_5_3_2_at_64(self):
        params = ConstructionParams.derive(5, 3, 2, 64, R=5, seed=7)
        bundle = construct_upper_bound_instance(params, 64)
        assert params.ell == 2 and params.beta == 0 and params.k == 1
        assert certificate_passes(bundle.certificate)
        assert find_mono_clique(bundle.final, bundle.coloring, 3) is None

    def test_5_3_4_blowup_overlay(self):
        self._check_lowest_copy_colors(1.0)

    def test_5_3_4_partial_retention(self):
        self._check_lowest_copy_colors(0.8)

    @staticmethod
    def _check_lowest_copy_colors(retention_p):
        params = ConstructionParams.derive(5, 3, 4, 32, k=4, R=4, retention_p=retention_p,
                                           seed=11)
        bundle = construct_upper_bound_instance(params, 32)
        assert params.beta == 1
        blown = blow_up(bundle.sparsified.graph, params.k)
        assert (bundle.final.n < blown.n) == (retention_p < 1)
        used = set(bundle.coloring.colors.values())
        assert used <= {1, 2, 3, 4}
        assert bundle.certificate["checks"]["palette_disjoint"]["witness"] is None
        assert find_mono_clique(bundle.final, bundle.coloring, 3) is None
        # per-copy palettes are disjoint ranges; every edge takes the color of
        # its lowest contributing copy
        prov = overlay_provenance(blown, bundle.overlay.permutations)
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
        # (2,3,1) at n=32, R=3 certifies on 8 of seeds 1-20; seed 1 is the first
        params = ConstructionParams.derive(2, 3, 1, 32, R=3, seed=1)
        bundle = construct_upper_bound_instance(params, 32)
        assert params.ell == 1
        assert set(bundle.coloring.colors.values()) <= {1}
        assert enumerate_cliques(bundle.final, 3) == []

    @pytest.mark.parametrize(_POINT, [*_BATTERY_POINTS, (2, 3, 1, 32, 1, 3, 1.0, 1)])
    def test_coloring_matches_reference(self, s, b, t, n, k, R, retention_p, seed):
        bundle = _bundle(s, b, t, n, k, R, retention_p, seed)
        assert bundle.coloring.colors == reference_instance_coloring(bundle)

    @pytest.mark.parametrize(_POINT, _BATTERY_POINTS)
    def test_mono_clique_entry_matches_find_mono_clique(self, s, b, t, n, k, R, retention_p,
                                                        seed):
        bundle = _bundle(s, b, t, n, k, R, retention_p, seed)
        mono = find_mono_clique(bundle.final, bundle.coloring, bundle.params.b)
        entry = bundle.certificate["checks"]["mono_clique_free"]
        assert entry == {
            "pass": mono is None,
            "witness": None if mono is None else {"color": mono[0], "clique": list(mono[1])},
        }

    @pytest.mark.parametrize("t, k", [(2, 1), (4, 4)])
    def test_mono_clique_witness_matches_find_mono_clique(self, monkeypatch, t, k):
        # a one-color pattern puts each copy's triangles in its first color
        monkeypatch.setattr(construct, "mono_free_pattern", lambda s, b, ell: EdgeColoring(
            ell, {e: 1 for e in itertools.combinations(range(s), 2)}))
        params = ConstructionParams.derive(5, 3, t, 128, k=k, R=5, seed=7)
        bundle = construct_upper_bound_instance(params, 128)
        color, clique = find_mono_clique(bundle.final, bundle.coloring, 3)
        assert bundle.certificate["checks"]["mono_clique_free"] == {
            "pass": False, "witness": {"color": color, "clique": list(clique)},
        }

    @pytest.mark.parametrize("kind", ["missing", "extra"])
    def test_coloring_must_cover_the_final_graph(self, monkeypatch, kind):
        # the overlay hands on a final graph with one pair flipped, which the
        # coloring, built from the copies, does not follow
        def flipped(*args):
            final, record = overlay_and_retain(*args)
            pair = next(e for e in itertools.combinations(range(final.n), 2)
                        if final.has_edge(*e) == (kind == "extra"))
            flipped.pair = pair
            edges = set(final.edges()) ^ {pair}
            return Graph(final.n, edges), record

        monkeypatch.setattr(construct, "overlay_and_retain", flipped)
        params = ConstructionParams.derive(5, 3, 4, 64, k=4, R=5, seed=7)
        with pytest.raises(GraphError) as exc:
            construct_upper_bound_instance(params, 64)
        assert str(exc.value) == f"coloring does not match graph: {kind} edge {flipped.pair}"

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

    def test_one_meet_pass_per_instance(self, monkeypatch):
        # validation builds H's cover and incidence graph for the pipeline,
        # and sparsification reads them from its report
        calls = collections.Counter()

        def counted(name):
            real = getattr(graphs, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in ("_edges_through", "_meets"):
            monkeypatch.setattr(graphs, name, counted(name))
        params = ConstructionParams.derive(5, 3, 4, 64, k=4, R=5, seed=7)
        construct_upper_bound_instance(params, 64)
        assert calls == {"_edges_through": 1, "_meets": 1}

    def test_one_cover_search_per_instance(self, monkeypatch):
        # validation's triangle search is order 3's cover check, since a
        # linear H's incidence graph is the graph that search runs on, and
        # order 4 follows from it and linearity, so nothing is searched again
        orders = []
        real = graphs.uncovered_clique

        def counted(graph, cover, b):
            orders.append(b)
            return real(graph, cover, b)

        monkeypatch.setattr(graphs, "uncovered_clique", counted)
        params = ConstructionParams.derive(5, 3, 4, 64, k=4, R=5, seed=7)
        bundle = construct_upper_bound_instance(params, 64)
        assert orders == [3]
        checks = bundle.certificate["checks"]
        for order in (3, 4):
            witness = uncovered_clique(bundle.incidence, bundle.cover, order)
            assert checks[f"cliques_of_order_{order}_covered"] == {"pass": witness is None,
                                                                   "witness": witness}
