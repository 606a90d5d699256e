"""Experiment harness, report writers, verify suite, and the CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from erlab import experiment
from erlab.alpha import BudgetError, alpha_exact
from erlab.cli import main
from erlab.experiment import (
    ASYMPTOTIC_LABEL,
    CSV_HEADER,
    ExperimentConfig,
    fit_exponent,
    run_experiment,
    verify_suite,
    write_report,
)


class TestFitExponent:
    def test_exact_square_root_law(self):
        rows = [(n, n ** 0.5) for n in (16, 32, 64, 128)]
        slope, intercept, r2 = fit_exponent(rows)
        assert slope == pytest.approx(0.5)
        assert r2 == pytest.approx(1.0)

    def test_constant_rows(self):
        slope, _, r2 = fit_exponent([(16, 7.0), (32, 7.0), (64, 7.0)])
        assert slope == pytest.approx(0.0)
        assert r2 == pytest.approx(1.0)

    def test_refuses_underdetermined(self):
        with pytest.raises(ValueError):
            fit_exponent([(16, 4.0), (32, 5.0)])
        with pytest.raises(ValueError):
            fit_exponent([(16, 4.0), (16, 5.0), (32, 6.0)])
        with pytest.raises(ValueError):
            fit_exponent([(16, 0.0), (32, 5.0), (64, 6.0)])


def tiny_config(tmp_path, **overrides):
    base = dict(
        s=5, b=3, t=2, n_list=[24, 32, 40], seeds=[1, 2],
        r_policy={"kind": "fixed", "value": 4},
        budgets={"alpha_nodes": 50_000},
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_rows_and_fit(self, tmp_path):
        report = run_experiment(tiny_config(tmp_path))
        assert len(report.rows) == 6
        assert all(row.cert_ok for row in report.rows)
        assert report.fit is not None
        assert report.fit["label"] == ASYMPTOTIC_LABEL
        assert "ci_low" in report.fit and "ci_high" in report.fit
        assert report.label == ASYMPTOTIC_LABEL

    @staticmethod
    def _k4_row(tmp_path, monkeypatch, alpha_nodes):
        """The (5,3,4) k=4 n=24 seed-1 row, whose final graph holds K_5,
        with the search's results recorded."""
        searches = []

        def search(g, s, node_budget):
            searches.append(alpha_exact(g, s, node_budget=node_budget))
            return searches[-1]

        monkeypatch.setattr(experiment, "alpha_exact", search)
        config = tiny_config(tmp_path, t=4, n_list=[24], seeds=[1],
                             k_policy={"kind": "fixed", "value": 4},
                             budgets={"alpha_nodes": alpha_nodes})
        (row,) = run_experiment(config).rows
        (res,) = searches
        return row, res

    def test_complete_search_skips_greedy_and_extractor(self, tmp_path, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("ran after a complete search")

        monkeypatch.setattr(experiment, "greedy_free_subset", unused)
        monkeypatch.setattr(experiment, "recursive_free_subset", unused)
        row, res = self._k4_row(tmp_path, monkeypatch, 3000)
        assert res.complete and row.exact and row.note == ""
        assert row.alpha_lo == row.alpha_hi == res.size

    def test_incomplete_search_keeps_its_best_set(self, tmp_path, monkeypatch):
        def no_extraction(*args, **kwargs):
            raise BudgetError("cap")

        monkeypatch.setattr(experiment, "greedy_free_subset", lambda g, s: ())
        monkeypatch.setattr(experiment, "recursive_free_subset", no_extraction)
        row, res = self._k4_row(tmp_path, monkeypatch, 50)
        assert not res.complete and not row.exact and row.note == "extractor: cap"
        assert row.alpha_lo == res.size > 0
        assert row.alpha_hi == res.upper_bound > res.size

    def test_deterministic_modulo_timing(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path))
        b = run_experiment(tiny_config(tmp_path))
        strip = lambda rows: [
            (r.n, r.seed, r.alpha_lo, r.alpha_hi, r.exact, r.cert_ok) for r in rows
        ]
        assert strip(a.rows) == strip(b.rows)

    def test_report_files(self, tmp_path):
        config = tiny_config(tmp_path)
        report = run_experiment(config)
        write_report(report, config.out_dir)
        out = Path(config.out_dir)
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) == 7
        payload = json.loads((out / "report.json").read_text())
        assert payload["label"] == ASYMPTOTIC_LABEL
        assert (out / "plot.svg").read_text().startswith("<svg")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(s=5, b=3, t=2, n_list=[16], seeds=[])
        with pytest.raises(ValueError):
            ExperimentConfig(s=5, b=3, t=2, n_list=[], seeds=[1])
        for field_name, kwargs in [
            ("^s must be an integer", {"s": "5"}),
            ("^b must be an integer", {"b": 3.0}),
            ("^t must be an integer", {"t": True}),
            ("^out_dir must be a string", {"out_dir": 7}),
            ("seeds", {"seeds": 5}),
            ("seeds", {"seeds": [1, "2"]}),
            ("n_list", {"n_list": [16, True]}),
            ("scan_cap", {"budgets": {"scan_cap": "x"}}),
            ("'exact_threshold' is not one of", {"budgets": {"exact_threshold": 64}}),
            ("alpha_nodes", {"budgets": {"alpha_nodes": 1.5}}),
            ("alpha_node", {"budgets": {"alpha_node": 5}}),
            ("budgets", {"budgets": [5]}),
        ]:
            base = {"s": 5, "b": 3, "t": 2, "n_list": [16], "seeds": [1], **kwargs}
            with pytest.raises(ValueError, match=field_name):
                ExperimentConfig(**base)
        config = ExperimentConfig(s=5, b=3, t=2, n_list=[16], seeds=[1],
                                  budgets={"construct_ms": None, "scan_cap": 10})
        assert config.budgets["construct_ms"] is None

    @pytest.mark.parametrize("name, policy", [
        pytest.param(name, policy, id=name + suffix)
        for name in ("k_policy", "r_policy", "retention_policy")
        for suffix, policy in (("", {"kind": "fxed", "value": 4}), ("-not-a-dict", 4),
                               ("-fixed-without-value", {"kind": "fixed"}))
    ])
    def test_config_rejects_unknown_policy_kind(self, name, policy):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(s=5, b=3, t=2, n_list=[16], seeds=[1], **{name: policy})

    def test_shipped_grid_config(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / "grid_5_3_2.json"
        config = dataclasses.replace(ExperimentConfig.from_file(path),
                                     out_dir=str(tmp_path / "grid"))
        report = run_experiment(config)
        assert len(report.rows) == 14
        assert all(row.cert_ok for row in report.rows)
        assert report.fit is not None

    def test_config_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "s": 5, "b": 3, "t": 2, "n_list": [24, 32, 40], "seeds": [1, 2],
            "r_policy": {"kind": "fixed", "value": 4},
            "budgets": {"alpha_nodes": 50000},
            "out_dir": str(tmp_path / "out"),
        }))
        loaded = ExperimentConfig.from_file(path)
        assert loaded.n_list == config.n_list and loaded.seeds == config.seeds


class TestVerifySuite:
    def test_fast_level_passes(self):
        outcomes = verify_suite("fast")
        assert outcomes and all(oc.passed for oc in outcomes)

    def test_full_level_passes(self):
        outcomes = verify_suite("full")
        assert all(oc.passed for oc in outcomes), [oc for oc in outcomes if not oc.passed]
        pipeline = [oc.name for oc in outcomes if oc.name.startswith("pipeline")]
        assert pipeline == [
            "pipeline(5,3,2)@n=64,k=1,R=5", "pipeline(5,3,2)@n=128,k=1,R=5",
            "pipeline(5,3,2)@n=256,k=1,R=7", "pipeline(5,3,4)@n=64,k=4,R=5",
            "pipeline(5,3,4)@n=128,k=4,R=5", "pipeline(5,3,4)@n=256,k=4,R=7",
            "pipeline(5,3,2)@n=64,k=1,R=6", "pipeline(5,3,4)@n=64,k=4,R=6",
            "pipeline(5,3,2)@n=256,k=1,R=8",
        ]

    def test_bad_level(self):
        with pytest.raises(ValueError):
            verify_suite("paranoid")


class TestCli:
    def test_construct_and_downstream(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        rc = main([
            "construct", "--s", "5", "--b", "3", "--t", "2", "--n", "48",
            "--R", "4", "--seed", "7", "--out-dir", str(inst),
        ])
        assert rc == 0
        for name in ("hypergraph.txt", "incidence.txt", "sparsified.txt",
                     "final.txt", "coloring.txt", "structure.json",
                     "certificate.json"):
            assert (inst / name).exists()
        cert = json.loads((inst / "certificate.json").read_text())
        assert all(check["pass"] for check in cert["checks"].values())
        capsys.readouterr()

        assert main(["density", "--instance", str(inst), "--samples", "3",
                     "--seed", "1", "--threshold", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["samples"]) == 3

        assert main(["alpha", "--graph", str(inst / "final.txt"), "--s", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"]

        assert main(["extract", "--graph", str(inst / "final.txt"),
                     "--coloring", str(inst / "coloring.txt"), "--s", "5",
                     "--t", "2", "--method", "recursive",
                     "--out", str(tmp_path / "witness.txt")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"]
        witness = (tmp_path / "witness.txt").read_text().split()
        assert len(witness) == payload["size"]

    # the sparsified graph has 49 vertices: the default threshold, the
    # ground-set size 64, samples nothing, and 39 samples five sets
    @pytest.mark.parametrize("threshold, vacuous", [(None, True), (39, False)])
    def test_certificate_records_sparsification(self, tmp_path, capsys, threshold, vacuous):
        inst = tmp_path / "inst"
        extra = [] if threshold is None else ["--threshold", str(threshold)]
        assert main(["construct", "--s", "2", "--b", "3", "--t", "2", "--n", "64",
                     "--R", "4", "--seed", "7", "--samples", "5", "--out-dir", str(inst),
                     *extra]) == 0
        assert int((inst / "sparsified.txt").read_text().split()[1]) == 49
        cert = json.loads((inst / "certificate.json").read_text())
        record = cert["sparsification"]
        assert set(record) == {"attempt", "samples", "threshold", "vacuous", "sample_records"}
        assert record["vacuous"] is vacuous
        assert record["threshold"] == (64 if vacuous else threshold)
        assert record["samples"] == len(record["sample_records"]) == (0 if vacuous else 5)
        assert all(r["ok"] and r["size"] >= 39 for r in record["sample_records"])
        assert "sparsification" not in cert["checks"]

    def test_density_says_when_threshold_exceeds_vertices(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        assert main(["construct", "--s", "5", "--b", "3", "--t", "2", "--n", "48",
                     "--R", "4", "--seed", "7", "--out-dir", str(inst)]) == 0
        capsys.readouterr()
        v = int((inst / "sparsified.txt").read_text().split()[1])
        assert main(["density", "--instance", str(inst), "--samples", "3"]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["threshold"] == 48 > v  # the default threshold is the ground-set size
        assert payload["samples"] == [] and payload["fitted"]["alpha"] is None
        assert err.count("\n") == 1 and f"threshold 48 exceeds the {v} vertices" in err

        assert main(["density", "--instance", str(inst), "--samples", "1",
                     "--threshold", str(v)]) == 0
        out, err = capsys.readouterr()
        assert len(json.loads(out)["samples"]) == 1 and err == ""

    @pytest.mark.parametrize("command", ["construct", "density"])
    def test_negative_threshold_rejected(self, tmp_path, capsys, command):
        inst = tmp_path / "inst"
        construct = ["construct", "--s", "5", "--b", "3", "--t", "2", "--n", "48",
                     "--R", "4", "--seed", "7", "--out-dir", str(inst)]
        if command == "construct":
            argv, value = construct + ["--threshold", "-5"], -5
        else:
            assert main(construct) == 0
            capsys.readouterr()
            argv, value = ["density", "--instance", str(inst), "--threshold", "-50"], -50
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"erlab {command}: error: --threshold must be non-negative, got {value}\n"

    def test_exponents_json(self, capsys):
        assert main(["exponents", "--s", "5", "--t", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "20/61"

    def test_order_and_halfseq(self, tmp_path, capsys):
        from erlab import io as eio
        from erlab.freeness import double_c5_coloring

        path = tmp_path / "k5.txt"
        eio.write_coloring(path, double_c5_coloring())
        assert main(["order", "--k", "5", "--coloring", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["checker"] == "ok"
        assert main(["halfseq", "--k", "5", "--coloring", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["checker"] == "ok"

    def test_ramsey_command(self, tmp_path, capsys):
        assert main(["ramsey", "--kind", "local", "--param", "1",
                     "--nmax", "4", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 3
        assert Path(payload["witness_file"]).exists()

    def test_ramsey_time_budget(self, capsys):
        assert main(["ramsey", "--kind", "multicolor", "--param", "2,3",
                     "--nmax", "6", "--budget-ms", "600000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 6

    def test_ramsey_inconclusive_exits_3_with_json(self, capsys):
        rc = main(["ramsey", "--kind", "multicolor", "--param", "3,3", "--nmax", "8",
                   "--budget-nodes", "50"])
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert rc == 3 and err == ""
        assert payload["status"] == "inconclusive" and payload["value"] is None

    def test_ramsey_unknown_exits_0(self, capsys):
        # R(3,3,3) = 17 lies beyond n_max = 4: unknown, not inconclusive
        assert main(["ramsey", "--kind", "multicolor", "--param", "3,3",
                     "--nmax", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "unknown"

    @pytest.mark.parametrize("kind, param, nmax, reason", [
        ("multicolor", "3,x", "4", "'3,x' is not integers 't,b'"),
        ("multicolor", "3", "4", "'3' is not integers 't,b'"),
        ("multicolor", "1,2,3", "4", "'1,2,3' is not integers 't,b'"),
        ("multicolor", "3,2", "4", "'3,2': forbidden clique order must be at least 3"),
        ("multicolor", "0,3", "4", "'0,3': number of colors must be at least 1"),
        ("local", "x", "4", "'x' is not an integer 'k'"),
        ("local", "1.5", "4", "'1.5' is not an integer 'k'"),
        ("local", "-1", "4", "'-1': local bound must be non-negative"),
        # checked before the sweep, which is empty below n = 2
        ("multicolor", "3,2", "1", "'3,2': forbidden clique order must be at least 3"),
        ("local", "-4", "1", "'-4': local bound must be non-negative"),
    ])
    def test_ramsey_rejects_bad_param(self, capsys, kind, param, nmax, reason):
        with pytest.raises(SystemExit) as exc:
            main(["ramsey", "--kind", kind, "--param", param, "--nmax", nmax])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"erlab ramsey: error: --param {reason}\n"  # one line

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["alpha", "--graph", "edge-out-of-range.txt", "--s", "3"], 2,
                     id="alpha-edge-out-of-range"),
        pytest.param(["alpha", "--graph", "missing.txt", "--s", "3"], 2, id="alpha-missing-file"),
        pytest.param(["alpha", "--graph", "k3.txt", "--s", "1"], 2, id="alpha-s-1"),
        pytest.param(["construct", "--s", "1", "--b", "3", "--t", "2", "--n", "24"], 2,
                     id="construct-s-1"),
        pytest.param(["exponents", "--s", "1", "--t", "2"], 2, id="exponents-s-1"),
        pytest.param(["order", "--k", "3", "--coloring", "k3.txt"], 2, id="order-not-a-coloring"),
        pytest.param(["density", "--instance", "missing-dir"], 2, id="density-missing-instance"),
        pytest.param(["exponents", "--s", "45", "--b", "5", "--t", "2", "--upper"], 3,
                     id="exponents-unresolved"),
        pytest.param(["extract", "--graph", "k3.txt", "--coloring", "k3-mono.txt", "--s", "3",
                      "--t", "2", "--method", "recursive"], 1, id="extract-mono-triangle"),
        pytest.param(["construct", "--s", "5", "--b", "3", "--t", "2", "--n", "128", "--R", "4",
                      "--threshold", "20", "--seed", "7"], 1, id="construct-certification-fails"),
    ])
    def test_failure_exit_code(self, tmp_path, monkeypatch, capsys, argv, code):
        monkeypatch.chdir(tmp_path)
        Path("edge-out-of-range.txt").write_text("graph 3 1\n0 5\n")
        Path("k3.txt").write_text("graph 3 3\n0 1\n0 2\n1 2\n")
        Path("k3-mono.txt").write_text("0 1 1\n0 2 1\n1 2 1\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"erlab {argv[0]}: error: ") and err.count("\n") == 1

    def test_extract_alteration_writes_certificate(self, tmp_path, capsys):
        from erlab import io as eio
        from oracles import mono_free_colored_graph

        g, col = mono_free_colored_graph(20, 2, 0.3, seed=3)
        eio.write_graph(tmp_path / "g.txt", g)
        eio.write_coloring(tmp_path / "c.txt", col)
        out = tmp_path / "witness.txt"
        assert main(["extract", "--graph", str(tmp_path / "g.txt"),
                     "--coloring", str(tmp_path / "c.txt"), "--s", "5",
                     "--t", "2", "--method", "alteration",
                     "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"]
        cert = json.loads((tmp_path / "witness.txt.cert.json").read_text())
        assert cert["valid"] and cert["method"] == "alteration"

    @pytest.mark.parametrize("extra, reason", [
        pytest.param({"seed": [1]}, "unexpected keyword argument 'seed'", id="misspelled-key"),
        pytest.param({"k_policy": 4}, "k_policy must be an object with a 'kind', got 4",
                     id="policy-not-a-dict"),
        pytest.param({"r_policy": {"kind": "fixed"}},
                     "r_policy of kind 'fixed' needs an integer 'value', got None",
                     id="fixed-without-value"),
        pytest.param({"seeds": 5}, "seeds must be a non-empty list of integers, got 5",
                     id="seeds-not-a-list"),
        pytest.param({"budgets": {"scan_cap": "x"}},
                     "budgets 'scan_cap' must be an integer, got 'x'",
                     id="budget-not-an-integer"),
        pytest.param({"s": "5"}, "s must be an integer, got '5'", id="s-not-an-integer"),
        pytest.param({"out_dir": 7}, "out_dir must be a string, got 7", id="out-dir-not-a-string"),
    ])
    def test_experiment_rejects_bad_config(self, tmp_path, capsys, extra, reason):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"s": 5, "b": 3, "t": 2, "n_list": [24], **extra}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(config)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"erlab experiment: error: {config}: ")
        assert err.count("\n") == 1 and reason in err

    def test_experiment_command(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "s": 5, "b": 3, "t": 2, "n_list": [24, 32, 40], "seeds": [1],
            "r_policy": {"kind": "fixed", "value": 4},
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["experiment", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "report.csv").exists()
        lines = capsys.readouterr().out.splitlines()
        assert " r2=" in lines[1]
        assert lines[2] == "theoretical exponents: lower 1/2, upper 1/2"
