"""The three workloads: inputs made from the workload seed, the timed calls,
the output checks and the digest of the seeded outputs.

Each workload is a list of operations: one instance, one experiment row or
one oracle call.  Per workload there are five functions with one signature
each: ``inputs(seed, tiny)``, ``count(inputs)`` (operations attempted),
``run(inputs, tracer)``, ``check(inputs, out)`` (one failure reason per
failed operation) and ``digest(inputs, out)`` (the seeded output bytes,
with every timing field removed).

Package functions are looked up on their modules at call time, so a tracer
installed after this import sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from erlab import cli, construct, experiment, freeness, graphs

# (s, b, t, n, k, R); R=None takes the CLI default ceil(log2 n).  The six
# acceptance points plus n=1024, where packing materialises ~262k candidates.
BATTERY = [
    (5, 3, 2, 64, 1, 5),
    (5, 3, 2, 128, 1, 5),
    (5, 3, 2, 256, 1, 7),
    (5, 3, 4, 64, 4, 5),
    (5, 3, 4, 128, 4, 5),
    (5, 3, 4, 256, 4, 7),
    (5, 3, 2, 1024, 1, None),
]
TINY_BATTERY = [(5, 3, 2, 64, 1, 5), (5, 3, 4, 64, 4, 5)]
DENSITY_SAMPLES = 20
# The CLI's default threshold is the ground-set size n, which exceeds the
# vertex count of every sparsified graph here, so no set would be sampled
# and density_witness would never run.  Every instance has more than 16.
DENSITY_THRESHOLD = 16

# (5,3,4) k=4: final graphs contain K_5, so alpha_exact has real work; the
# default (5,3,2) grid has none and its alpha is one linear pass.
#
# alpha_exact's cost per node differs 2-5x between graphs of one size (per-row
# time at a fixed node budget varies by 30-43% of its mean over 16 seeds), so
# the rows that carry most of the alpha work are the acceptance rows {1, 2},
# the same for every workload seed, and the rows made from the workload seed
# run at a tenth of their node budget.  (out_dir, alpha_nodes)
GRID_N = [64, 128]
GRID = [("grid-anchor", 50_000), ("grid-seed", 5_000)]
TINY_GRID_N = [64]
TINY_GRID = [("grid-seed", 2_000)]
ANCHOR_SEEDS = [1, 2]

ORACLES = [("local", 3, 11), ("multicolor", (3, 3), 11)]
TINY_ORACLES = [("local", 2, 7), ("multicolor", (2, 3), 6)]


def _quiet(fn, *args):
    """Call ``fn`` with its standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _set_op(tracer, name):
    if tracer is not None:
        tracer.op = name


# ---------------------------------------------------------------------------
# construct-battery: `erlab construct` then `erlab density` per instance


def _battery_inputs(seed, tiny):
    ops = []
    for s, b, t, n, k, R in TINY_BATTERY if tiny else BATTERY:
        name = f"inst-{s}-{b}-{t}-n{n}-k{k}"
        construct_argv = ["construct", "--s", str(s), "--b", str(b), "--t", str(t),
                          "--n", str(n), "--k", str(k), "--seed", str(seed), "--out-dir", name]
        if R is not None:
            construct_argv += ["--R", str(R)]
        density_argv = ["density", "--instance", name, "--samples", str(DENSITY_SAMPLES),
                        "--threshold", str(DENSITY_THRESHOLD), "--seed", str(seed)]
        ops.append((name, construct_argv, density_argv))
    return ops


def _battery_run(ops, tracer):
    out = {}
    for name, construct_argv, density_argv in ops:
        _set_op(tracer, name)
        try:
            _quiet(cli.main, construct_argv)
            out[name] = {"density": _quiet(cli.main, density_argv)[1]}
        except Exception as exc:  # noqa: BLE001 - a failed call is a failed operation
            out[name] = {"error": repr(exc)}
    return out


def _battery_check(ops, out):
    failures = {}
    for name, _, _ in ops:
        if "error" in out[name]:
            failures[name] = out[name]["error"]
            continue
        cert = json.loads(Path(name, "certificate.json").read_text(encoding="utf-8"))
        if not construct.certificate_passes(cert):
            failures[name] = "certificate fails"
    return failures


def _battery_digest(ops, out):
    items = []
    for name, _, _ in ops:
        if Path(name).is_dir():
            for f in sorted(Path(name).iterdir()):
                items.append((f"{name}/{f.name}", f.read_bytes()))
        items.append((f"{name}/density.json", out[name].get("density", "").encode()))
    return items


# ---------------------------------------------------------------------------
# alpha-k4-grid: run_experiment + write_report at fixed alpha node budgets


def _grid_inputs(seed, tiny):
    return [
        experiment.ExperimentConfig(
            s=5, b=3, t=4,
            n_list=list(TINY_GRID_N if tiny else GRID_N),
            k_policy={"kind": "fixed", "value": 4},
            seeds=list(ANCHOR_SEEDS) if name == "grid-anchor" else [seed],
            budgets={"alpha_nodes": alpha_nodes},
            out_dir=name,
        )
        for name, alpha_nodes in (TINY_GRID if tiny else GRID)
    ]


def _grid_count(configs):
    return sum(len(c.n_list) * len(c.seeds) for c in configs)


def _grid_run(configs, tracer):
    reports = []
    for config in configs:
        _set_op(tracer, config.out_dir)
        report = experiment.run_experiment(config)
        experiment.write_report(report, config.out_dir)
        reports.append(report)
    return reports


def _grid_check(configs, reports):
    failures = {}
    for config, report in zip(configs, reports):
        for row in report.rows:
            name = f"{config.out_dir}/n{row.n}-seed{row.seed}"
            if not row.cert_ok:
                failures[name] = "certificate fails"
            elif row.alpha_lo > row.alpha_hi:
                failures[name] = f"alpha_lo {row.alpha_lo} > alpha_hi {row.alpha_hi}"
            elif "construction failed" in row.note:
                failures[name] = row.note
        if len(report.rows) != _grid_count([config]):
            failures[config.out_dir] = f"{len(report.rows)} rows, expected {_grid_count([config])}"
    return failures


def _grid_digest(configs, reports):
    items = []
    for config in configs:
        out = Path(config.out_dir)
        csv = "".join(
            line.rsplit(",", 1)[0] + "\n"
            for line in (out / "report.csv").read_text(encoding="utf-8").splitlines()
        )
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for row in payload["rows"]:
            del row["ms"]
        items += [
            (f"{out}/report.csv", csv.encode()),
            (f"{out}/report.json", json.dumps(payload, indent=2, sort_keys=True).encode()),
            (f"{out}/plot.svg", (out / "plot.svg").read_bytes()),
        ]
    return items


# ---------------------------------------------------------------------------
# ramsey-search: exhaustive oracles (no random input; the seed changes nothing)


def _oracle_inputs(seed, tiny):
    return TINY_ORACLES if tiny else ORACLES


def _oracle_run(oracles, tracer):
    out = {}
    for kind, param, n_max in oracles:
        name = f"oracle-{kind}-{param}"
        _set_op(tracer, name)
        try:
            out[name] = freeness.ramsey_oracle(kind, param, n_max)
        except Exception as exc:  # noqa: BLE001 - a failed call is a failed operation
            out[name] = exc
    return out


def _oracle_check(oracles, out):
    failures = {}
    for (kind, param, _), (name, entry) in zip(oracles, out.items()):
        if isinstance(entry, Exception):
            failures[name] = repr(entry)
        elif entry.status == freeness.INCONCLUSIVE:
            failures[name] = "inconclusive"
        elif entry.witness is not None:
            b = param[1] if kind == "multicolor" else 3
            try:
                mono = freeness.find_mono_clique(
                    graphs.Graph.complete(entry.witness_n), entry.witness, b)
            except graphs.GraphError as exc:
                failures[name] = f"witness does not cover K_{entry.witness_n}: {exc}"
                continue
            if mono is not None:
                failures[name] = f"witness has monochromatic K_{b} {mono}"
    return failures


def _oracle_digest(oracles, out):
    items = []
    for name, entry in out.items():
        if isinstance(entry, Exception):
            items.append((name, repr(entry).encode()))
            continue
        record = {
            "value": entry.value,
            "status": entry.status,
            "lower_bound": entry.lower_bound,
            "witness_n": entry.witness_n,
            "witness": None if entry.witness is None
            else sorted([u, v, c] for (u, v), c in entry.witness.colors.items()),
            "transcript": entry.transcript,
        }
        # round-trip first: integer keys become strings and sort as text, as
        # they do when the record is rebuilt from `erlab ramsey` output
        canonical = json.dumps(json.loads(json.dumps(record)), sort_keys=True)
        items.append((name, canonical.encode()))
    return items


# ---------------------------------------------------------------------------

# name -> (inputs, count, run, check, digest)
WORKLOADS = {
    "construct-battery": (_battery_inputs, len, _battery_run, _battery_check, _battery_digest),
    "alpha-k4-grid": (_grid_inputs, _grid_count, _grid_run, _grid_check, _grid_digest),
    "ramsey-search": (_oracle_inputs, len, _oracle_run, _oracle_check, _oracle_digest),
}


class Workload:
    """One workload at one seed; ``run`` is called once per process."""

    def __init__(self, name, seed, tiny):
        self.name = name
        make, count, self._run, self._check, self._digest = WORKLOADS[name]
        self.inputs = make(seed, tiny)
        self.attempted = count(self.inputs)
        self.out = None

    def run(self, tracer=None) -> None:
        self.out = self._run(self.inputs, tracer)

    def check(self) -> dict[str, str]:
        return self._check(self.inputs, self.out)

    def digest_items(self) -> list[tuple[str, bytes]]:
        return self._digest(self.inputs, self.out)

    def outcome(self) -> dict:
        """The alpha results of the grid rows (zero on the other workloads)."""
        rows = ([row for report in self.out for row in report.rows]
                if self.name == "alpha-k4-grid" else [])
        return {
            "alpha_gap": sum(r.alpha_hi - r.alpha_lo for r in rows),
            "exact_rows": sum(int(r.exact) for r in rows),
        }
