"""Experiment driver: runs the construction pipeline across an n-grid,
measures the s-independence number (exact when the node-budgeted search
completes, a lower/upper sandwich otherwise), fits the empirical log-log
exponent, and emits CSV/JSON/SVG reports.  Also hosts the verification
suite behind ``erlab verify``.

Asymptotic claims are reported, never asserted; every report row either has
all certificates passing or is flagged and excluded from the fit.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import io as eio
from .alpha import (
    BudgetError,
    ExtractionError,
    alpha_exact,
    greedy_free_subset,
    recursive_free_subset,
)
from .bounds import default_g_table, exponent_lower, exponent_upper, order_vertices
from .checkers import check_ordering
from .construct import (
    CertificationError,
    ConstructionParams,
    certificate_passes,
    construct_upper_bound_instance,
)
from .freeness import (
    VERIFIED,
    UnresolvedRamseyError,
    UnsupportedParametersError,
    double_c5_coloring,
    find_mono_clique,
    greenwood_gleason_coloring,
    ramsey_oracle,
)
from .graphs import EdgeColoring, Graph, GraphError
from .io import FormatError
from .util import derive_seed, make_rng

ASYMPTOTIC_LABEL = "asymptotic — reported, not asserted"
BUDGET_KEYS = ("alpha_nodes", "construct_ms")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    s: int
    b: int
    t: int
    n_list: list[int]
    k_policy: dict = field(default_factory=lambda: {"kind": "fixed", "value": 1})
    r_policy: dict = field(default_factory=lambda: {"kind": "default"})
    retention_policy: dict = field(default_factory=lambda: {"kind": "fixed", "value": 1.0})
    seeds: list[int] = field(default_factory=lambda: [0])
    budgets: dict = field(default_factory=dict)
    out_dir: str = "erlab-out"

    def __post_init__(self):
        for name in ("s", "b", "t"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        for name in ("seeds", "n_list"):
            value = getattr(self, name)
            if not (isinstance(value, list) and value and all(map(_is_int, value))):
                raise ValueError(f"{name} must be a non-empty list of integers, got {value!r}")
        if not isinstance(self.budgets, dict):
            raise ValueError(f"budgets must be an object, got {self.budgets!r}")
        for key, value in self.budgets.items():
            if key not in BUDGET_KEYS:
                raise ValueError(f"budgets key {key!r} is not one of {', '.join(BUDGET_KEYS)}")
            if not (_is_int(value) or (key == "construct_ms" and value is None)):
                raise ValueError(f"budgets {key!r} must be an integer, got {value!r}")
        for name, types, what in (("k_policy", int, "an integer"),
                                  ("r_policy", int, "an integer"),
                                  ("retention_policy", (int, float), "a numeric")):
            policy = getattr(self, name)
            if not isinstance(policy, dict):
                raise ValueError(f"{name} must be an object with a 'kind', got {policy!r}")
            kind = policy.get("kind")
            if kind not in ("fixed", "default"):
                raise ValueError(f"{name} kind must be 'fixed' or 'default', got {kind!r}")
            value = policy.get("value")
            if kind == "fixed" and (isinstance(value, bool) or not isinstance(value, types)):
                raise ValueError(f"{name} of kind 'fixed' needs {what} 'value', got {value!r}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            return cls(**json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise FormatError(f"{path}: {exc}") from exc


def _policy_value(policy: dict, default):
    """A ``fixed`` policy's value, else ``default``."""
    return policy["value"] if policy["kind"] == "fixed" else default


@dataclass
class RunRow:
    n: int
    seed: int
    s: int
    b: int
    t: int
    alpha_lo: int
    alpha_hi: int
    exact: bool
    cert_ok: bool
    ms: int
    note: str = ""


@dataclass
class RunReport:
    rows: list[RunRow]
    fit: dict | None
    config: dict
    label: str = ASYMPTOTIC_LABEL


def _least_squares(rows) -> tuple[float, float, float, float, float]:
    """Ordinary least squares of log(alpha) on log(n); returns
    (slope, intercept, r_squared, ss_res, sxx).  Refuses fewer than 3 rows or
    repeated n."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows to fit, got {len(rows)}")
    ns = [n for n, _ in rows]
    if len(set(ns)) != len(ns):
        raise ValueError("all n must be distinct")
    if any(a <= 0 for _, a in rows):
        raise ValueError("alpha values must be positive for a log-log fit")
    xs = [math.log(n) for n, _ in rows]
    ys = [math.log(a) for _, a in rows]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    slope = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - ybar) ** 2 for y in ys)
    r2 = 1.0 if ss_res <= 1e-15 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2, ss_res, sxx


def _fit_with_ci(points):
    slope, intercept, r2, ss_res, sxx = _least_squares(points)
    se = math.sqrt(ss_res / (len(points) - 2) / sxx)  # _least_squares needs 3+ points
    return {
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "ci_low": slope - 2 * se,
        "ci_high": slope + 2 * se,
        "stderr": se,
        "points": [[n, a] for n, a in points],
    }


def _measure_row(config: ExperimentConfig, n: int, seed: int) -> RunRow:
    budgets = config.budgets
    alpha_nodes = budgets.get("alpha_nodes", 2_000_000)
    construct_ms = budgets.get("construct_ms")

    t0 = time.monotonic()
    note = ""
    try:
        params = ConstructionParams.derive(
            config.s, config.b, config.t, n,
            k=_policy_value(config.k_policy, 1),
            R=_policy_value(config.r_policy, None),
            retention_p=_policy_value(config.retention_policy, 1.0),
            seed=derive_seed(seed, n, "experiment"),
        )
        bundle = construct_upper_bound_instance(params, n)
    except (GraphError, UnsupportedParametersError, UnresolvedRamseyError,
            CertificationError) as exc:  # the row is flagged, not lost
        ms = int((time.monotonic() - t0) * 1000)
        return RunRow(n, seed, config.s, config.b, config.t, 0, 0, False, False, ms,
                      note=f"construction failed: {exc}")
    cert_ok = certificate_passes(bundle.certificate)
    if construct_ms is not None and (time.monotonic() - t0) * 1000 > construct_ms:
        note = "construction budget exceeded"
        cert_ok = False

    g = bundle.final
    res = alpha_exact(g, config.s, node_budget=alpha_nodes)
    lo, hi, exact = res.size, res.upper_bound, res.complete
    if not exact:
        # the include-first search reaches the greedy set at its first leaf,
        # after n nodes, so greedy can only help a smaller budget
        if alpha_nodes < g.n:
            lo = max(lo, len(greedy_free_subset(g, config.s)))
        try:
            extraction = recursive_free_subset(g, bundle.coloring, config.s, t=config.t, seed=seed)
            lo = max(lo, len(extraction.vertices))
        except (BudgetError, ExtractionError) as exc:
            note = (note + "; " if note else "") + f"extractor: {exc}"
    ms = int((time.monotonic() - t0) * 1000)
    return RunRow(n, seed, config.s, config.b, config.t, lo, hi, exact, cert_ok, ms, note)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """One row per (n, seed) grid point; each row is seeded independently
    and rows are sorted canonically."""
    rows = [_measure_row(config, n, seed) for n in config.n_list for seed in config.seeds]
    rows.sort(key=lambda r: (r.n, r.seed))

    by_n: dict[int, list[float]] = {}
    for row in rows:
        if row.cert_ok and row.alpha_lo >= 1:
            by_n.setdefault(row.n, []).append(float(row.alpha_lo))
    points = [
        (n, math.exp(sum(math.log(a) for a in vals) / len(vals)))
        for n, vals in sorted(by_n.items())
    ]
    fit = None
    if len(points) >= 3:
        fit = _fit_with_ci(points)
        fit["label"] = ASYMPTOTIC_LABEL
        try:
            fit["theoretical_lower"] = str(exponent_lower(config.s, config.t).value)
            fit["theoretical_upper"] = str(
                exponent_upper(config.s, config.b, config.t).value
            )
        except (GraphError, UnresolvedRamseyError) as exc:
            fit["theoretical_note"] = str(exc)
    return RunReport(rows=rows, fit=fit, config=asdict(config))


CSV_HEADER = "n,seed,s,b,t,alpha_lo,alpha_hi,exact,cert_ok,ms"


def write_report(report: RunReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.n},{r.seed},{r.s},{r.b},{r.t},{r.alpha_lo},{r.alpha_hi},"
            f"{int(r.exact)},{int(r.cert_ok)},{r.ms}"
        )
    eio.write_lines(out / "report.csv", lines)
    payload = {
        "label": report.label,
        "config": report.config,
        "fit": report.fit,
        "rows": [asdict(r) for r in report.rows],
    }
    eio.write_json(out / "report.json", payload)
    eio.write_lines(out / "plot.svg", render_loglog_svg(report))


def render_loglog_svg(report: RunReport) -> list[str]:
    """The lines of a minimal 480x360 log-log scatter with the fitted line;
    no plotting dependency."""
    width, height = 480, 360
    pts = []
    for row in report.rows:
        if row.cert_ok and row.alpha_lo >= 1:
            pts.append((math.log(row.n), math.log(row.alpha_lo)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    margin = 40
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0

        def px(x):
            return margin + (x - x0) / xr * (width - 2 * margin)

        def py(y):
            return height - margin - (y - y0) / yr * (height - 2 * margin)

        parts.append(
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue"/>')
        if report.fit:
            a, c = report.fit["slope"], report.fit["intercept"]
            parts.append(
                f'<line x1="{px(x0):.2f}" y1="{py(a * x0 + c):.2f}" '
                f'x2="{px(x1):.2f}" y2="{py(a * x1 + c):.2f}" stroke="crimson"/>'
            )
            parts.append(
                f'<text x="{margin}" y="{margin - 12}" font-size="12">'
                f"slope {report.fit['slope']:.4f} ({ASYMPTOTIC_LABEL})</text>"
            )
        parts.append(
            f'<text x="{width // 2 - 20}" y="{height - 8}" font-size="12">log n</text>'
        )
        parts.append(
            f'<text x="4" y="{height // 2}" font-size="12" '
            f'transform="rotate(-90 12 {height // 2})">log alpha</text>'
        )
    else:
        parts.append(f'<text x="{margin}" y="{height // 2}">no fit-eligible rows</text>')
    parts.append("</svg>")
    return parts


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    details: str = ""


def _naive_alpha(graph: Graph, s: int) -> int:
    """Tiny independent oracle (all subsets) used for the self-check suite."""
    best = 0
    for size in range(graph.n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(graph.n), size):
            ok = True
            for sub in itertools.combinations(combo, s):
                if all(graph.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                    ok = False
                    break
            if ok:
                best = size
                break
        if best == size:
            break
    return best


def verify_suite(level: str) -> list[CheckOutcome]:
    """Run the self-verification checks; ``full`` adds pipeline certification
    and ordering sweeps.  Callers decide process exit from the outcomes."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    out: list[CheckOutcome] = []

    expected = {
        (5, 2): "1/2", (5, 3): "5/11", (5, 4): "20/61", (6, 2): "1",
        (3, 3): "2/5", (4, 3): "3/7",
    }
    got = {k: str(exponent_lower(*k).value) for k in expected}
    out.append(CheckOutcome("exponent-table", got == expected, f"{got}"))
    upper_ok = (
        str(exponent_upper(5, 3, 4).value) == "1/3"
        and str(exponent_upper(5, 3, 2).value) == "1/2"
        and all(str(exponent_upper(2, 3, t).value) == f"1/{t + 1}" for t in range(1, 7))
    )
    out.append(CheckOutcome("exponent-upper", upper_ok))

    gt = default_g_table()
    out.append(CheckOutcome(
        "g-table", gt.g == {2: 1, 3: 2, 4: 2, 5: 2, 6: 3}, f"{gt.g}"
    ))

    r2 = ramsey_oracle("multicolor", (2, 3), 6)
    out.append(CheckOutcome("r2(3)", r2.value == 6 and r2.status == VERIFIED,
                            f"value={r2.value}"))
    loc1 = ramsey_oracle("local", 1, 4)
    out.append(CheckOutcome("rloc1(3)", loc1.value == 3, f"value={loc1.value}"))

    k16 = greenwood_gleason_coloring()
    mono = find_mono_clique(Graph.complete(16), k16, 3)
    out.append(CheckOutcome("r3(3)-witness", mono is None,
                            "16-vertex 3-coloring replays monochromatic-triangle-free"))

    rng_graphs = [(10, 3, 11), (12, 4, 5), (9, 3, 2), (13, 5, 7)]
    ok = True
    details = []
    for n, s, seed in rng_graphs:
        rng = make_rng(seed, "verify-alpha")
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        mine = alpha_exact(g, s).size
        naive = _naive_alpha(g, s)
        if mine != naive:
            ok = False
            details.append(f"n={n} s={s}: {mine} != {naive}")
    out.append(CheckOutcome("alpha-oracle-equivalence", ok, "; ".join(details)))

    if level == "full":
        # (s, b, t, n, k, R) at seed 7; R=None takes the default max(3, ceil(log2 n))
        points = [
            (5, 3, 2, 64, 1, 5), (5, 3, 2, 128, 1, 5), (5, 3, 2, 256, 1, 7),
            (5, 3, 4, 64, 4, 5), (5, 3, 4, 128, 4, 5), (5, 3, 4, 256, 4, 7),
            (5, 3, 2, 64, 1, None), (5, 3, 4, 64, 4, None), (5, 3, 2, 256, 1, None),
        ]
        for (s, b, t, n, k, R) in points:
            params = ConstructionParams.derive(s, b, t, n, k=k, R=R, seed=7)
            bundle = construct_upper_bound_instance(params, n)
            failed = [name for name, check in bundle.certificate["checks"].items()
                      if not check["pass"]]
            out.append(CheckOutcome(
                f"pipeline({s},{b},{t})@n={n},k={k},R={params.R}",
                not failed,
                f"|H|={bundle.hypergraph.m} |V(G_*)|={bundle.sparsified.graph.n} "
                f"final=({bundle.final.n} vertices, {bundle.final.m} edges)"
                + (f" failed: {', '.join(failed)}" if failed else ""),
            ))

        g_values = default_g_table().g
        failures = 0
        total = 0
        for assignment in itertools.product([1, 2, 3], repeat=6):
            coloring = EdgeColoring(
                3, dict(zip(itertools.combinations(range(4), 2), assignment))
            )
            if find_mono_clique(Graph.complete(4), coloring, 3) is not None:
                continue
            total += 1
            result = order_vertices(4, coloring)
            if check_ordering(4, coloring, result.pi, g_values) is not None:
                failures += 1
        out.append(CheckOutcome("ordering-sweep-K4", failures == 0,
                                f"{total} colorings, {failures} failures"))

        # negative control: a corrupted coloring must be caught with a witness
        base = Graph.complete(5)
        good = double_c5_coloring()
        bad = dict(good.colors)
        bad[(0, 2)] = 1  # edges (0,1),(1,2),(0,2) now share color 1
        mono = find_mono_clique(base, EdgeColoring(2, bad), 3)
        out.append(CheckOutcome("corrupted-coloring-detected", mono is not None,
                                f"witness={mono}"))
    return out
