#!/usr/bin/env python3
"""erlab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload construct-battery --seed 7 --seconds 35 --trace 0

Each pass of the workload runs in a fresh interpreter (``bench/worker.py``),
one pass at a time (closed loop), until the next pass would end after
``--seconds``.  With ``--trace 0`` the last output line carries the
end-to-end metrics (medians over passes); with ``--trace 1`` passes
alternate untraced and traced, and it carries the per-layer metrics of the
traced passes plus the tracing overhead.  ``--workload all`` runs the
three workloads in turn.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # bench/ is sys.path[0]

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["construct-battery", "alpha-k4-grid", "ramsey-search"]
# the acceptance suite's seeds: 7 for the instance battery, rows {1, 2} for the grid
DEFAULT_SEED = {"construct-battery": 7, "alpha-k4-grid": 1, "ramsey-search": 0}
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
SETUP_PROBES = 4  # set-up-only interpreters per run, on top of one per pass

# counts that must repeat exactly from pass to pass
EXACT_COUNTS = ["construct.pack.candidates", "construct.sparsify.attempts",
                "alpha.exact.nodes", "freeness.search.nodes",
                "graphs.first_clique.calls", "io.bytes_written"]

# the bounded metrics; the raw wall time is printed beside them
END_TO_END = ["calibrated_wall_s", "setup_s", "peak_rss_mb"]
UNITS = {"calibrated_wall_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "alpha_gap": "vertices", "exact_rows": "rows"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("accept_ratio", ".complete", ".failed")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return UNITS.get(name, "count")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "erlab_workers_outside": os.environ.get("ERLAB_WORKERS"),
    }


def run_pass(workload, seed, tiny, traced, pass_dir, timeout):
    """One fresh-interpreter pass; returns (result, span records)."""
    pass_dir.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("ERLAB_WORKERS", None)  # the repo default: serial rows
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(int(tiny)), str(int(traced))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=pass_dir, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready_at"] - spawned
    records = []
    if traced:
        with open(pass_dir / "spans.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    if Path(result["erlab_file"]).resolve().parent != (ROOT / "src" / "erlab").resolve():
        raise BenchError(f"erlab imported from {result['erlab_file']}, not from src/")
    return result, records


def summary(values) -> str:
    return (f"median {statistics.median(values):.6g} of {len(values)} "
            f"[{' '.join(f'{v:.4g}' for v in values)}]")


def run_workload(workload, seed, seconds, traced, tiny) -> dict:
    facts = machine_facts()
    run_dir = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    min_passes = 4 if traced else 3
    passes, spans = [], []
    start = time.monotonic()
    try:
        setups = [run_pass("setup", seed, tiny, False, run_dir / f"setup-{i}", RUN_LIMIT_S)[0]
                  for i in range(0 if traced else SETUP_PROBES)]
        while True:
            elapsed = time.monotonic() - start
            longest = max((p["pass_s"] for p in passes), default=0.0)
            if len(passes) >= min_passes and elapsed + longest > seconds:
                break
            if elapsed > RUN_LIMIT_S:
                raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s after {len(passes)} passes")
            is_traced = traced and len(passes) % 2 == 1
            t0 = time.monotonic()
            result, records = run_pass(workload, seed, tiny, is_traced,
                                       run_dir / f"pass-{len(passes)}",
                                       RUN_LIMIT_S - elapsed)
            result["pass_s"] = time.monotonic() - t0
            result["traced"] = is_traced
            passes.append(result)
            spans += [dict(rec, pass_index=len(passes) - 1) for rec in records]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts["loadavg_end"] = list(os.getloadavg())

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f"pass {i}: {op}: {why}" for i, p in enumerate(passes)
                for op, why in sorted(p["failures"].items())]
    problems = []
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"seeded outputs differ between passes: {sorted(digests)}")
    if len({json.dumps(p["outcome"], sort_keys=True) for p in passes}) != 1:
        problems.append("alpha outcome differs between passes")
    for p in traced_passes:
        layers = p["layers"]
        if layers["trace.self_sum_s"] > layers["trace.wall_s"] * (1 + 1e-9):
            problems.append("layer self times exceed the traced wall time")
        for key in EXACT_COUNTS:
            if layers[key] != traced_passes[0]["layers"][key]:
                problems.append(f"{key} differs between traced passes")

    print(f"workload {workload}  seed {seed}  trace {int(traced)}  "
          f"{len(passes)} passes in {time.monotonic() - start:.1f} s"
          + ("  (tiny)" if tiny else ""))
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"digest sha256 {passes[0]['digest']}")
    print(f"error_rate {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    for line in failures + problems:
        print(f"  FAIL {line}")
    outcome = passes[0]["outcome"]
    for key, value in outcome.items():
        print(f"{key} {value} {UNITS[key]}")

    metrics = {}
    if traced:
        for key in traced_passes[0]["layers"]:
            metrics[key] = statistics.median(p["layers"][key] for p in traced_passes)
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced_passes)
                                       - statistics.median(p["wall_s"] for p in plain))
        metrics.update(outcome)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        for key in sorted(metrics):
            print(f"{key} {metrics[key]:.6g} {layer_unit(key)}")
    else:
        setups += passes
        for key, runs in (("calibrated_wall_s", plain), ("wall_s", plain), ("setup_s", setups),
                          ("peak_rss_mb", plain)):
            values = [p[key] for p in runs]
            print(f"{key} {summary(values)} {UNITS[key]}")
            if key in END_TO_END:
                metrics[key] = statistics.median(values)
        print(f"kernel_s {summary([p['kernel_s'] for p in plain])} s "
              f"(reference {speed.KERNEL_REF_S} s)")

    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": layer_unit(k) if traced else UNITS[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance suite's)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "erlab" / "__init__.py").is_file():
        print(f"error: no erlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        seed = args.seed if args.seed is not None else DEFAULT_SEED[workload]
        try:
            result = run_workload(workload, seed, args.seconds, bool(args.trace), args.tiny)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result, sort_keys=True), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
