"""Command-line interface: construct / density / ramsey / alpha / extract /
exponents / order / halfseq / experiment / verify."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as eio
from .alpha import (
    AlterationParams,
    CliqueHypergraph,
    alpha_exact,
    alteration_set,
    count_free_subsets,
    is_free_set,
    lay3_free_subset,
    recursive_free_subset,
)
from .bounds import default_g_table, exponent_lower, exponent_upper, half_sequence, order_vertices
from .checkers import check_half_sequence, check_ordering
from .construct import (
    ConstructionParams,
    SPartition,
    SparsifiedIncidence,
    construct_upper_bound_instance,
)
from .density import check_uniform_density, density_witness
from .experiment import ExperimentConfig, run_experiment, verify_suite, write_report
from .freeness import ramsey_oracle
from .graphs import CliqueCover, GraphError
from .util import make_rng


def _json_safe(value):
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _print_json(payload) -> None:
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True, default=str))


def _cmd_construct(args) -> int:
    params = ConstructionParams.derive(
        args.s, args.b, args.t, args.n,
        k=args.k, R=args.R, retention_p=args.retention_p, seed=args.seed,
    )
    bundle = construct_upper_bound_instance(
        params, args.n, certification_samples=args.samples, threshold=args.threshold
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eio.write_hypergraph(out / "hypergraph.txt", bundle.hypergraph)
    eio.write_graph(out / "incidence.txt", bundle.incidence)
    eio.write_graph(out / "sparsified.txt", bundle.sparsified.graph)
    eio.write_graph(out / "final.txt", bundle.final)
    eio.write_coloring(out / "coloring.txt", bundle.coloring)
    structure = {
        "n": args.n,
        "s": params.s,
        "k": params.k,
        "ell": params.ell,
        "beta": params.beta,
        "R": params.R,
        "seed": params.seed,
        "ground_n": bundle.hypergraph.n,
        "cover": {str(v): list(members) for v, members in bundle.cover.cliques.items()},
        "partition": {
            str(v): {str(u): p for u, p in parts.items()}
            for v, parts in bundle.sparsified.partition.parts.items()
        },
        "overlay": {
            "permutations": [list(p) for p in bundle.overlay.permutations],
            "retained": list(bundle.overlay.retained),
        },
    }
    (out / "structure.json").write_text(
        json.dumps(structure, indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="\n",
    )
    (out / "certificate.json").write_text(
        json.dumps(bundle.certificate, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8", newline="\n",
    )
    ok = all(c["pass"] for c in bundle.certificate["checks"].values())
    print(f"instance written to {out} (certificate {'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


def load_instance(instance_dir) -> SparsifiedIncidence:
    inst = Path(instance_dir)
    graph = eio.read_graph(inst / "sparsified.txt")
    structure = json.loads((inst / "structure.json").read_text(encoding="utf-8"))
    cover = CliqueCover(
        structure["ground_n"],
        {int(v): tuple(members) for v, members in structure["cover"].items()},
    )
    partition = SPartition(
        structure["s"],
        {int(v): {int(u): p for u, p in parts.items()}
         for v, parts in structure["partition"].items()},
    )
    return SparsifiedIncidence(graph, cover, partition, structure["s"])


def _cmd_density(args) -> int:
    sparsified = load_instance(args.instance)
    structure = json.loads((Path(args.instance) / "structure.json").read_text(encoding="utf-8"))
    threshold = args.threshold if args.threshold is not None else structure["ground_n"]
    graph = sparsified.graph
    rng = make_rng(args.seed, "density-cli")
    samples = []
    feasible_alpha = None
    feasible_lambda = 0.0
    draws = args.samples
    if threshold > graph.n:
        print(f"erlab density: threshold {threshold} exceeds the {graph.n} vertices of the "
              "sparsified graph; no sets sampled", file=sys.stderr)
        draws = 0
    for _ in range(draws):
        size = rng.randint(threshold, graph.n)
        X = sorted(rng.sample(range(graph.n), size))
        profile, witness = density_witness(sparsified, X)
        report = check_uniform_density(witness, len(X))
        samples.append({
            "size": size,
            "ell_dyadic": profile.ell_dyadic,
            "evenly_partitioned": len(profile.evenly_partitioned),
            "e_count": witness.e_count,
            "codegrees": witness.codegrees,
            "minimal_alpha": str(report.minimal_alpha),
            "minimal_lambda": report.minimal_lambda,
            "edge_margin": report.edge_margin,
            "codegree_margins": report.codegree_margins,
        })
        if feasible_alpha is None or report.minimal_alpha < feasible_alpha:
            feasible_alpha = report.minimal_alpha
        feasible_lambda = max(feasible_lambda, report.minimal_lambda)
    _print_json({
        "instance": str(args.instance),
        "threshold": threshold,
        "samples": samples,
        "fitted": {
            "alpha": str(feasible_alpha) if feasible_alpha is not None else None,
            "lambda": feasible_lambda,
        },
        "note": "fitted (alpha, lambda) are measured minima; asymptotic claims reported only",
    })
    return 0


def _cmd_ramsey(args) -> int:
    try:
        if args.kind == "multicolor":
            t, b = (int(x) for x in args.param.split(","))
            parameter = (t, b)
        else:
            parameter = int(args.param)
    except ValueError:
        form = "integers 't,b'" if args.kind == "multicolor" else "an integer 'k'"
        args.parser.exit(2, f"erlab ramsey: error: --param {args.param!r} is not {form}\n")
    try:
        entry = ramsey_oracle(args.kind, parameter, args.nmax,
                              node_budget=args.budget_nodes,
                              time_budget_ms=args.budget_ms)
    except GraphError as exc:
        args.parser.exit(2, f"erlab ramsey: error: --param {args.param!r}: {exc}\n")
    import hashlib

    digest = hashlib.sha256(
        json.dumps(_json_safe(entry.transcript), sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    payload = {
        "kind": args.kind,
        "parameter": parameter,
        "value": entry.value,
        "status": entry.status,
        "lower_bound": entry.lower_bound,
        "witness_n": entry.witness_n,
        "transcript": entry.transcript,
        "transcript_digest": digest,
    }
    if args.out and entry.witness is not None:
        path = Path(args.out) / f"witness-{args.kind}-{args.param}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        eio.write_coloring(path, entry.witness)
        payload["witness_file"] = str(path)
    _print_json(payload)
    return 0


def _cmd_alpha(args) -> int:
    graph = eio.read_graph(args.graph)
    if args.count:
        value = count_free_subsets(graph, args.s, args.min_size)
        _print_json({"count": value, "s": args.s, "min_size": args.min_size})
    else:
        res = alpha_exact(graph, args.s)
        _print_json({
            "alpha": res.size,
            "witness": list(res.witness),
            "complete": res.complete,
            "nodes": res.nodes,
        })
    return 0


def _cmd_extract(args) -> int:
    graph = eio.read_graph(args.graph)
    coloring = eio.read_coloring(args.coloring, t=args.t)
    if args.method == "recursive":
        result = recursive_free_subset(graph, coloring, args.s, t=args.t, seed=args.seed)
        verts, path = result.vertices, result.path
    elif args.method == "lay3":
        result = lay3_free_subset(graph, coloring, args.s, seed=args.seed)
        verts, path = result.vertices, result.path
    else:
        hyper = CliqueHypergraph.from_graph(graph, args.s)
        verts = alteration_set(AlterationParams([hyper.as_family()], seed=args.seed))
        path = [f"alteration over {len(hyper.hyperedges)} cliques"]
    valid = is_free_set(graph, verts, args.s)
    certificate = {
        "method": args.method,
        "size": len(verts),
        "vertices": list(verts),
        "valid": valid,
        "s": args.s,
        "t": args.t,
        "path": path,
    }
    if args.out:
        out = Path(args.out)
        out.write_text("".join(f"{v}\n" for v in verts), encoding="utf-8", newline="\n")
        out.with_suffix(out.suffix + ".cert.json").write_text(
            json.dumps(_json_safe(certificate), indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="\n",
        )
    _print_json(certificate)
    return 0 if valid else 1


def _cmd_exponents(args) -> int:
    if args.upper:
        res = exponent_upper(args.s, args.b, args.t)
    else:
        res = exponent_lower(args.s, args.t)
    payload = {
        "value": str(res.value),
        "regime": res.regime,
        "trace": [list(entry) for entry in res.trace],
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"{res.value} regime={res.regime}")
    return 0


def _cmd_order(args) -> int:
    coloring = eio.read_coloring(args.coloring)
    result = order_vertices(args.k, coloring)
    verdict = check_ordering(args.k, coloring, result.pi, default_g_table().g)
    _print_json({
        "pi": list(result.pi),
        "ell_pi": result.ell_pi,
        "n_pi": result.n_pi,
        "checker": verdict or "ok",
    })
    return 0 if verdict is None else 1


def _cmd_halfseq(args) -> int:
    coloring = eio.read_coloring(args.coloring)
    seq = half_sequence(args.k, coloring)
    verdict = check_half_sequence(args.k, coloring, seq)
    _print_json({"sequence": list(seq), "checker": verdict or "ok"})
    return 0 if verdict is None else 1


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    report = run_experiment(config)
    write_report(report, config.out_dir)
    bad = [r for r in report.rows if not r.cert_ok]
    print(f"{len(report.rows)} rows written to {config.out_dir} "
          f"({len(bad)} flagged)")
    fit = report.fit
    if fit:
        print(f"fitted slope {fit['slope']:.4f} [{fit['ci_low']:.4f}, {fit['ci_high']:.4f}] "
              f"r2={fit['r2']:.4f} ({fit['label']})")
        print(f"theoretical exponents: lower {fit.get('theoretical_lower')}, "
              f"upper {fit.get('theoretical_upper')}")
    return 0 if not bad else 1


def _cmd_verify(args) -> int:
    outcomes = verify_suite(args.level)
    failed = 0
    for oc in outcomes:
        mark = "PASS" if oc.passed else "FAIL"
        print(f"[{mark}] {oc.name}" + (f" — {oc.details}" if oc.details else ""))
        failed += 0 if oc.passed else 1
    print(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="erlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and certify an upper-bound instance")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--retention-p", dest="retention_p", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default="erlab-instance")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("density", help="sampled uniform-density report for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=int, default=None)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("ramsey", help="exhaustive small Ramsey / local-Ramsey oracle")
    p.add_argument("--kind", choices=["multicolor", "local"], required=True)
    p.add_argument("--param", required=True, help="'t,b' for multicolor, 'k' for local")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--budget-ms", dest="budget_ms", type=int, default=None)
    p.add_argument("--budget-nodes", dest="budget_nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ramsey, parser=p)

    p = sub.add_parser("alpha", help="exact s-independence number or free-subset count")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--count", action="store_true", default=False)
    p.add_argument("--min-size", dest="min_size", type=int, default=0)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("extract", help="constructive K_s-free subset extraction")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--method", choices=["recursive", "lay3", "alteration"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("exponents", help="exact exponent (lower, or upper with --upper)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--b", type=int, default=3)
    p.add_argument("--upper", action="store_true", default=False)
    p.add_argument("--json", action="store_true", default=False)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("order", help="swap-descent vertex ordering of a colored K_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("halfseq", help="half-sequence of a colored K_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=_cmd_halfseq)

    p = sub.add_parser("experiment", help="run a config-driven experiment grid")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
