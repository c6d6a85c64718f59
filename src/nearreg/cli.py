"""Command-line front door: generate instances, run extractions, and drive
the experiments, emitting machine-readable JSON reports.

Exit codes: 0 all guarantee checks passed, 1 a guarantee failed, 2 an
algorithm precondition failed, 3 a search-size cap was exceeded, 4 file or
format trouble, 5 an internal error (any other exception, reported on one
line of stderr; a bug, never an input condition). Reports are
byte-identical across runs of the same command and seed except for the
wall_time_s field, which covers the whole command from the input read.

All randomness flows from the single --seed flag: generators consume it
directly; multi-part experiments derive substreams by fixed offsets
(point-prob draws its weight vector at seed and its trials at seed+1,
gnpbar-scan samples graph i at seed+i).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from typing import Optional

import numpy as np

from .edge_regular import matching_bound, matching_lower_bound, theorem41
from .errors import (
    BoundViolationError,
    EdgeListError,
    PreconditionError,
    SizeCapError,
)
from .graph import (
    ExtractionResult,
    Graph,
    degree_stats,
    parse_edge_list,
    serialize_edge_list,
)
from .instances import ModelParams, generate
from .oracle import (
    CalibrationConstants,
    estimate_point_prob,
    estimate_regular_prob,
    exact_f,
    point_prob_distribution,
    regular_prob_reference,
)
from .peeling import (
    prop21_refine,
    prop22_bounds,
    prop22_reduce,
    proposition11_pipeline,
)
from .regularize import (
    BoostParams,
    density_boost,
    lemma25_extract,
    theorem12_pipeline,
    theorem13_pipeline,
    turan_bound,
    turan_independent_set,
)

SCHEMA = "nearreg-report/1"

EXTRACT_ALGORITHMS = ("prop21", "prop22", "prop11", "boost", "lemma25",
                      "thm12", "thm13", "thm41", "turan", "matching")


def _graph_summary(g: Graph) -> dict:
    st = degree_stats(g)
    out = {"n": g.n, "m": g.m}
    out.update(st.to_json())
    return out


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "text":
        lines = [f"{k}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(report.items())]
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _report_skeleton(args, argv: list) -> dict:
    return {
        "schema": SCHEMA,
        "command": argv,
        "seed": getattr(args, "seed", None),
        "wall_time_s": 0.0,
    }


def _cmd_gen(args, argv: list) -> int:
    params = ModelParams(
        kind=args.kind.replace("-", "_"),
        s=args.s, n=args.n, k=args.k, p=args.p, seed=args.seed,
    )
    g = generate(params)
    text = serialize_edge_list(g)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    sidecar = {
        "schema": "nearreg-gen/1",
        "params": params.to_json(),
        "n": g.n,
        "m": g.m,
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _run_extract(args, g: Graph):
    """Dispatch one extraction; returns (result_json, bounds, params_json)."""
    algo = args.algorithm
    if algo == "prop21":
        res = prop21_refine(g, args.k, args.alpha)
        return res.to_json(), res.bounds, {"k": args.k, "alpha": args.alpha}
    if algo == "prop22":
        sub, trace = prop22_reduce(g, args.k)
        checks = tuple(prop22_bounds(g.n, args.k, degree_stats(sub), sub.n))
        out = {"subgraph": _graph_summary(sub), "trace": trace.to_json()}
        return out, checks, {"k": args.k}
    if algo == "prop11":
        res = proposition11_pipeline(g, args.c)
        return res.to_json(), res.bounds, {"c": args.c}
    if algo == "boost":
        params = BoostParams(args.epsilon, args.exact_limit)
        outcome = density_boost(g, params)
        return outcome.to_json(), outcome.bounds, {
            "epsilon": args.epsilon, "exact_limit": args.exact_limit}
    if algo == "lemma25":
        res = lemma25_extract(g, args.epsilon)
        return res.to_json(), res.bounds, {"epsilon": args.epsilon}
    if algo in ("thm12", "thm13"):
        fn = theorem12_pipeline if algo == "thm12" else theorem13_pipeline
        res = fn(g, args.epsilon, exact_limit=args.exact_limit)
        return res.to_json(), res.bounds, {
            "epsilon": args.epsilon, "exact_limit": args.exact_limit}
    if algo == "thm41":
        res, cascade = theorem41(g)
        out = res.to_json()
        out["cascade"] = cascade.to_json()
        return out, res.bounds, {}
    if algo == "turan":
        members = turan_independent_set(g)
        res = ExtractionResult.from_induced(g, members, "Turan-greedy",
                                            (turan_bound(g, members),))
        return res.to_json(), res.bounds, {}
    if algo == "matching":
        edges = matching_lower_bound(g)
        res = ExtractionResult.from_edge_subgraph(
            edges, "Matching-lower-bound", (matching_bound(g, edges),))
        return res.to_json(), res.bounds, {}
    raise PreconditionError(f"unknown algorithm {algo!r}")


def _cmd_extract(args, argv: list) -> int:
    start = time.perf_counter()
    g = _load_graph(args.graph)
    report = _report_skeleton(args, argv)
    result, bounds, params = _run_extract(args, g)
    report.update({
        "algorithm": args.algorithm,
        "params": params,
        "input": _graph_summary(g),
        "result": result,
        "bounds": [c.to_json() for c in bounds],
    })
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, args)
    return 0


def _experiment_point_prob(args) -> dict:
    if args.t < 1:
        raise PreconditionError("--t must be at least 1")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    lo, hi = 1 / 16, 9 / 16
    rhos = lo + (hi - lo) * rng.random(args.t)
    dist = point_prob_distribution(rhos)
    s_star = int(np.argmax(dist))
    est = estimate_point_prob(list(rhos), s_star, args.trials, args.seed + 1)
    caps = CalibrationConstants(c0_cap=args.c0_cap)
    cap_bound = caps.c0_cap / math.sqrt(args.t)
    return {
        "t": args.t,
        "trials": args.trials,
        "argmax_s": s_star,
        "max_exact": float(dist[s_star]),
        "mc_estimate": est.estimate,
        "mc_dp_gap": abs(est.estimate - est.exact),
        "gap_bound": 4 / math.sqrt(args.trials),
        "calibration_cap": cap_bound,
        "within_calibration_cap": bool(dist.max() <= cap_bound),
    }


def _experiment_regular_prob(args) -> dict:
    est = estimate_regular_prob(args.n, args.k, args.trials, args.seed)
    se = math.sqrt(max(est * (1 - est), 1e-300) / args.trials)
    caps = CalibrationConstants(c1_cap=args.c1_cap)
    return {
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "estimate": est,
        "standard_error": se,
        "calibration_reference": regular_prob_reference(args.n, args.k, caps),
    }


def _experiment_gnpbar_scan(args) -> dict:
    from .instances import sample_gnp_bar

    if args.samples < 1:
        raise PreconditionError("--samples must be at least 1")
    if args.n > args.size_cap:
        raise SizeCapError(
            f"scan instances of {args.n} vertices exceed the cap "
            f"{args.size_cap}")
    rows = []
    for i in range(args.samples):
        g = sample_gnp_bar(args.n, args.seed + i)
        res = exact_f(g, 1, size_cap=args.size_cap)
        rows.append({
            "sample": i,
            "seed": args.seed + i,
            "m": g.m,
            "largest_regular": res.value,
            "witness": sorted(res.witness),
        })
    return {
        "n": args.n,
        "samples": args.samples,
        "rows": rows,
        "median": statistics.median(r["largest_regular"] for r in rows),
    }


def _cmd_experiment(args, argv: list) -> int:
    report = _report_skeleton(args, argv)
    start = time.perf_counter()
    if args.name == "point-prob":
        body = _experiment_point_prob(args)
    elif args.name == "regular-prob":
        body = _experiment_regular_prob(args)
    else:
        body = _experiment_gnpbar_scan(args)
    report.update({"experiment": args.name, "result": body})
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearreg",
        description="Nearly regular subgraph extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance as an edge list")
    gen.add_argument("kind", choices=["blocks", "blocks-padded", "gnp-bar",
                                      "gnp-uniform", "complete-bipartite",
                                      "star"])
    gen.add_argument("--s", type=int, default=None)
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    ext = sub.add_parser("extract", help="run one extraction on a graph file")
    ext.add_argument("algorithm", choices=list(EXTRACT_ALGORITHMS))
    ext.add_argument("graph", help="edge-list file")
    ext.add_argument("--k", type=float, default=2.0)
    ext.add_argument("--alpha", type=float, default=0.4)
    ext.add_argument("--c", type=float, default=3.0)
    ext.add_argument("--epsilon", type=float, default=0.1)
    ext.add_argument("--exact-limit", type=int, default=24)
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--out", default=None)
    ext.add_argument("--format", choices=["json", "text"], default="json")

    exp = sub.add_parser("experiment", help="run a statistical experiment")
    exp.add_argument("name", choices=["point-prob", "regular-prob",
                                      "gnpbar-scan"])
    exp.add_argument("--t", type=int, default=100)
    exp.add_argument("--n", type=int, default=20)
    exp.add_argument("--k", type=int, default=4)
    exp.add_argument("--trials", type=int, default=100000)
    exp.add_argument("--samples", type=int, default=10)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--size-cap", type=int, default=24)
    exp.add_argument("--c0-cap", type=float, default=3.0)
    exp.add_argument("--c1-cap", type=float, default=16.0)
    exp.add_argument("--out", default=None)
    exp.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args, argv)
        if args.command == "extract":
            return _cmd_extract(args, argv)
        return _cmd_experiment(args, argv)
    except BoundViolationError as exc:
        print(f"guarantee failed: {exc}", file=sys.stderr)
        return 1
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 2
    except EdgeListError as exc:
        print(f"bad edge list: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - the exit-code boundary
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
