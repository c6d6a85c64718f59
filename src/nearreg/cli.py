"""Command-line front door: generate instances, run extractions, and drive
the experiments, emitting machine-readable JSON reports. Every report is
built here: the library returns plain data. `OPTIONS` gives each command's
options a type and default, and the `*_KINDS` tables each kind's function
and the options it takes; `_options` refuses any other option (exit 2).

Exit codes: 0 all guarantee checks passed, 1 a guarantee failed
(`BoundViolationError`), 2 an algorithm precondition failed
(`PreconditionError`, `CapExceededError`) or argparse refused the command
line (an unknown option, say), 3 a search-size cap was exceeded
(`SizeCapError`) or the input is too large to hold in memory
(`MemoryError`), 4 file or format trouble (`EdgeListError`, `OSError`), 5
an internal error (any other exception; a bug, never an input condition).
An exception ends the command with one line of stderr; a package error
with its type's `label` and `exit_code` (see `errors`). Reports are
byte-identical across runs of the same command and seed except for the
wall_time_s field, which runs from the start of the command's work (for
extract, the input read) to the report built: encoding and writing the
report lie outside it. A report, and the `gen` sidecar, is the text
``json.dumps(report, indent=2, sort_keys=True)`` gives, plus a newline.

`extract` draws nothing at random. The randomness of `gen` and
`experiment` flows from their --seed flag: the random generators consume
it directly; multi-part experiments derive substreams by fixed offsets
(point-prob draws its weight vector at seed and its trials at seed+1,
gnpbar-scan samples graph i at seed+i).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import statistics
import sys
import time
from itertools import chain
from typing import Callable, Optional

import numpy as np

from . import instances
from .edge_regular import matching_lower_bound, theorem41
from .errors import NearRegError, PreconditionError, SizeCapError
from .graph import (
    Graph,
    _sign_of_difference,
    degree_stats,
    parse_edge_list,
    serialize_edge_list,
)
from .oracle import (
    C0_CAP,
    VERTEX_CAP,
    estimate_point_prob,
    estimate_regular_prob,
    exact_f,
    point_prob_distribution,
    regular_prob_reference,
)
from .peeling import (
    prop21_refine,
    prop22_reduce,
    proposition11_pipeline,
)
from .regularize import (
    DEFAULT_EXACT_LIMIT,
    density_boost,
    lemma25_extract,
    theorem12_pipeline,
    theorem13_pipeline,
    turan_independent_set,
)

SCHEMA = "nearreg-report/1"

# every option of each command, with its type and default. A gen option has
# no default, so a kind that takes it needs it; every kind of every command
# refuses an option it does not take (see `_options`).
OPTIONS = {
    "gen": {"s": (int, None), "n": (int, None), "k": (int, None),
            "p": (float, None), "seed": (int, None)},
    "extract": {"k": (float, 2.0), "alpha": (float, 0.4), "c": (float, 3.0),
                "epsilon": (float, 0.1),
                "exact_limit": (int, DEFAULT_EXACT_LIMIT)},
    "experiment": {"t": (int, 100), "n": (int, 20), "k": (int, 4),
                   "trials": (int, 100000), "samples": (int, 10),
                   "seed": (int, 0)},
}

# every gen kind, with the name of its generator in `instances` and the
# options that generator takes, in its argument order
GEN_KINDS = {
    "blocks": ("blocks", ("s",)),
    "blocks-padded": ("blocks_padded", ("n",)),
    "gnp-bar": ("sample_gnp_bar", ("n", "seed")),
    "gnp-uniform": ("sample_gnp_uniform", ("n", "p", "seed")),
    "complete-bipartite": ("complete_bipartite", ("k", "n")),
    "star": ("star", ("n",)),
}


def _number(x):
    """A report number: an int as it is, anything else as a float, and an
    exact value beyond the float range as +-inf (the check stays exact)."""
    if isinstance(x, int):
        return x
    try:
        return float(x)
    except OverflowError:
        return math.inf if _sign_of_difference(0, x) < 0 else -math.inf


def _stats_json(st) -> dict:
    """The report entries of a `DegreeStats`."""
    return {"max_deg": st.max_deg, "min_deg": st.min_deg,
            "avg_deg": float(st.avg_deg), "avg_deg_exact": str(st.avg_deg),
            "density": float(st.density), "density_exact": str(st.density)}


def _graph_summary(g: Graph) -> dict:
    return {"n": g.n, "m": g.m, **_stats_json(degree_stats(g))}


def _ledger(checks) -> list:
    """The report entries of a ledger of `BoundCheck`s, in its order."""
    return [{"id": c.bound_id, "kind": c.kind,
             "threshold": _number(c.threshold),
             "achieved": _number(c.achieved), "pass": c.passed}
            for c in checks]


# The report writers: each takes what an extractor returns and gives the
# report's ``result`` and ``bounds``, one list that ``result`` may hold too.

def _result(res) -> tuple:
    """Of an `ExtractionResult`."""
    ledger, ratio = _ledger(res.bounds), res.ratio
    return {"vertices": sorted(res.vertices),
            "edges": None if res.edges is None else sorted(res.edges),
            "stats": _stats_json(res.stats), "ratio": float(ratio),
            "ratio_exact": str(ratio), "guarantee": res.guarantee,
            "bounds": ledger}, ledger


def _reduction(out: tuple) -> tuple:
    """Of `prop22_reduce`: the subgraph's summary and the peel trace, its
    steps as int lists [vertex, degree, round], `_json_text`'s fast rows."""
    sub, trace, checks, _ = out
    trace_json = {"steps": [list(step) for step in trace.steps],
                  "thresholds": [str(t) for t in trace.thresholds]}
    return {"subgraph": _graph_summary(sub), "trace": trace_json}, \
        _ledger(checks)


def _boost(boost) -> tuple:
    """Of a `BoostOutcome`."""
    ledger = _ledger(boost.bounds)
    return {"n": boost.subgraph.n, "m": boost.subgraph.m,
            "density": float(boost.density),
            "density_exact": str(boost.density),
            "certified": boost.certified, "rounds": boost.rounds,
            "vertices": sorted(boost.vertices), "bounds": ledger}, ledger


def _cascade_json(cascade) -> dict:
    """The report entries of a `CascadeState`."""
    return {"rounds": cascade.rounds,
            "set_sizes": [[len(a), len(b)] for a, b in cascade.sets],
            "matching_sizes": [len(m) for m in cascade.matchings],
            "residual_edges": cascade.residual_edges}


def _edge_result(out: tuple) -> tuple:
    """Of `theorem41`: its result with the cascade's entries added."""
    res, cascade = out
    result, ledger = _result(res)
    return {**result, "cascade": _cascade_json(cascade)}, ledger


# every extract algorithm, with the name of its extractor in this module,
# the options that extractor takes after the graph, in its argument order
# (the report echoes them as ``params``), and its report writer
EXTRACT_KINDS = {
    "prop21": ("prop21_refine", ("k", "alpha"), _result),
    "prop22": ("prop22_reduce", ("k",), _reduction),
    "prop11": ("proposition11_pipeline", ("c",), _result),
    "boost": ("density_boost", ("epsilon", "exact_limit"), _boost),
    "lemma25": ("lemma25_extract", ("epsilon",), _result),
    "thm12": ("theorem12_pipeline", ("epsilon", "exact_limit"), _result),
    "thm13": ("theorem13_pipeline", ("epsilon", "exact_limit"), _result),
    "thm41": ("theorem41", (), _edge_result),
    "turan": ("turan_independent_set", (), _result),
    "matching": ("matching_lower_bound", (), _result),
}


_str_text = json.encoder.encode_basestring_ascii
# the C encoder: the text of a non-finite float (NaN, Infinity, -Infinity),
# and the TypeError of a value JSON has no form for
_stdlib_text = json.JSONEncoder().encode


def _json_text(value, pad: str = "") -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` returns for a
    value whose first line is indented by ``pad``.

    The lists that make a report long (vertices, edge pairs, peel steps) are
    each written by one ``%`` format of a template repeated per element: a
    list of ints with one ``%d`` per element, a list of int rows of one
    width with one row of ``%d`` per row. ``%d`` writes an int as
    ``int.__repr__`` does; these paths take exact ints only, so a bool or an
    int-like numpy scalar, and rows of width 0, take the general path. Any
    other list or tuple is written element by element, a dict in key order,
    and a scalar as the stdlib writes it. Dict keys must be strings, as a
    report's are: any other key raises TypeError, where ``json.dumps`` would
    write it as a string.
    """
    if isinstance(value, str):
        return _str_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == {int}:
            body = sep.join(["%d"] * len(value)) % tuple(value)
        elif (kinds <= {list, tuple} and len(set(map(len, value))) == 1
                and set(map(type, chain.from_iterable(value))) == {int}):
            cell = ",\n" + inner + "  "
            row = "[" + cell[1:] + cell.join(["%d"] * len(value[0])) \
                + "\n" + inner + "]"
            cells = tuple(chain.from_iterable(value))
            body = sep.join([row] * len(value)) % cells
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{\n" + inner + (",\n" + inner).join([
            _str_text(k) + ": " + _json_text(v, inner)
            for k, v in sorted(value.items())]) + "\n" + pad + "}"
    return _stdlib_text(value)


def _emit(report: dict, out: Optional[str]) -> None:
    payload = _json_text(report) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _write_report(argv: list, out: Optional[str], body: Callable) -> int:
    """Emit the report of one command: the fields ``body()`` returns, with
    the schema, the command line, and the wall time of ``body``."""
    start = time.perf_counter()
    report = {"schema": SCHEMA, "command": argv}
    report.update(body())
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, out)
    return 0


def _options(args, kind: str, names: tuple) -> dict:
    """The values of the options ``names`` that ``kind`` takes, as given or
    by default. Refused in turn: a missing option (one with no default), a
    given option the kind does not take and a negative --seed."""
    table = OPTIONS[args.command]
    given = {name: getattr(args, name) for name in table
             if getattr(args, name) is not None}
    missing = [name for name in names
               if name not in given and table[name][1] is None]
    extra = [name for name in given if name not in names]
    for verb, wrong in (("needs", missing), ("does not take", extra)):
        if wrong:
            raise PreconditionError(f"{args.command} {kind} {verb} --"
                                    + wrong[0].replace("_", "-"))
    if given.get("seed", 0) < 0:
        raise PreconditionError("--seed must be >= 0")
    return {name: given.get(name, table[name][1]) for name in names}


def _cmd_gen(args, argv: list) -> int:
    """Run the kind's generator, looked up in `instances` at call time (so
    a rebinding of its names reaches it), on the options it takes."""
    generator, names = GEN_KINDS[args.kind]
    values = _options(args, args.kind, names)
    g = getattr(instances, generator)(*values.values())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_edge_list(g))
    sidecar = {
        "schema": "nearreg-gen/1",
        "params": {"kind": args.kind.replace("-", "_"), **values},
        "n": g.n,
        "m": g.m,
    }
    _emit(sidecar, args.out + ".json")
    return 0


def _load_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read())


def _cmd_extract(args, argv: list) -> int:
    """Run the algorithm's extractor, looked up in this module at call time
    (so that a rebinding of its names, as a tracer does, reaches every
    one), on the options it takes, and report what it returns."""
    extractor, names, write = EXTRACT_KINDS[args.algorithm]
    params = _options(args, args.algorithm, names)

    def body() -> dict:
        g = _load_graph(args.graph)
        result, ledger = write(globals()[extractor](g, *params.values()))
        return {
            "algorithm": args.algorithm,
            "params": params,
            "input": _graph_summary(g),
            "result": result,
            "bounds": ledger,
        }

    return _write_report(argv, args.out, body)


def _experiment_point_prob(t: int, trials: int, seed: int) -> dict:
    if t < 1:
        raise PreconditionError("--t must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = 1 / 16, 9 / 16
    rhos = lo + (hi - lo) * rng.random(t)
    dist = point_prob_distribution(rhos)
    s_star = int(np.argmax(dist))
    exact = float(dist[s_star])
    est = estimate_point_prob(list(rhos), s_star, trials, seed + 1)
    cap_bound = C0_CAP / math.sqrt(t)
    return {
        "argmax_s": s_star,
        "max_exact": exact,
        "mc_estimate": est,
        "mc_dp_gap": abs(est - exact),
        "gap_bound": 4 / math.sqrt(trials),
        "calibration_cap": cap_bound,
        "within_calibration_cap": exact <= cap_bound,
    }


def _experiment_regular_prob(n: int, k: int, trials: int, seed: int) -> dict:
    est = estimate_regular_prob(n, k, trials, seed)
    # an estimate of 0 or 1 is clamped into [1/(trials+1), 1 - 1/(trials+1)]
    # first, so no run claims a zero error; an estimate strictly between
    # 0 and 1 is at least 1/trials away from both ends and stays as it is
    p = min(max(est, 1 / (trials + 1)), 1 - 1 / (trials + 1))
    return {"estimate": est,
            "standard_error": math.sqrt(p * (1 - p) / trials),
            "calibration_reference": regular_prob_reference(n, k)}


def _experiment_gnpbar_scan(n: int, samples: int, seed: int) -> dict:
    if samples < 1:
        raise PreconditionError("--samples must be at least 1")
    if n > VERTEX_CAP:
        raise SizeCapError(
            f"scan instances of {n} vertices exceed the cap {VERTEX_CAP}")
    rows = []
    for i in range(samples):
        g = instances.sample_gnp_bar(n, seed + i)
        res = exact_f(g, 1)
        rows.append({
            "sample": i,
            "seed": seed + i,
            "m": g.m,
            "largest_regular": res.value,
            "witness": sorted(res.witness),
            "explored": res.explored,
        })
    return {"rows": rows,
            "median": statistics.median(r["largest_regular"] for r in rows)}


# every experiment, with its function and the options that function takes;
# the report echoes them, --seed beside the result and the others in it
EXPERIMENT_KINDS = {
    "point-prob": (_experiment_point_prob, ("t", "trials", "seed")),
    "regular-prob": (_experiment_regular_prob, ("n", "k", "trials", "seed")),
    "gnpbar-scan": (_experiment_gnpbar_scan, ("n", "samples", "seed")),
}


def _cmd_experiment(args, argv: list) -> int:
    run, names = EXPERIMENT_KINDS[args.name]
    values = _options(args, args.name, names)
    seed = values.pop("seed")
    return _write_report(argv, args.out, lambda: {
        "experiment": args.name, "seed": seed,
        "result": {**values, **run(**values, seed=seed)}})


def _build_parser() -> tuple:
    """The top-level parser, and each command's own parser by name: its
    positional arguments, then every option `OPTIONS` gives it, and --out."""
    parser = argparse.ArgumentParser(
        prog="nearreg",
        description="Nearly regular subgraph extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate an instance as an edge list") \
        .add_argument("kind", choices=GEN_KINDS)
    ext = sub.add_parser("extract", help="run one extraction on a graph file")
    ext.add_argument("algorithm", choices=EXTRACT_KINDS)
    ext.add_argument("graph", help="edge-list file")
    sub.add_parser("experiment", help="run a statistical experiment") \
        .add_argument("name", choices=EXPERIMENT_KINDS)
    for command, options in OPTIONS.items():
        add = sub.choices[command].add_argument
        for name, (cast, _) in options.items():
            add("--" + name.replace("_", "-"), type=cast)
        add("--out", required=command == "gen")
    return parser, sub.choices


def main(argv: Optional[list] = None) -> int:
    """Run one command; returns its exit code.

    While the command runs, the objects the imports left are frozen out of
    the cyclic garbage collector (`gc.freeze`), so its collections do not
    rescan them; they are thawed on every way out. A caller that froze
    objects itself keeps its freeze as it was.

    `gc.freeze` is also registered with `atexit`, once per process: at
    interpreter exit the heap is frozen again, so the collections the
    interpreter runs while it shuts down skip the import heap, numpy's
    included, which would otherwise cost a command-line call 20-30 ms of
    walking objects that are about to be freed anyway. An at-exit handler
    registered before a call still runs, after the freeze, and buffered
    stdout is still flushed.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        return _run(argv)
    finally:
        if thaw:
            gc.unfreeze()


def _run(argv: Optional[list]) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # refused with the usage of the command they were given to
        commands[args.command].error(
            "unrecognized arguments: " + " ".join(extra))
    try:
        return {"gen": _cmd_gen, "extract": _cmd_extract,
                "experiment": _cmd_experiment}[args.command](args, argv)
    except NearRegError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("size cap: the input is too large to hold in memory",
              file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the exit-code boundary
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
