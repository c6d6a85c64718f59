"""Command-line front door: generate instances, run extractions, and drive
the experiments, emitting machine-readable JSON reports. Every report is
built here: the library returns plain data. `OPTIONS` gives each command's
options a type and default, the `*_KINDS` tables each kind's function and
the options it takes, and `COMMANDS` each command's runner and positional
arguments. `_read_argv` reads a command line against these tables, and
`_options` refuses an option the kind does not take (exit 2).

Exit codes: 0 all guarantee checks passed (or --help printed the usage), 1
a guarantee failed (`BoundViolationError`), 2 an algorithm precondition
failed (`PreconditionError`, `CapExceededError`) or `_read_argv` refused the
command line (an unknown option, say: the usage and one error line on
stderr), 3 a search-size cap was exceeded (`SizeCapError`) or the input is
too large to hold in memory (`MemoryError`), 4 file or format trouble
(`EdgeListError`, `OSError`), 5 an internal error (any other exception; a
bug, never an input condition). `--help` and a refused command line exit
by raising `SystemExit`; every other way out is `main`'s return value. An
exception ends the command with one line of stderr; a package error with
its type's `label` and `exit_code` (see `errors`). Reports are
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

import atexit
import gc
import json
import math
import statistics
import sys
import time
from itertools import chain
from typing import Callable, NoReturn, Optional

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


def _options(command: str, kind: str, given: dict, names: tuple) -> dict:
    """The values of the options ``names`` that ``kind`` takes, as
    ``given`` (by name) or by default. Refused in turn, each in the order
    of `OPTIONS`: a missing option (one with no default), a given option
    the kind does not take and a negative --seed."""
    table = OPTIONS[command]
    missing = [name for name in names
               if name not in given and table[name][1] is None]
    extra = [name for name in table if name in given and name not in names]
    for verb, wrong in (("needs", missing), ("does not take", extra)):
        if wrong:
            raise PreconditionError(f"{command} {kind} {verb} --"
                                    + wrong[0].replace("_", "-"))
    if given.get("seed", 0) < 0:
        raise PreconditionError("--seed must be >= 0")
    return {name: given.get(name, table[name][1]) for name in names}


def _cmd_gen(argv: list, out: str, given: dict, kind: str) -> int:
    """Run the kind's generator, looked up in `instances` at call time (so
    a rebinding of its names reaches it), on the options it takes."""
    generator, names = GEN_KINDS[kind]
    values = _options("gen", kind, given, names)
    g = getattr(instances, generator)(*values.values())
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(serialize_edge_list(g))
    sidecar = {
        "schema": "nearreg-gen/1",
        "params": {"kind": kind.replace("-", "_"), **values},
        "n": g.n,
        "m": g.m,
    }
    _emit(sidecar, out + ".json")
    return 0


def _load_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read())


def _cmd_extract(argv: list, out: Optional[str], given: dict,
                 algorithm: str, graph: str) -> int:
    """Run the algorithm's extractor, looked up in this module at call time
    (so that a rebinding of its names, as a tracer does, reaches every
    one), on the options it takes, and report what it returns."""
    extractor, names, write = EXTRACT_KINDS[algorithm]
    params = _options("extract", algorithm, given, names)

    def body() -> dict:
        g = _load_graph(graph)
        result, ledger = write(globals()[extractor](g, *params.values()))
        return {
            "algorithm": algorithm,
            "params": params,
            "input": _graph_summary(g),
            "result": result,
            "bounds": ledger,
        }

    return _write_report(argv, out, body)


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


def _cmd_experiment(argv: list, out: Optional[str], given: dict,
                    name: str) -> int:
    run, names = EXPERIMENT_KINDS[name]
    values = _options("experiment", name, given, names)
    seed = values.pop("seed")
    return _write_report(argv, out, lambda: {
        "experiment": name, "seed": seed,
        "result": {**values, **run(**values, seed=seed)}})


# every command, with its runner, its positional arguments (the first names
# its kind, one of the keys of its kinds table) and what it does
COMMANDS = {
    "gen": (_cmd_gen, ("kind",), GEN_KINDS,
            "generate an instance as an edge list"),
    "extract": (_cmd_extract, ("algorithm", "graph"), EXTRACT_KINDS,
                "run one extraction on a graph file"),
    "experiment": (_cmd_experiment, ("name",), EXPERIMENT_KINDS,
                   "run a statistical experiment"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _usage(command: Optional[str]) -> str:
    """The usage of ``command`` (of nearreg itself if None), laid out as
    argparse lays it out at 80 columns: the options, then the positional
    arguments from a line of their own, each part moved to a new line
    where it would pass column 78."""
    if command is None:
        return "usage: nearreg [-h] {%s} ...\n" % ",".join(COMMANDS)
    _, positionals, kinds, _ = COMMANDS[command]
    options = ["[-h]"] + [f"[{_flag(name)} {name.upper()}]"
                          for name in OPTIONS[command]]
    options += ["--out", "OUT"] if command == "gen" else ["[--out OUT]"]
    lines = [f"usage: nearreg {command}"]
    pad = " " * len(lines[0])
    for parts in (options, ["{%s}" % ",".join(kinds), *positionals[1:]]):
        for part in parts:
            if len(lines[-1]) + 1 + len(part) > 78 and lines[-1] != pad:
                lines.append(pad)
            lines[-1] += " " + part
        lines.append(pad)
    return "\n".join(lines[:-1]) + "\n"


def _help(command: Optional[str]) -> str:
    """The usage of ``command`` (of nearreg itself if None), what it does,
    and its commands, or its kinds with the options each takes."""
    if command is None:
        head = "Nearly regular subgraph extraction toolkit\n\ncommands:"
        rows = [f"{name:<12}{entry[3]}" for name, entry in COMMANDS.items()]
    else:
        _, positionals, kinds, summary = COMMANDS[command]
        table = OPTIONS[command]
        head = (f"{summary}\n\n{positionals[0]}s and the options each "
                "takes (default):")
        rows = [f"{kind:<20}" + (" ".join(
            _flag(name) + ("" if table[name][1] is None
                           else f" ({table[name][1]})")
            for name in entry[1]) or "none") for kind, entry in kinds.items()]
    return f"{_usage(command)}\n{head}\n" + "".join(f"  {row}\n"
                                                     for row in rows)


def _usage_error(command: Optional[str], message: str) -> NoReturn:
    """Print the usage of ``command`` and ``message`` to stderr, and exit
    2."""
    prog = "nearreg" if command is None else "nearreg " + command
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _choices(table: dict) -> str:
    return "(choose from %s)" % ", ".join(map(repr, table))


def _read_argv(argv: list) -> tuple:
    """Read a command line against the tables: its command, the command's
    positional arguments (its kind first), the options given, by name and
    cast to their `OPTIONS` type, and --out (None if not given).

    An option is ``--name value`` or ``--name=value``, named in full, and
    may come anywhere after the command; the token after ``--name`` is its
    value, whatever it starts with, and a repeated option keeps its last
    value. ``--`` ends the options, so a positional argument that starts
    with ``-`` follows it. ``-h`` or ``--help`` prints the help of the
    command read so far and exits 0. A command line this grammar refuses
    prints the usage of its command and argparse's message for the fault
    to stderr and exits 2, at the first of: an unknown command or kind, a
    value its type refuses or an option with no value, in the order given;
    then a missing positional argument (or gen's --out), then tokens left
    over (an unknown option, say), all named at once.
    """
    command, words, given, extra = None, [], {}, []
    flags, positionals, ended = {}, (), False
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not ended:
            ended = True
        elif ended or token[:1] != "-" or token == "-":
            if command is None:
                if token not in COMMANDS:
                    _usage_error(None, "argument command: invalid choice: "
                                 f"{token!r} {_choices(COMMANDS)}")
                command = token
                _, positionals, kinds, _ = COMMANDS[command]
                flags = {_flag(name): (name, cast)
                         for name, (cast, _) in OPTIONS[command].items()}
                flags["--out"] = ("out", str)
            elif len(words) == len(positionals):
                extra.append(token)
            elif words or token in kinds:
                words.append(token)
            else:
                _usage_error(command, f"argument {positionals[0]}: invalid "
                             f"choice: {token!r} {_choices(kinds)}")
        elif token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        else:
            flag, eq, value = token.partition("=")
            if flag not in flags:
                extra.append(token)
                continue
            if not eq:
                value = next(tokens, None)
                if value is None:
                    _usage_error(command,
                                 f"argument {flag}: expected one argument")
            name, cast = flags[flag]
            try:
                given[name] = cast(value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid "
                             f"{cast.__name__} value: {value!r}")
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    missing = list(positionals[len(words):])
    if command == "gen" and "out" not in given:
        missing.append("--out")
    if missing:
        _usage_error(command, "the following arguments are required: "
                     + ", ".join(missing))
    if extra:
        _usage_error(command, "unrecognized arguments: " + " ".join(extra))
    return command, words, given, given.pop("out", None)


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
    command, words, given, out = _read_argv(argv)
    try:
        return COMMANDS[command][0](argv, out, given, *words)
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
