#!/usr/bin/env python3
"""Benchmark for the nearreg command line, run from the root of a checkout:

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

It runs a fixed list of `nearreg` commands per workload the way a user runs
them: one child process per command, one child at a time (a closed loop with
a single client). Each child is ``launch.py``, which calls the unchanged CLI
entry point and records how long it took from argument parsing to the
report on disk, and how fast the machine was just before and after
(``speed.py``); times are reported in seconds at a fixed reference speed.
Inputs are made in set-up from ``--seed``; the program sees only the
generated files. Every report is verified by ``checker.py``, which does not
import nearreg.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
reruns the list with spans recorded around the program's public functions
(``tracer.py``) and prints the per-layer metrics (``layers.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A per-call outcome log goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
RUN_LIMIT_S = 170          # a child still running then is killed
LADDER = (1000, 2000, 4000)
TOY_LADDER = (50, 100, 200)

# Workload names and every metric's name and unit come from here.
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


@dataclass
class Call:
    """One finished child: ``wall_s`` is spawn to exit without the speed
    measurements the child made, ``main_s`` the time inside
    nearreg.cli.main (``wall_s`` where that was not recorded), and ``scale``
    turns them into seconds at the reference speed (speed.py)."""

    argv: tuple
    wall_s: float
    main_s: float
    exit: int
    rss_mb: float
    stderr: str
    scale: float = 0.0
    outcome: str = "ok"
    problems: list = field(default_factory=list)
    report: dict = None


def outcome_of(exit_code: int, problems: list) -> str:
    """ok: exit 0 and the checker agrees; refused: exit 2 or 3; error:
    anything else (other exits, tracebacks, checker mismatches)."""
    if exit_code == 0 and not problems:
        return "ok"
    if exit_code in (2, 3):
        return "refused"
    return "error"


def write_edge_list(path: str, n: int, edges) -> None:
    edges = sorted(edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


class Runner:
    """Spawns nearreg children from one checkout; keeps the run's deadline,
    the checker's cache of input graphs and the last speed measurement."""

    def __init__(self, root: str, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.graphs: dict = {}
        self.speed_s = speed.measure()

    def graph(self, path: str) -> checker.InputGraph:
        if path not in self.graphs:
            self.graphs[path] = checker.InputGraph.read(path)
        return self.graphs[path]

    def spawn(self, argv, cwd: str, spans: str = None) -> Call:
        """Run one nearreg call in a child through launch.py (or, with
        ``spans``, through tracer.py) and wait for it."""
        # one BLAS thread: numpy's thread pool would otherwise spin on the
        # second core at every import, next to the single client
        env = dict(os.environ, PYTHONPATH=self.src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        err_path = os.path.join(self.work, "stderr.txt")
        times_path = os.path.join(self.work, "times.json")
        if os.path.exists(times_path):
            os.remove(times_path)
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            if spans:
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                       spans, repr(start), "--", *argv]
            else:
                cmd = [sys.executable, os.path.join(HERE, "launch.py"),
                       times_path, "--", *argv]
            proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() >= self.deadline:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s at {argv}")
        with open(err_path, "rb") as fh:
            lines = fh.read().decode("utf-8", "replace").strip().splitlines()
        record = {}
        if os.path.exists(spans or times_path):
            with open(spans or times_path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        speeds = record.get("speed_s", [])
        call = Call(tuple(argv), wall - sum(speeds),
                    record.get("main_s") or wall, proc.returncode,
                    usage.ru_maxrss / 1024, lines[-1] if lines else "")
        if len(speeds) == 2:
            # measured just before and after main, in the same process
            call.scale = 2 * speed.REFERENCE_S / sum(speeds)
        return call

    def rescale(self) -> float:
        """Measure the machine's speed again; returns the factor that turns
        a time taken since the last measurement into seconds at the
        reference speed, from the mean of the two measurements."""
        before, self.speed_s = self.speed_s, speed.measure()
        return 2 * speed.REFERENCE_S / (before + self.speed_s)

    def setup(self, plan: workloads.Plan, d: str, spans: str = None):
        """Make every input file of ``plan`` in ``d``; returns (seconds at
        the reference speed, largest child RSS in MB). Each ``gen`` child is
        scaled by its own speed measurements, like a timed call, and the
        shapes written here by measurements just before and after."""
        os.makedirs(d)
        took = rss = 0.0
        for i, (name, argv) in enumerate(plan.gens):
            trace = spans and os.path.join(spans, f"setup-{i}.json")
            call = self.spawn(["gen", *argv, "--out", name], d, trace)
            if call.exit != 0:
                raise BenchError(f"set-up step {call.argv} exited "
                                 f"{call.exit}: {call.stderr}")
            rss = max(rss, call.rss_mb)
            took += call.wall_s * call.scale
        self.rescale()
        start = time.perf_counter()
        for name, n, edges in plan.shapes:
            write_edge_list(os.path.join(d, name), n, edges)
        took += (time.perf_counter() - start) * self.rescale()
        return took, rss

    def run_call(self, i: int, argv, d: str, spans: str = None) -> Call:
        """Run the ``i``-th call of a list and check its report."""
        report_path = os.path.join(d, f"report-{i}.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        trace = spans and os.path.join(spans, f"call-{i}.json")
        call = self.spawn([*argv, "--out", f"report-{i}.json"], d, trace)
        if not call.scale:
            call.scale = self.rescale()   # the child ended before main did
        if call.exit == 0:
            try:
                with open(report_path, "r", encoding="utf-8") as fh:
                    call.report = json.load(fh)
                call.problems = checker.check_report(
                    call.argv, call.report, d, self.graph)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                call.problems = [f"unreadable report: {exc!r}"]
        call.outcome = outcome_of(call.exit, call.problems)
        return call

    def run_pass(self, calls, d: str, spans: str = None) -> list:
        """Run ``calls`` once, in order."""
        return [self.run_call(i, argv, d, spans)
                for i, argv in enumerate(calls)]


def _same_report(a: dict, b: dict) -> bool:
    strip = ("wall_time_s",)
    return ({k: v for k, v in a.items() if k not in strip}
            == {k: v for k, v in b.items() if k not in strip})


def compare_repeat(first: Call, later: Call) -> None:
    """A repeat must end the same way with the same report."""
    if first.exit != later.exit or (
            first.report is not None and later.report is not None
            and not _same_report(first.report, later.report)):
        later.problems.append("outcome or report differs from the first "
                              "call")
        later.outcome = "error"


def merge_repeats(reps: list) -> Call:
    """One list entry from its repeats: the first run, with every repeat's
    findings, and failed if any repeat failed, so a flaky call cannot pass
    as ok. ``attempted`` and ``failed`` count entries, not repeats, so they
    do not depend on how many repeats fitted in the run."""
    entry = reps[0]
    entry.problems = list(dict.fromkeys(p for c in reps for p in c.problems))
    bad = next((c for c in reps if c.outcome != "ok"), None)
    if bad is not None and entry.outcome == "ok":
        entry.outcome = bad.outcome
    return entry


def log_calls(calls: list) -> None:
    for c in calls:
        line = c.problems[0] if c.problems else c.stderr
        print(json.dumps({"argv": list(c.argv), "exit": c.exit,
                          "outcome": c.outcome, "last_line": line}),
              file=sys.stderr)


def kept_frac(calls: list, runner: Runner, d: str) -> float:
    """Mean kept share over the extraction calls; a failed call keeps 0."""
    shares = []
    for c in calls:
        if c.argv[0] == "extract" and c.argv[1] in workloads.KEPT_ALGORITHMS:
            ok = c.outcome == "ok"
            shares.append(checker.kept_fraction(c.argv, c.report, runner.graph,
                                                d) if ok else 0.0)
    return statistics.fmean(shares)


def end_to_end(runner: Runner, plan: workloads.Plan, seconds: float) -> tuple:
    """Set up, then run the list over and over until ``seconds`` of calls
    have run. Returns (one Call per list entry, problems, metrics).

    Times are seconds at the reference speed (speed.py): the machine this
    was tuned on changes speed by up to 1.8x for minutes at a time, so raw
    times of the same code spread by 0.2 to 0.5 between runs. Each call's
    time is the median of its scaled repeats, which lie a whole pass apart;
    the set-ups are spread over the run and ``setup_s`` is their median."""
    setups = []

    def set_up() -> None:
        setups.append(runner.setup(plan, os.path.join(
            runner.work, f"setup-{len(setups)}")))

    set_up()
    d = os.path.join(runner.work, "setup-0")
    repeats = [[] for _ in plan.calls]
    spent, i = 0.0, 0
    # the list in a loop until the time is spent, stopping mid-list, so every
    # run measures the whole --seconds; at least MIN_PASSES whole passes;
    # the other set-ups are spread evenly over the run
    while spent < seconds or i < MIN_PASSES * len(plan.calls):
        if len(setups) < SETUP_REPEATS and \
                spent >= seconds * len(setups) / SETUP_REPEATS:
            set_up()
        k = i % len(plan.calls)
        call = runner.run_call(k, plan.calls[k], d)
        if repeats[k]:
            compare_repeat(repeats[k][0], call)
        repeats[k].append(call)
        spent += call.wall_s
        i += 1
    while len(setups) < SETUP_REPEATS:
        set_up()
    problems = same_setup_files(runner.work, plan)
    entries = [merge_repeats(reps) for reps in repeats]
    log_calls(entries)
    call_wall = [statistics.median(c.wall_s * c.scale for c in reps)
                 for reps in repeats]
    call_main = [statistics.median(c.main_s * c.scale for c in reps)
                 for reps in repeats]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "setup_rss_mb": max(rss for _, rss in setups),
        "run_s": sum(call_wall),
        "peak_rss_mb": max(c.rss_mb for reps in repeats for c in reps),
        "fail_ratio": statistics.fmean(c.outcome != "ok" for c in entries),
        "kept_frac": kept_frac(entries, runner, d),
    }
    for cmd in workloads.COMMANDS:
        metrics[f"{cmd}_s"] = sum(
            t for t, argv in zip(call_main, plan.calls)
            if workloads.command_id(argv) == cmd)
    print(f"calls: {i}, list length: {len(plan.calls)}, repeats per call: "
          f"{min(map(len, repeats))}..{max(map(len, repeats))}",
          file=sys.stderr)
    return entries, problems, _named(metrics, SPEC["end_to_end"])


def _named(values: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def same_setup_files(work: str, plan: workloads.Plan) -> list:
    """Set-up is deterministic: every repeat must write the same bytes."""
    problems = []
    names = [name for name, _ in plan.gens] + [s[0] for s in plan.shapes]
    for name in names:
        blobs = set()
        for r in range(SETUP_REPEATS):
            with open(os.path.join(work, f"setup-{r}", name), "rb") as fh:
                blobs.add(fh.read())
        if len(blobs) != 1:
            problems.append(f"set-up file {name} differs between repeats")
    return problems


def load_spans(directory: str) -> list:
    calls = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            calls.append(json.load(fh))
    return calls


def ladder(runner: Runner, seed: int, sizes) -> tuple:
    """Traced sparse family (average degree 6) at each n; returns the calls
    and the fitted exponent of each LADDER_FUNCTIONS self time."""
    points = {fn: [] for fn in layers.LADDER_FUNCTIONS}
    every = []
    for n in sizes:
        d = os.path.join(runner.work, f"ladder-{n}")
        spans = os.path.join(runner.work, f"ladder-{n}-spans")
        os.makedirs(spans)
        plan = workloads.Plan(
            gens=(("g.txt", ("gnp-uniform", "--n", str(n), "--p",
                             str(6 / n), "--seed", str(seed))),),
            shapes=(),
            calls=tuple(("extract", a, "g.txt")
                        for a in ("prop11", "turan", "matching")))
        runner.setup(plan, d, spans)
        every += runner.run_pass(plan.calls, d, spans)
        totals = layers.SpanTotals()
        for call in load_spans(spans):
            totals.add(call)
        for fn in layers.LADDER_FUNCTIONS:
            points[fn].append((n, totals.value(f"{fn}.self_s")))
    return every, {f"{fn}.slope": layers.slope(p) for fn, p in points.items()}


def per_layer(runner: Runner, plan: workloads.Plan, seed: int,
              toy: bool) -> tuple:
    d = os.path.join(runner.work, "setup-0")
    spans = os.path.join(runner.work, "spans")
    os.makedirs(spans)
    runner.setup(plan, d, spans)
    plain = runner.run_pass(plan.calls, d)
    traced = runner.run_pass(plan.calls, d, spans)
    for a, b in zip(plain, traced):
        compare_repeat(a, b)
    overhead = (sum(c.wall_s for c in traced)
                / sum(c.wall_s for c in plain) - 1)
    entries = [merge_repeats([a, b]) for a, b in zip(plain, traced)]
    log_calls(entries)
    totals = layers.SpanTotals()
    for call in load_spans(spans):
        totals.add(call)
    ladder_calls, slopes = ladder(runner, seed, TOY_LADDER if toy else LADDER)
    values = {m["name"]: totals.value(m["name"]) for m in SPEC["per_layer"]
              if not m["name"].endswith(".slope")}
    values.update(slopes)
    values["trace.overhead_frac"] = overhead
    return (entries + ladder_calls, [],
            _named(values, SPEC["per_layer"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nearreg", "cli.py")):
        print("run.py: no src/nearreg here; run it from the root of a "
              "nearreg checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(root, work)
        # compile and cache the package once, outside every timed region
        warm = runner.spawn(["--help"], work)
        if warm.exit != 0:
            raise BenchError(f"nearreg does not start: {warm.stderr}")
        plan = workloads.plan(args.workload, args.seed, args.toy)
        if args.trace:
            calls, problems, metrics = per_layer(runner, plan, args.seed,
                                                 args.toy)
        else:
            calls, problems, metrics = end_to_end(runner, plan, args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += [p for c in calls for p in c.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c.outcome != "ok" for c in calls),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
