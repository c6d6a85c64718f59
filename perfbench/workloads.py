"""Workload definitions: which input files each workload makes in set-up,
and which `nearreg` commands it then times.

A plan depends only on the workload name, the seed and the toy flag, so the
same seed always gives the same inputs and the same command list. File names
are relative to the run's working directory; every timed command writes its
report with ``--out``.

Every workload calls each of the eight timed commands at least once, so that
every end-to-end metric is defined (and non-zero) on every workload. Calls
outside a workload's emphasis are kept cheap and few, and marked "off"
below: every call of a list costs a process start-up, and a short list
leaves room for more repeats of each call in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

# Commands whose result is a subgraph of the input; kept_frac averages them.
KEPT_ALGORITHMS = ("prop11", "turan", "matching", "thm41", "thm12")

# Every timed command, as "<subcommand>.<name>"; each gets an <id>_s metric.
COMMANDS = ("extract.prop11", "extract.turan", "extract.matching",
            "extract.thm41", "extract.thm12", "extract.boost",
            "experiment.gnpbar-scan", "experiment.regular-prob")


@dataclass(frozen=True)
class Plan:
    """Set-up steps and timed calls of one workload at one seed.

    ``gens`` are (file, gen-argv-without-out) pairs, ``shapes`` are
    (file, n, edges) triples the benchmark writes itself, and ``calls`` are
    the timed nearreg argv lists (``--out`` is added by the runner).
    """

    gens: tuple
    shapes: tuple
    calls: tuple


def command_id(argv) -> str:
    return f"{argv[0]}.{argv[1]}"


def _path(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def _ladder(rungs: int) -> list:
    top = [(i, i + 1) for i in range(rungs - 1)]
    bottom = [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    return top + bottom + [(i, rungs + i) for i in range(rungs)]


def _cliques(copies: int, size: int) -> list:
    edges = []
    for c in range(copies):
        base = c * size
        edges += [(base + i, base + j)
                  for i in range(size) for j in range(i + 1, size)]
    return edges


def _bipartite(a: int, b: int) -> list:
    return [(u, a + v) for u in range(a) for v in range(b)]


# Seed of the inputs that do not change with the workload seed: the off
# calls, and the exact scan, whose time varies up to twofold with the ten
# graphs a seed samples.
FIXED_SEED = 0

# Sparse's small graphs, at seeds 0 and 1.
SMALL = ("small-0.txt", "small-1.txt")


def _small_experiments() -> list:
    # off: keep the experiment metrics defined on the workloads that
    # emphasise other layers
    return [
        ["experiment", "gnpbar-scan", "--n", "12", "--samples", "2",
         "--seed", str(FIXED_SEED)],
        ["experiment", "regular-prob", "--n", "20", "--k", "6",
         "--trials", "20000", "--seed", str(FIXED_SEED)],
    ]


def _extract_all(files, algorithms=("prop11", "turan", "matching",
                                    "thm41")) -> list:
    return [["extract", a, f] for f in files for a in algorithms]


def sparse(seed: int, toy: bool = False) -> Plan:
    # the star and the ladder at half the path's order: three passes of the
    # list fit in a run, and the O(n^2) scans still dominate at n=1000
    n = 100 if toy else 2000
    copies, size = (4, 5) if toy else (40, 25)
    gens = [
        ("uniform.txt", ["gnp-uniform", "--n", str(n), "--p",
                         str(6 / n), "--seed", str(seed)]),
        ("star.txt", ["star", "--n", str(n // 2)]),
    ] + [(f, ["gnp-uniform", "--n", "100", "--p", "0.06", "--seed", str(s)])
         for s, f in enumerate(SMALL)]
    shapes = [
        ("path.txt", n, _path(n)),
        ("ladder.txt", n // 2, _ladder(n // 4)),
        ("cliques.txt", copies * size, _cliques(copies, size)),
    ]
    calls = _extract_all(["uniform.txt", "star.txt", "path.txt",
                          "ladder.txt", "cliques.txt"])
    # off: the boost machinery on small sparse graphs, fixed like the
    # other off calls, since its time varies with the graph; thm12 on two,
    # since one call of it spread by a tenth between runs
    calls += [["extract", "thm12", f, "--epsilon", "0.5"] for f in SMALL]
    calls += [["extract", "boost", SMALL[0]]]
    calls += _small_experiments()
    return Plan(tuple(gens), tuple(shapes), tuple(map(tuple, calls)))


def dense(seed: int, toy: bool = False) -> Plan:
    n = 40 if toy else 300
    gens = [
        ("bar.txt", ["gnp-bar", "--n", str(n), "--seed", str(seed)]),
        # p = 0.23 keeps the average degree above 64 at n = 300, so the
        # ceil(d^2/4096) edge guarantee of thm41 is enforced
        ("uniform.txt", ["gnp-uniform", "--n", str(n), "--p", "0.23",
                         "--seed", str(seed + 1)]),
        ("blocks.txt", ["blocks-padded", "--n", str(n)]),
        ("blocks-small.txt", ["blocks-padded", "--n", str(n - n // 7)]),
        # for prop11, turan and matching, which take a few tens of
        # milliseconds at n=300; fixed, since the time of matching on it
        # varied by a fifth with the seed
        ("bar-large.txt", ["gnp-bar", "--n", str(2 * n),
                           "--seed", str(FIXED_SEED)]),
    ]
    calls = [
        ["extract", "thm41", "bar.txt"],
        ["extract", "thm41", "uniform.txt"],
        # thm12 on gnp-bar is left out: whether its Lemma 2.5 peel cap
        # refuses depends on the seed, so fail_ratio and kept_frac would
        # swing between seeds; on gnp-uniform it refuses for every seed
        ["extract", "thm12", "uniform.txt", "--epsilon", "0.5"],
        # thm12 on two blocks graphs of about a second each rather than one
        # of two seconds: a longer call is more often caught by a change of
        # machine speed part way, which the speed measurements miss
        ["extract", "thm12", "blocks.txt", "--epsilon", "0.5"],
        ["extract", "thm12", "blocks-small.txt", "--epsilon", "0.5"],
        # at n=300 matching takes tens of milliseconds, mostly parsing;
        # at n=600 it takes about 0.5 s
        ["extract", "matching", "bar-large.txt"],
    ]
    # off: cheap peeling-side calls and the heuristic boost; not on
    # gnp-uniform, where prop11 keeps either ~3% or ~50% of the vertices
    # depending on the seed, which would make kept_frac swing
    calls += [["extract", a, f]
              for f in ("blocks.txt", "bar-large.txt")
              for a in ("prop11", "turan")]
    # boost only on the fixed blocks graph: on gnp-bar its round count, and
    # so its time, varies fourfold with the seed
    calls += [["extract", "boost", "blocks.txt", "--epsilon", eps]
              for eps in ("0.1", "0.2")]
    calls += _small_experiments()
    return Plan(tuple(gens), (), tuple(map(tuple, calls)))


def exact(seed: int, toy: bool = False) -> Plan:
    graphs = 2 if toy else 4
    scan_n, scan_total, samples = (10, 4, 2) if toy else (18, 10, 2)
    trials = 20000 if toy else 1000000
    files = [f"small-{j}.txt" for j in range(graphs)]
    # p = 0.15: thm12 --epsilon 0.9 is refused on ~97% of these graphs
    # (~70% at p = 0.3). The graphs are fixed, all four refused: with
    # seed-drawn graphs about one seed in eight had one accepted, which
    # moves fail_ratio from 0.20 to 0.15, the size of its bound.
    gens = [(f, ["gnp-uniform", "--n", "22", "--p", "0.15",
                 "--seed", str(j)])
            for j, f in enumerate(files)]
    # the exhaustive boost and the off calls run on fixed complete bipartite
    # graphs: on the random graphs their times vary up to threefold with the
    # seed, which would swamp these few-millisecond calls
    sides = ((2, 5), (3, 4), (4, 4)) if toy else ((6, 16), (8, 14), (11, 11))
    shapes = [(f"bip-{a}-{b}.txt", a + b, _bipartite(a, b)) for a, b in sides]
    fixed = [f for f, _, _ in shapes]
    calls = [["extract", "boost", f, "--exact-limit", "24"]
             for f in fixed[1:]]
    calls += [["extract", "thm12", f, "--epsilon", "0.9",
               "--exact-limit", "24"] for f in files]
    # the scan of the ten graphs at seeds 0..9, in five calls of two: one
    # call of ten takes over a second, long enough for the machine to
    # change speed part way, which the speed measurements around it miss
    calls += [["experiment", "gnpbar-scan", "--n", str(scan_n), "--samples",
               str(samples), "--seed", str(FIXED_SEED + s)]
              for s in range(0, scan_total, samples)]
    calls += [["experiment", "regular-prob", "--n", "20", "--k", "6",
               "--trials", str(trials), "--seed", str(seed)]]
    # off: the peeling and matching extractors at start-up-dominated size
    calls += _extract_all(fixed[-1:])
    return Plan(tuple(gens), tuple(shapes), tuple(map(tuple, calls)))


PLANS = {"sparse": sparse, "dense": dense, "exact": exact}


def plan(name: str, seed: int, toy: bool = False) -> Plan:
    return PLANS[name](seed, toy)
