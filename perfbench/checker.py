"""Independent checker for nearreg reports.

It does not import `nearreg`. It re-reads the input edge list named in the
report's command, recomputes the degrees of the returned subgraph with its
own code, and checks each report against the guarantees the command
promises. ``check_report`` returns a list of problems; an empty list means
the report passed.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
from fractions import Fraction

import numpy as np


class InputGraph:
    """A graph as ``n``, an edge set of (u, v) pairs with u < v, and
    neighbour sets."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = set(edges)
        self.m = len(self.edges)
        self.nbrs = [set() for _ in range(n)]
        for u, v in self.edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    @staticmethod
    def read(path: str) -> "InputGraph":
        """Read an edge-list file: header ``n m``, then one ``u v`` a line."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
        g = InputGraph(int(lines[0][0]),
                       ((int(u), int(v)) for u, v in lines[1:]))
        if g.m != int(lines[0][1]) or g.m != len(lines) - 1:
            raise ValueError(f"{path}: header and edge lines disagree")
        return g


def _stats(degrees: list, edge_count: int) -> dict:
    """Exact degree statistics in the report's vocabulary."""
    size = len(degrees)
    if size == 0:
        return {"max_deg": 0, "min_deg": 0, "avg_deg_exact": Fraction(0),
                "density_exact": Fraction(0)}
    pairs = size * (size - 1) // 2
    return {
        "max_deg": max(degrees),
        "min_deg": min(degrees),
        "avg_deg_exact": Fraction(2 * edge_count, size),
        "density_exact": Fraction(edge_count, pairs) if pairs else Fraction(0),
    }


def _compare_stats(where: str, reported: dict, expected: dict) -> list:
    problems = []
    for key, want in expected.items():
        got = reported.get(key)
        if isinstance(want, Fraction):
            got = Fraction(got) if isinstance(got, str) else None
        if got != want:
            problems.append(f"{where}.{key}: reported {reported.get(key)!r}, "
                            f"recomputed {want}")
    return problems


def _ratio(stats: dict):
    if stats["max_deg"] == 0:
        return Fraction(1)
    if stats["min_deg"] == 0:
        return None
    return Fraction(stats["max_deg"], stats["min_deg"])


def _check_ratio(result: dict, stats: dict) -> list:
    want = _ratio(stats)
    if want is None:
        return ["result has an isolated vertex next to a positive degree"]
    if Fraction(result.get("ratio_exact", "nan")) != want:
        return [f"ratio_exact {result.get('ratio_exact')!r} != {want}"]
    return []


def _induced(g: InputGraph, result: dict) -> tuple:
    """Recompute stats of the induced subgraph on result['vertices']."""
    members = result["vertices"]
    if members != sorted(set(members)) or \
            any(not 0 <= v < g.n for v in members):
        return None, ["vertices are not sorted distinct ids of the input"]
    inside = set(members)
    degrees = [len(g.nbrs[v] & inside) for v in members]
    stats = _stats(degrees, sum(degrees) // 2)
    problems = [] if result.get("edges") is None else \
        ["induced result carries an edge list"]
    problems += _compare_stats("stats", result["stats"], stats)
    problems += _check_ratio(result, stats)
    return stats, problems


def _edge_subgraph(g: InputGraph, result: dict) -> tuple:
    """Recompute stats of the subgraph made of result['edges']."""
    edges = [tuple(e) for e in result["edges"] or ()]
    if len(set(edges)) != len(edges):
        return None, ["edge list has duplicates"]
    missing = [e for e in edges if e not in g.edges]
    if missing:
        return None, [f"edges not in the input, e.g. {missing[0]}"]
    deg: dict = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    problems = []
    if result["vertices"] != sorted(deg):
        problems.append("vertices are not the endpoints of the edges")
    stats = _stats(list(deg.values()), len(edges))
    problems += _compare_stats("stats", result["stats"], stats)
    problems += _check_ratio(result, stats)
    return stats, problems


def _bounds_pass(report: dict) -> list:
    ledgers = [report.get("bounds", [])]
    result = report.get("result")
    if isinstance(result, dict):
        ledgers.append(result.get("bounds", []))
    return [f"bound {b.get('id')} failed" for ledger in ledgers
            for b in ledger if b.get("pass") is not True]


def _option(argv, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_extract(argv, report: dict, g: InputGraph) -> list:
    algo = argv[1]
    result = report["result"]
    problems = []
    degrees = [len(s) for s in g.nbrs]
    problems += _compare_stats("input", report["input"],
                               _stats(degrees, g.m))
    if (report["input"].get("n"), report["input"].get("m")) != (g.n, g.m):
        problems.append("input n/m differ from the file")
    if algo == "boost":
        members = result["vertices"]
        inside = set(members)
        m = sum(len(g.nbrs[v] & inside) for v in members) // 2
        pairs = len(members) * (len(members) - 1) // 2
        if (result["n"], result["m"]) != (len(members), m):
            problems.append("boost n/m differ from the returned vertices")
        if pairs and Fraction(result["density_exact"]) != Fraction(m, pairs):
            problems.append("boost density differs from the recomputed one")
        return problems
    if algo in ("matching", "thm41"):
        stats, found = _edge_subgraph(g, result)
    else:
        stats, found = _induced(g, result)
    problems += found
    if stats is None:
        return problems
    ratio = _ratio(stats)
    if algo == "prop11":
        c = Fraction(_option(argv, "--c", "3.0"))
        if ratio is None or ratio > c:
            problems.append(f"prop11 ratio {ratio} exceeds c={c}")
    elif algo == "turan":
        inside = set(result["vertices"])
        if any(g.nbrs[v] & inside for v in inside):
            problems.append("turan set is not independent")
        if g.n and len(inside) * (Fraction(2 * g.m, g.n) + 1) < g.n:
            problems.append("turan set is smaller than n/(d+1)")
    elif algo == "matching":
        if stats["max_deg"] > 1:
            problems.append("matching edges share an endpoint")
        need = -(-g.m // g.n) if g.n else 0
        if len(result["edges"]) < need:
            problems.append(f"matching has {len(result['edges'])} edges, "
                            f"needs ceil(m/n) = {need}")
    elif algo == "thm41":
        if ratio is None or ratio > 5:
            problems.append(f"thm41 ratio {ratio} exceeds 5")
    elif algo == "thm12":
        eps = float(_option(argv, "--epsilon", "0.1"))
        if ratio is None or float(ratio) > 1 + eps + 1e-12:
            problems.append(f"thm12 ratio {ratio} exceeds 1+eps")
    return problems


def skewed_graph(n: int, seed: int) -> InputGraph:
    """The skewed model as documented: vertex i (1-based) has weight
    1/4 + i/(2n), pair (i, j) is an edge with probability p_i * p_j, and one
    PCG64 uniform is drawn per pair in lexicographic order."""
    weights = [float(Fraction(1, 4) + Fraction(i, 2 * n))
               for i in range(1, n + 1)]
    pairs = list(itertools.combinations(range(n), 2))
    probs = np.array([weights[i] * weights[j] for i, j in pairs])
    draws = np.random.Generator(np.random.PCG64(seed)).random(len(pairs))
    return InputGraph(n, (pairs[k] for k in np.flatnonzero(draws < probs)))


def _check_gnpbar_scan(argv, report: dict) -> list:
    body = report["result"]
    n = int(_option(argv, "--n", "20"))
    seed = int(_option(argv, "--seed", "0"))
    samples = int(_option(argv, "--samples", "10"))
    rows = body["rows"]
    problems = []
    if len(rows) != samples:
        return [f"scan has {len(rows)} rows, expected {samples}"]
    for i, row in enumerate(rows):
        if row["seed"] != seed + i:
            problems.append(f"row {i} has seed {row['seed']}")
            continue
        g = skewed_graph(n, seed + i)
        witness = row["witness"]
        inside = set(witness)
        degrees = {len(g.nbrs[v] & inside) for v in witness}
        if row["m"] != g.m:
            problems.append(f"row {i}: m={row['m']}, regenerated m={g.m}")
        if len(degrees) > 1 or witness != sorted(inside) or \
                any(not 0 <= v < g.n for v in witness):
            problems.append(f"row {i}: witness is not a regular subgraph")
        if row["largest_regular"] != len(witness):
            problems.append(f"row {i}: value differs from witness size")
    if body["median"] != statistics.median(r["largest_regular"]
                                           for r in rows):
        problems.append("scan median is wrong")
    return problems


def regular_probability(n: int, k: int) -> float:
    """Exact probability that the skewed model restricted to its first k
    vertices is regular, by enumerating all 2^C(k,2) graphs on k vertices."""
    weights = [Fraction(1, 4) + Fraction(i, 2 * n) for i in range(1, k + 1)]
    pairs = list(itertools.combinations(range(k), 2))
    probs = np.array([float(weights[i] * weights[j]) for i, j in pairs])
    codes = np.arange(1 << len(pairs), dtype=np.int64)
    present = (codes[:, None] >> np.arange(len(pairs))) & 1
    degrees = np.zeros((len(codes), k), dtype=np.int64)
    for idx, (i, j) in enumerate(pairs):
        degrees[:, i] += present[:, idx]
        degrees[:, j] += present[:, idx]
    regular = (degrees == degrees[:, :1]).all(axis=1)
    weight = np.prod(np.where(present == 1, probs, 1 - probs), axis=1)
    return float(weight[regular].sum())


def _check_regular_prob(argv, report: dict) -> list:
    body = report["result"]
    n = int(_option(argv, "--n", "20"))
    k = int(_option(argv, "--k", "4"))
    trials = int(_option(argv, "--trials", "100000"))
    est = body["estimate"]
    exact = regular_probability(n, k)
    # six standard errors of the exact value: a false alarm is ~1e-9 likely
    tolerance = 6 * math.sqrt(exact * (1 - exact) / trials) + 1 / trials
    problems = []
    if abs(est - exact) > tolerance:
        problems.append(f"estimate {est} is {abs(est - exact):.3g} from the "
                        f"exact {exact:.6g} (tolerance {tolerance:.3g})")
    se = math.sqrt(max(est * (1 - est), 1e-300) / trials)
    if not math.isclose(body["standard_error"], se, rel_tol=1e-9):
        problems.append("standard_error is not sqrt(p(1-p)/trials)")
    return problems


def check_report(argv, report: dict, workdir: str, graph_for=None) -> list:
    """Problems found in ``report`` for the nearreg call ``argv``.

    ``argv`` names input files relative to ``workdir``. ``graph_for`` maps a
    path to an ``InputGraph``; pass a caching one to read each input once.
    """
    graph_for = graph_for or InputGraph.read
    problems = []
    if report.get("schema") != "nearreg-report/1":
        problems.append(f"unknown schema {report.get('schema')!r}")
    if report.get("command") != list(argv):
        problems.append("report command differs from the call")
    problems += _bounds_pass(report)
    if argv[0] == "extract":
        g = graph_for(os.path.join(workdir, argv[2]))
        problems += _check_extract(argv, report, g)
    elif argv[1] == "gnpbar-scan":
        problems += _check_gnpbar_scan(argv, report)
    elif argv[1] == "regular-prob":
        problems += _check_regular_prob(argv, report)
    return problems


def kept_fraction(argv, report: dict, graph_for=None, workdir: str = ".") \
        -> float:
    """Share of the input an extraction kept: vertices/n for induced
    results, edges/m for edge results."""
    g = (graph_for or InputGraph.read)(os.path.join(workdir, argv[2]))
    result = report["result"]
    if result.get("edges") is not None:
        return len(result["edges"]) / g.m if g.m else 0.0
    return len(result["vertices"]) / g.n if g.n else 0.0
