"""Per-layer metrics of the traced run: what each one is, which end-to-end
metric and workload it should move, and how it is computed from spans.

Spans come from ``tracer.py``, one file per CLI call. A span's self time is
its duration minus the time its direct child spans cover; spans are nested
and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

MODULES = ("graph", "instances", "peeling", "regularize", "edge_regular",
           "oracle", "cli")


@dataclass(frozen=True)
class LayerMetric:
    """Where a per-layer metric should show; its unit is in BENCHMARK.json."""

    name: str
    moves: str      # end-to-end metric(s) this layer should move
    on: str         # workload(s) where it should move
    flat_on: str    # workload(s) where it should stay flat


_m = LayerMetric

_PARSE = "every extract.*_s, peak_rss_mb"
_THM12 = "extract.thm12_s (heuristic branch); extract.boost_s (exhaustive)"
_THM41 = "extract.thm41_s"

LAYER_METRICS = (
    _m("graph.parse_edge_list.self_s", _PARSE, "sparse", "exact"),
    _m("graph.from_edges.self_s", _PARSE, "sparse", "exact"),
    _m("graph.induced.self_s", "extract.thm12_s, extract.prop11_s",
       "dense, sparse", "exact"),
    _m("graph.induced.calls", "extract.thm12_s, extract.prop11_s",
       "dense, sparse", "exact"),
    _m("graph.degree_stats.self_s", "run_s, setup_s", "sparse",
       "exact"),
    _m("graph.serialize_edge_list.self_s", "run_s, setup_s", "sparse",
       "exact"),
    _m("instances.sample_gnp_uniform.self_s", "setup_s, setup_rss_mb",
       "sparse", "exact"),
    _m("instances.sample_gnp_bar.self_s", "setup_s, setup_rss_mb",
       "sparse", "exact"),
    _m("instances.blocks_padded.self_s", "setup_s, setup_rss_mb",
       "sparse", "exact"),
    _m("peeling.proposition11_pipeline.self_s", "extract.prop11_s",
       "sparse", "dense"),
    _m("peeling.prop22_reduce.self_s", "extract.prop11_s", "sparse",
       "dense"),
    _m("peeling.prop22_reduce.deleted", "extract.prop11_s",
       "sparse", "dense"),
    _m("peeling.prop21_refine.self_s", "extract.prop11_s", "sparse",
       "dense"),
    _m("peeling.peel_below.self_s", _THM41, "dense", "exact"),
    _m("peeling.peel_below.deleted", _THM41, "dense", "exact"),
    _m("regularize.turan_independent_set.self_s", "extract.turan_s",
       "sparse", "dense"),
    _m("regularize.find_dense_subset.self_s", _THM12, "dense; exact",
       "sparse"),
    _m("regularize.find_dense_subset.calls", _THM12,
       "dense; exact", "sparse"),
    _m("regularize.find_dense_subset.hit_ratio", _THM12,
       "dense; exact", "sparse"),
    _m("regularize.density_boost.self_s", _THM12, "dense; exact",
       "sparse"),
    _m("regularize.density_boost.rounds", _THM12, "dense; exact",
       "sparse"),
    _m("regularize.lemma25_extract.self_s", "extract.thm12_s", "dense",
       "sparse"),
    _m("regularize.theorem12_pipeline.self_s", "extract.thm12_s",
       "dense", "sparse"),
    _m("edge_regular.min_tight_set.self_s", _THM41, "dense", "exact"),
    _m("edge_regular.min_tight_set.calls", _THM41, "dense",
       "exact"),
    _m("edge_regular.min_tight_set.set_size", _THM41, "dense",
       "exact"),
    _m("edge_regular.extract_perfect_matching.self_s", _THM41, "dense",
       "exact"),
    _m("edge_regular.matching_cascade.self_s", _THM41, "dense",
       "exact"),
    _m("edge_regular.theorem41_with_state.self_s", _THM41, "dense",
       "exact"),
    _m("edge_regular.bipartite_half.self_s",
       "extract.matching_s, extract.thm41_s", "sparse", "exact"),
    _m("edge_regular.matching_lower_bound.self_s",
       "extract.matching_s, extract.thm41_s", "sparse", "exact"),
    _m("oracle.exact_f.self_s", "experiment.gnpbar-scan_s", "exact",
       "sparse, dense (small scan only)"),
    _m("oracle.exact_f.explored", "experiment.gnpbar-scan_s",
       "exact", "sparse, dense (small scan only)"),
    _m("oracle.estimate_regular_prob.self_s", "experiment.regular-prob_s",
       "exact", "sparse, dense"),
    _m("cli.main.self_s", "run_s, extract.thm41_s", "dense", "-"),
    _m("cli.startup_s", "run_s", "exact", "-"),
) + tuple(
    _m(f"{mod}.errors", "fail_ratio",
       "sparse (RecursionError), dense (CapExceededError)", "-")
    for mod in MODULES
) + (
    _m("trace.overhead_frac", "-", "all", "-"),
)

# Functions whose self time is fitted against n on the scaling ladder.
LADDER_FUNCTIONS = ("graph.parse_edge_list",
                    "peeling.proposition11_pipeline",
                    "regularize.turan_independent_set",
                    "edge_regular.bipartite_half",
                    "edge_regular.matching_lower_bound",
                    "instances.sample_gnp_uniform")

LAYER_METRICS += tuple(
    _m(f"{fn}.slope", f"{fn.split('.')[1]} at n=1000..4000",
       "sparse family ladder", "-")
    for fn in LADDER_FUNCTIONS
)


class SpanTotals:
    """Per-function self time, call count and return-value counts, summed
    over the traced CLI calls fed to ``add``."""

    def __init__(self):
        self.fn: dict = defaultdict(Counter)
        self.errors: Counter = Counter()
        self.startup_s = 0.0

    def add(self, call: dict) -> None:
        spans = call["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _err, _counts in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, err, counts) in enumerate(spans):
            rec = self.fn[name]
            rec["self_s"] += end - start - covered[i]
            rec["calls"] += 1
            rec.update(counts or {})
            module = name.split(".")[0]
            # an exception counts once per module, where it leaves it
            if err and (parent < 0
                        or spans[parent][0].split(".")[0] != module):
                self.errors[module] += 1
        self.startup_s += call["startup_s"]

    def value(self, metric: str) -> float:
        if metric == "cli.startup_s":
            return self.startup_s
        mod, _, field = metric.rpartition(".")
        if field == "errors":
            return float(self.errors[mod])
        rec = self.fn.get(mod, Counter())
        if field == "hit_ratio":
            return rec["hits"] / rec["calls"] if rec["calls"] else 0.0
        if field == "set_size":
            return rec["set_size"] / rec["calls"] if rec["calls"] else 0.0
        return float(rec[field])


def slope(points) -> float:
    """Least-squares exponent b of y = a * n^b over (n, y) points."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
