"""Degree-peeling extractors.

Two primitives: delete-while-below-threshold (min-degree peel) and
delete-while-at-or-above-threshold (max-degree peel), composed into the
refine / reduce / pipeline operations. Thresholds are frozen when a round
starts while degrees are recomputed after every single deletion; among
eligible vertices the lowest id goes first, so traces are reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import PreconditionError
from .graph import (
    ExtractionResult,
    Graph,
    as_fraction,
    bit_indices,
    check,
    degree_stats,
    induced,
    ledger_ratio,
    require_bounds,
    stats_for_members,
)

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class PeelStep:
    vertex: int
    degree: int       # degree at deletion time
    round_index: int


@dataclass
class PeelTrace:
    """Ordered record of deletions plus the per-round thresholds used."""

    steps: list = field(default_factory=list)
    thresholds: list = field(default_factory=list)

    def deleted(self) -> frozenset:
        return frozenset(s.vertex for s in self.steps)

    def survivors(self, n: int) -> frozenset:
        dead = self.deleted()
        return frozenset(v for v in range(n) if v not in dead)

    def to_json(self) -> dict:
        return {
            "steps": [[s.vertex, s.degree, s.round_index] for s in self.steps],
            "thresholds": [str(t) for t in self.thresholds],
        }


def _peel_min(adj, alive: int, deg: list, threshold: Fraction, round_index: int,
              steps: list, cap: Optional[int] = None) -> tuple:
    """Delete vertices of degree < threshold, lowest id first, recomputing
    degrees after each deletion. Stops after ``cap`` deletions if given.

    Returns (alive_mask, wants_more) where wants_more is True iff the cap was
    reached while an eligible vertex remained.
    """
    heap = [v for v in bit_indices(alive) if deg[v] < threshold]
    heapq.heapify(heap)
    deleted = 0
    while heap:
        v = heapq.heappop(heap)
        if not alive >> v & 1:
            continue
        if cap is not None and deleted == cap:
            return alive, True
        steps.append(PeelStep(v, deg[v], round_index))
        alive &= ~(1 << v)
        deleted += 1
        for u in bit_indices(adj[v] & alive):
            deg[u] -= 1
            if deg[u] + 1 >= threshold > deg[u]:
                heapq.heappush(heap, u)
    return alive, False


def _peel_max(adj, alive: int, deg: list, threshold: Fraction,
              round_index: int, steps: list) -> int:
    """Delete vertices of degree >= threshold, lowest id first, recomputing
    degrees after each deletion. Since degrees only drop, one ascending scan
    visits every vertex that could ever be eligible."""
    for v in bit_indices(alive):
        if deg[v] >= threshold:
            steps.append(PeelStep(v, deg[v], round_index))
            alive &= ~(1 << v)
            for u in bit_indices(adj[v] & alive):
                deg[u] -= 1
    return alive


def peel_below(g: Graph, threshold: Real) -> tuple:
    """Delete vertices of degree below ``threshold`` until none remain.

    Returns (subgraph, trace); the subgraph is relabelled 0..k-1 and the
    trace holds original ids, so survivors are recoverable either way.
    """
    thr = as_fraction(threshold)
    if thr < 0:
        raise PreconditionError("peel threshold must be nonnegative")
    trace = PeelTrace()
    if thr > 0 and g.n > 0:
        trace.thresholds.append(thr)
        deg = g.degrees()
        alive, _ = _peel_min(g.adj, g.full_mask(), deg, thr, 0, trace.steps)
    else:
        alive = g.full_mask()
    sub, _ = induced(g, bit_indices(alive))
    return sub, trace


def prop21_refine(g: Graph, k: Real, alpha: Real) -> ExtractionResult:
    """Min-degree peel at alpha*avg_deg, yielding a (k/alpha)-nearly regular
    subgraph that keeps a guaranteed fraction of vertices and edges.

    Requires max_deg <= k * avg_deg (reduce first if not). The edgeless
    degenerate case short-circuits to the identity, which satisfies every
    posted bound.
    """
    kf, af = as_fraction(k), as_fraction(alpha)
    if not kf > 1:
        raise PreconditionError("k must be > 1")
    if not 0 < af < Fraction(1, 2):
        raise PreconditionError("alpha must lie in (0, 1/2)")
    st = degree_stats(g)
    d0 = st.avg_deg
    if st.max_deg > kf * d0:
        raise PreconditionError(
            f"max degree {st.max_deg} exceeds k*avg = {float(kf * d0):.4g}; "
            "reduce first")
    trace = PeelTrace()
    alive = g.full_mask()
    kept_m = g.m
    if d0 > 0:
        thr = af * d0
        trace.thresholds.append(thr)
        deg = g.degrees()
        alive, _ = _peel_min(g.adj, alive, deg, thr, 0, trace.steps)
        kept_m = g.m - sum(s.degree for s in trace.steps)
    kept = stats_for_members(g.adj, alive, kept_m, alive.bit_count())
    checks = require_bounds("prop21_refine", [
        check("Prop2.1-ratio", ledger_ratio(kept.max_deg, kept.min_deg), "<=",
              kf / af),
        check("Prop2.1-size", alive.bit_count(), ">=",
              (1 - 2 * af) / (kf - 2 * af) * g.n),
        check("Prop2.1-edges", kept_m, ">=",
              (kf - 2 * kf * af) / (2 * kf - 4 * af) * g.n * d0),
    ])
    return ExtractionResult.from_induced(
        g, bit_indices(alive), f"Prop2.1(k={k},alpha={alpha})", checks)


def prop22_reduce(g: Graph, k: Real) -> tuple:
    """Iterated max-degree deletion until max_deg <= k * avg_deg.

    Each round freezes the current average degree d_i and peels vertices of
    degree >= k*d_i/2 (recomputing degrees per deletion). Runs at most
    ceil(log2 n) + 1 round checks; the output keeps at least
    n^(1 + log2(1 - 1/k)) vertices. Returns (subgraph, trace).
    """
    kf = as_fraction(k)
    if not kf > 1:
        raise PreconditionError("k must be > 1")
    trace = PeelTrace()
    alive = g.full_mask()
    deg = g.degrees()
    m_alive = g.m
    kstar = (g.n - 1).bit_length() if g.n >= 1 else 0
    for i in range(kstar + 1):
        n_i = alive.bit_count()
        if n_i == 0:
            break
        max_i = max(deg[v] for v in bit_indices(alive))
        d_i = Fraction(2 * m_alive, n_i)
        if max_i <= kf * d_i:
            break
        thr = kf * d_i / 2
        trace.thresholds.append(thr)
        before = len(trace.steps)
        alive = _peel_max(g.adj, alive, deg, thr, i, trace.steps)
        m_alive -= sum(s.degree for s in trace.steps[before:])
    out_stats = stats_for_members(g.adj, alive, m_alive, alive.bit_count())
    require_bounds("prop22_reduce",
                   prop22_bounds(g.n, kf, out_stats, alive.bit_count()))
    sub, _ = induced(g, bit_indices(alive))
    return sub, trace


def prop22_bounds(n0: int, k: Real, out_stats, n_out: int) -> list:
    """Evaluate the reduce guarantees: degree spread and vertex count."""
    kf = as_fraction(k)
    size_thr = n0 ** (1 + math.log2(1 - 1 / float(kf))) if n0 > 0 else 0.0
    return [
        check("Prop2.2-spread", out_stats.max_deg, "<=",
              kf * out_stats.avg_deg),
        check("Prop2.2-size", n_out, ">=", size_thr),
    ]


def proposition11_pipeline(g: Graph, c: Real,
                           alpha: Optional[Real] = None) -> ExtractionResult:
    """Reduce-then-refine composition producing a c-nearly regular subgraph.

    Splits c = k1/alpha with alpha strictly between 1/c and 1/2 (midpoint by
    default), reduces with k1, then refines with (k1, alpha). Rejected for
    c <= 2, where no valid split exists.
    """
    cf = as_fraction(c)
    if not cf > 2:
        raise PreconditionError("pipeline requires c > 2")
    af = as_fraction(alpha) if alpha is not None else (1 / cf + Fraction(1, 2)) / 2
    if not 1 / cf < af < Fraction(1, 2):
        raise PreconditionError("alpha must lie strictly between 1/c and 1/2")
    k1 = af * cf
    n0 = g.n
    reduced, trace = prop22_reduce(g, k1)
    refined = prop21_refine(reduced, k1, af)
    # map refined vertices (ids in `reduced`) back to host ids
    survivors = sorted(trace.survivors(n0))
    host_vertices = frozenset(survivors[v] for v in refined.vertices)
    size_thr = 0.0
    if n0 > 0:
        size_thr = float((1 - 2 * af) / (k1 - 2 * af)) * \
            n0 ** (1 + math.log2(1 - 1 / float(k1)))
    checks = list(refined.bounds) + [
        check("Prop1.1-ratio", refined.ratio, "<=", cf),
        check("Prop1.1-size", len(host_vertices), ">=", size_thr),
    ]
    require_bounds("proposition11_pipeline", checks)
    return ExtractionResult(host_vertices, None, refined.stats, refined.ratio,
                            f"Prop1.1(c={c})", tuple(checks))
