"""Degree-peeling extractors.

Two primitives: delete-while-below-threshold (min-degree peel) and
delete-while-at-or-above-threshold (max-degree peel), composed into the
refine / reduce / pipeline operations. Thresholds are frozen when a round
starts while degrees are recomputed after every single deletion. The
min-degree peel takes the least degree first, the max-degree peel the
eligible vertices by id; ties go to the lowest id, so traces are
reproducible. Both primitives walk ascending neighbour lists
(`Graph.neighbor_lists`) and mark the live set in a bytearray, 1 for live;
they keep the degree of every live vertex exact, so the extractors read
their survivors' statistics from the degrees the peel tracked, with no
second pass over the adjacency. A caller that needs the peeled subgraph
takes `induced` of the live set, whose id map gives the host ids.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional, Union

from .errors import PreconditionError
from .graph import (
    DegreeStats,
    ExtractionResult,
    Graph,
    as_fraction,
    check,
    induced,
    ledger_ratio,
    require_bounds,
)

Real = Union[int, float, Fraction]


class PeelStep(NamedTuple):
    vertex: int
    degree: int       # degree at deletion time
    round_index: int


@dataclass
class PeelTrace:
    """Ordered record of deletions plus the per-round thresholds used."""

    steps: list = field(default_factory=list)
    thresholds: list = field(default_factory=list)

    def survivors(self, n: int) -> frozenset:
        dead = frozenset(s.vertex for s in self.steps)
        return frozenset(v for v in range(n) if v not in dead)

    def to_json(self) -> dict:
        return {
            "steps": [[s.vertex, s.degree, s.round_index] for s in self.steps],
            "thresholds": [str(t) for t in self.thresholds],
        }


def _int_threshold(threshold: Real) -> Real:
    """The least integer at least ``threshold`` (``math.inf`` as it is):
    an integer degree is >= threshold exactly when it is >= this, and
    comparing two ints is cheaper than comparing with a `Fraction`."""
    return threshold if threshold == math.inf else math.ceil(threshold)


def peel_min(nbrs: list, alive: bytearray, deg: list, threshold: Real,
             steps: list, cap: Optional[int] = None) -> bool:
    """Smallest-last peel of the live set ``alive`` (a bytearray, 1 for
    live, updated in place) of the graph with neighbour lists ``nbrs``:
    delete the least-degree live vertex, lowest id first on ties, until its
    degree is at least ``threshold`` or ``cap`` deletions are done, in
    O(m log n) through one lazy (degree, id) heap. Keeps the live degrees
    ``deg`` exact in place; appends one round-0 `PeelStep` per deletion to
    ``steps``.

    The deleted set is the complement of the threshold-core, and the steps
    are the whole order's (``threshold`` = ``math.inf``) up to its first
    degree >= threshold. Peeling the subgraph induced on a suffix
    ``order[i:]`` gives that suffix with the same degrees at removal, as
    ``induced`` keeps ids in order.

    Returns wants_more: True iff the cap was reached while an eligible
    vertex remained.
    """
    stop = _int_threshold(threshold)
    heap = [(deg[v], v) for v in compress(range(len(alive)), alive)]
    heapq.heapify(heap)
    deleted = 0
    while heap:
        d, v = heapq.heappop(heap)
        if d != deg[v] or not alive[v]:
            continue  # stale: v was deleted or has lost degree since
        if d >= stop:
            break
        if deleted == cap:
            return True
        steps.append(PeelStep(v, d, 0))
        alive[v] = 0
        deleted += 1
        for u in nbrs[v]:
            if alive[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return False


def _peel_max(nbrs: list, alive: bytearray, deg: list, threshold: Fraction,
              round_index: int, steps: list) -> None:
    """Delete vertices of degree >= threshold from ``alive``, lowest id
    first, recomputing degrees after each deletion, so that ``deg`` stays
    exact for every live vertex. Since degrees only drop, one ascending
    scan visits every vertex that could ever be eligible."""
    stop = _int_threshold(threshold)
    for v in compress(range(len(alive)), alive):
        if deg[v] >= stop:
            steps.append(PeelStep(v, deg[v], round_index))
            alive[v] = 0
            for u in nbrs[v]:
                if alive[u]:
                    deg[u] -= 1


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
    deg = g.degrees()
    st = DegreeStats.of(deg, g.m)
    d0 = st.avg_deg
    if st.max_deg > kf * d0:
        raise PreconditionError(
            f"max degree {st.max_deg} exceeds k*avg = {float(kf * d0):.4g}; "
            "reduce first")
    steps: list = []
    alive = bytearray(b"\1") * g.n
    if d0 > 0:
        peel_min(g.neighbor_lists(), alive, deg, af * d0, steps)
    members = list(compress(range(g.n), alive))
    kept_m = g.m - sum(s.degree for s in steps)
    kept = DegreeStats.of([deg[v] for v in members], kept_m)
    checks = require_bounds("prop21_refine", [
        check("Prop2.1-ratio", ledger_ratio(kept.max_deg, kept.min_deg), "<=",
              kf / af),
        check("Prop2.1-size", len(members), ">=",
              (1 - 2 * af) / (kf - 2 * af) * g.n),
        check("Prop2.1-edges", kept_m, ">=",
              (kf - 2 * kf * af) / (2 * kf - 4 * af) * g.n * d0),
    ])
    return ExtractionResult(frozenset(members), None, kept,
                            f"Prop2.1(k={k},alpha={alpha})", checks)


def prop22_reduce(g: Graph, k: Real) -> tuple:
    """Iterated max-degree deletion until max_deg <= k * avg_deg.

    Each round freezes the current average degree d_i and peels vertices of
    degree >= k*d_i/2 (recomputing degrees per deletion). Runs at most
    ceil(log2 n) + 1 round checks; the output keeps at least
    n^(1 + log2(1 - 1/k)) vertices. Returns (subgraph, trace, ledger), the
    ledger holding the checked Prop2.2-spread and Prop2.2-size entries.
    """
    kf = as_fraction(k)
    if not kf > 1:
        raise PreconditionError("k must be > 1")
    trace = PeelTrace()
    alive = bytearray(b"\1") * g.n
    deg = g.degrees()
    nbrs = None  # built by the first round that peels
    m_alive = g.m
    kstar = (g.n - 1).bit_length() if g.n >= 1 else 0
    for i in range(kstar + 1):
        live_deg = list(compress(deg, alive))
        if not live_deg:
            break
        d_i = Fraction(2 * m_alive, len(live_deg))
        if max(live_deg) <= kf * d_i:
            break
        thr = kf * d_i / 2
        trace.thresholds.append(thr)
        before = len(trace.steps)
        if nbrs is None:
            nbrs = g.neighbor_lists()
        _peel_max(nbrs, alive, deg, thr, i, trace.steps)
        m_alive -= sum(s.degree for s in trace.steps[before:])
    members = list(compress(range(g.n), alive))
    n_out = len(members)
    out_stats = DegreeStats.of([deg[v] for v in members], m_alive)
    size_thr = g.n ** (1 + math.log2(1 - 1 / float(kf))) if g.n > 0 else 0.0
    checks = require_bounds("prop22_reduce", [
        check("Prop2.2-spread", out_stats.max_deg, "<=",
              kf * out_stats.avg_deg),
        check("Prop2.2-size", n_out, ">=", size_thr),
    ])
    sub, _ = induced(g, members)
    return sub, trace, checks


def proposition11_pipeline(g: Graph, c: Real) -> ExtractionResult:
    """Reduce-then-refine composition producing a c-nearly regular subgraph.

    Splits c = k1/alpha with alpha the midpoint of 1/c and 1/2, reduces with
    k1, then refines with (k1, alpha). Rejected for c <= 2, where no valid
    split exists.
    """
    cf = as_fraction(c)
    if not cf > 2:
        raise PreconditionError("pipeline requires c > 2")
    af = (1 / cf + Fraction(1, 2)) / 2
    k1 = af * cf
    reduced, trace, reduce_checks = prop22_reduce(g, k1)
    refined = prop21_refine(reduced, k1, af)
    # map refined vertices (ids in `reduced`) back to host ids
    survivors = sorted(trace.survivors(g.n))
    host_vertices = frozenset(survivors[v] for v in refined.vertices)
    # the refine keeps a (1-2a)/(k1-2a) share of what the reduce keeps
    reduce_size = next(c for c in reduce_checks if c.bound_id == "Prop2.2-size")
    size_thr = float((1 - 2 * af) / (k1 - 2 * af)) * reduce_size.threshold
    checks = list(refined.bounds) + [
        check("Prop1.1-ratio", refined.ratio, "<=", cf),
        check("Prop1.1-size", len(host_vertices), ">=", size_thr),
    ]
    require_bounds("proposition11_pipeline", checks)
    return ExtractionResult(host_vertices, None, refined.stats,
                            f"Prop1.1(c={c})", tuple(checks))
