"""Degree-peeling extractors.

Three peels. `threshold_core(g, threshold)` deletes every vertex of
degree below a fixed threshold, again and again, and hands back what is
left, the threshold's core, which no deletion order changes (Seidman
1983): the live set, a bytearray with 1 for live, with the degrees and the
number deleted. It serves the refine, Lemma 2.5's extraction and Theorem
4.1's first peel, and reads the rows of the vertices it deletes from the
CSR arrays. `peel_min(g)` is the smallest-last order (least degree first,
lowest id on ties) for the callers that need the order itself: the boost,
the dense-subset search and `exact_f`'s seed. The reduce runs its own
delete-while-at-or-above-threshold scan (the max-degree peel) over the
eligible vertices by id, its threshold frozen when a round starts, and the
pipeline composes the reduce and the refine. Degrees are recomputed after
every single deletion, and each peel keeps the degree of every live vertex
exact, so the extractors read their survivors' statistics from the degrees
the peel tracked, with no second pass over the adjacency. A caller that
needs the peeled subgraph takes `induced` of the live set, whose id map
gives the host ids.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Union

import numpy as np

from .errors import PreconditionError
from .graph import (
    DegreeStats,
    ExtractionResult,
    Graph,
    Real,
    Surd,
    as_fraction,
    check,
    degree_stats,
    induced,
    ledger_ratio,
    require_bounds,
)


class PeelStep(NamedTuple):
    vertex: int
    degree: int       # degree at deletion time
    round_index: int


class PeelTrace(NamedTuple):
    """Ordered record of deletions plus the per-round thresholds used."""

    steps: list
    thresholds: list


def peel_min(g: Graph) -> list:
    """Smallest-last order of ``g``: delete the least-degree live vertex,
    lowest id first on ties, until no vertex is left, in O(m log n) through
    one lazy heap of integer keys ``degree * n + id``: as every id is below
    n, they order as the (degree, id) pairs do. Returns one round-0
    `PeelStep` per deletion, in order, with the degree at deletion.

    Peeling the subgraph induced on a suffix ``order[i:]`` gives that
    suffix with the same degrees at removal, as ``induced`` keeps ids in
    order. The vertices left once the degrees reach a threshold t are t's
    core (`threshold_core`).
    """
    n = g.n
    nbrs, alive, deg = g.neighbor_lists(), bytearray(b"\1") * n, g.degrees()
    steps: list = []
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    while len(steps) < n:  # every live vertex has a current entry
        d, v = divmod(heapq.heappop(heap), n)
        if d != deg[v] or not alive[v]:
            continue  # stale: v was deleted or has lost degree since
        steps.append(PeelStep(v, d, 0))
        alive[v] = 0
        for u in nbrs[v]:
            if alive[u]:
                deg[u] -= 1
                heapq.heappush(heap, deg[u] * n + u)
    return steps


def threshold_core(g: Graph, threshold: Union[Real, Surd]) -> tuple:
    """The core of ``g`` at ``threshold``: what is left once every vertex
    of degree below ``threshold`` is deleted, again and again. It is the
    same whatever the deletion order (Seidman 1983), so no order is kept.
    Returns (alive, deg, deleted): the live set, a bytearray with 1 for
    live; the degrees, exact for every live vertex; and the number of
    vertices deleted.

    An integer degree is below ``threshold`` exactly when it is below its
    ceiling. One comparison of the degree array seeds a worklist with every
    vertex below it, and a vertex joins the list once, when its degree
    first falls below it. The row of each listed vertex is read from its
    CSR slice (the offsets as one Python list, made once some vertex is
    listed), so the cost is O(n + m) and no neighbour lists are built.
    """
    stop = math.ceil(threshold)
    degrees = np.diff(g.indptr)
    low = degrees < stop
    alive = bytearray((~low).tobytes())
    deg = degrees.tolist()
    work = np.flatnonzero(low).tolist()
    if work:
        indptr, indices = g.indptr.tolist(), g.indices
        for v in work:  # grows as it is walked
            for u in indices[indptr[v]:indptr[v + 1]].tolist():
                if alive[u]:
                    deg[u] -= 1
                    if deg[u] < stop:
                        alive[u] = 0
                        work.append(u)
    return alive, deg, len(work)


def prop21_refine(g: Graph, k: Real, alpha: Real) -> ExtractionResult:
    """The core at alpha*avg_deg (`threshold_core`), a (k/alpha)-nearly
    regular subgraph that keeps a guaranteed fraction of vertices and
    edges; its edge count is half the sum of its live degrees.

    Requires max_deg <= k * avg_deg (reduce first if not). On the edgeless
    graph the threshold is 0, so the core is everything, which satisfies
    every posted bound.
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
    alive, deg, _ = threshold_core(g, af * d0)
    members = list(compress(range(g.n), alive))
    live_deg = list(compress(deg, alive))
    kept, kept_m = DegreeStats.of(live_deg), sum(live_deg) // 2
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
    n^(1 + log2(1 - 1/k)) vertices. Returns (subgraph, trace, ledger,
    host_ids): the ledger holds the checked Prop2.2-spread and Prop2.2-size
    entries, and ``host_ids[v]`` is the host id of the subgraph's vertex v,
    the ids absent from ``trace.steps`` in ascending order.
    """
    kf = as_fraction(k)
    if not kf > 1:
        raise PreconditionError("k must be > 1")
    trace = PeelTrace([], [])
    alive = bytearray(b"\1") * g.n
    deg = g.degrees()
    nbrs = None  # built by the first round that peels
    kstar = (g.n - 1).bit_length() if g.n >= 1 else 0
    for i in range(kstar + 1):
        live_deg = list(compress(deg, alive))
        if not live_deg:
            break
        d_i = Fraction(sum(live_deg), len(live_deg))
        if max(live_deg) <= kf * d_i:
            break
        thr = kf * d_i / 2
        trace.thresholds.append(thr)
        if nbrs is None:
            nbrs = g.neighbor_lists()
        stop = math.ceil(thr)
        # degrees only drop, so one ascending scan meets every vertex that
        # could ever reach the threshold
        for v in compress(range(g.n), alive):
            if deg[v] >= stop:
                trace.steps.append(PeelStep(v, deg[v], i))
                alive[v] = 0
                for u in nbrs[v]:
                    if alive[u]:
                        deg[u] -= 1
    members = list(compress(range(g.n), alive))
    out_stats = DegreeStats.of(list(compress(deg, alive)))
    # 1 - 1/float(k) is 0 for a k within a rounding step of 1
    shrink = 1 - 1 / float(kf) or float((kf - 1) / kf)
    size_thr = g.n ** (1 + math.log2(shrink)) if g.n > 0 else 0.0
    checks = require_bounds("prop22_reduce", [
        check("Prop2.2-spread", out_stats.max_deg, "<=",
              kf * out_stats.avg_deg),
        check("Prop2.2-size", len(members), ">=", size_thr),
    ])
    sub, host_ids = induced(g, members)
    return sub, trace, checks, host_ids


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
    reduced, _, reduce_checks, host_ids = prop22_reduce(g, k1)
    refined = prop21_refine(reduced, k1, af)
    host_vertices = frozenset(host_ids[v] for v in refined.vertices)
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
