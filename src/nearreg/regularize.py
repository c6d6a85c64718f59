"""Small-ratio machinery: density boost, boundary diagnostic, top-degree
extraction, greedy independent set, and the two end-to-end pipelines.

The boost repeatedly replaces the graph by an induced subgraph on at least
an eps-fraction of its vertices whose density beats the current density by
a factor of (1+eps), until no such subgraph exists. When every search along
the way was exhaustive, the final graph provably has no overly dense large
vertex set, which is exactly what the extraction step needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Union

from .errors import CapExceededError, PreconditionError
from .graph import (
    BoundCheck,
    ExtractionResult,
    Graph,
    Surd,
    as_fraction,
    bit_indices,
    check,
    degree_stats,
    induced,
    ledger_ratio,
    require_bounds,
    stats_for_members,
)
from .peeling import _peel_min

Real = Union[int, float, Fraction]

DEFAULT_EXACT_LIMIT = 24


@dataclass(frozen=True)
class BoostParams:
    """Knobs of the density boost: the boost factor eps, and the largest n
    for which the dense-subset search is exhaustive (above it a
    min-degree-peel suffix scan is used, which certifies nothing)."""

    epsilon: float
    exact_limit: int = DEFAULT_EXACT_LIMIT

    def validate(self) -> None:
        if not 0 < self.epsilon < 1:
            raise PreconditionError("epsilon must lie in (0, 1)")
        if self.exact_limit < 1:
            raise PreconditionError("exact_limit must be >= 1")


@dataclass(frozen=True)
class BoostOutcome:
    """Result of the density boost.

    ``certified`` is True iff every subset search en route was exhaustive, in
    which case the no-dense-subset condition is proven for ``subgraph``.
    ``vertices`` are the surviving ids in the original host graph.
    """

    subgraph: Graph
    density: Fraction
    certified: bool
    rounds: int
    vertices: frozenset
    bounds: tuple = field(default=())

    def to_json(self) -> dict:
        return {
            "n": self.subgraph.n,
            "m": self.subgraph.m,
            "density": float(self.density),
            "density_exact": str(self.density),
            "certified": self.certified,
            "rounds": self.rounds,
            "vertices": sorted(self.vertices),
            "bounds": [c.to_json() for c in self.bounds],
        }


def _density(g: Graph) -> Fraction:
    return Fraction(g.m, comb(g.n, 2)) if g.n > 1 else Fraction(0)


def _search_exact_t(g: Graph, t: int, den: int, thr_num: int,
                    counter: list) -> Optional[frozenset]:
    """Lexicographically least t-subset spanning enough edges, or None.

    Include-first DFS over ascending ids; upper-bound prune on the edges any
    completion of the current prefix can still reach.
    """
    n = g.n
    adj = g.adj
    suffix_masks = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_masks[pos] = suffix_masks[pos + 1] | (1 << pos)

    def ub_edges(s_mask: int, e_s: int, pos: int, rem: int) -> int:
        avail = suffix_masks[pos]
        universe = s_mask | avail
        gains = sorted(
            ((adj[v] & universe).bit_count() for v in bit_indices(avail)),
            reverse=True,
        )
        cross_total = 0
        for v in bit_indices(avail):
            cross_total += (adj[v] & s_mask).bit_count()
        ub1 = e_s + sum(gains[:rem])
        ub2 = e_s + cross_total + comb(rem, 2)
        return min(ub1, ub2)

    def dfs(pos: int, s_mask: int, count: int, e_s: int) -> Optional[int]:
        counter[0] += 1
        rem = t - count
        if rem == 0:
            return s_mask if e_s * den >= thr_num else None
        if n - pos < rem:
            return None
        if ub_edges(s_mask, e_s, pos, rem) * den < thr_num:
            return None
        gain = (adj[pos] & s_mask).bit_count()
        found = dfs(pos + 1, s_mask | (1 << pos), count + 1, e_s + gain)
        if found is not None:
            return found
        return dfs(pos + 1, s_mask, count, e_s)

    hit = dfs(0, 0, 0, 0)
    if hit is None:
        return None
    return frozenset(bit_indices(hit))


def _heuristic_order(g: Graph) -> tuple:
    """Min-degree peel order; returns (order, degree-at-removal list)."""
    deg = g.degrees()
    alive = g.full_mask()
    order, removed_deg = [], []
    for _ in range(g.n):
        best = None
        for v in bit_indices(alive):
            if best is None or deg[v] < deg[best]:
                best = v
        order.append(best)
        removed_deg.append(deg[best])
        alive &= ~(1 << best)
        for u in bit_indices(g.adj[best] & alive):
            deg[u] -= 1
    return order, removed_deg


def find_dense_subset(g: Graph, eps: Real,
                      params: BoostParams) -> Optional[frozenset]:
    """Largest vertex set of at least an eps-fraction of the graph whose
    spanned edges beat C(|U|,2) * density * (1+eps); None when no such set.

    Sets of fewer than two vertices are never candidates (their density is
    undefined, so they cannot witness a boost). Up to ``params.exact_limit``
    vertices the search is exhaustive and a None answer is a certificate;
    above it a min-degree-peel suffix scan is used and None proves nothing.
    Ties on size resolve to the lexicographically least set.
    """
    if g.m < 1:
        raise PreconditionError("dense-subset search needs at least one edge")
    eps_f = as_fraction(eps)
    if not 0 < eps_f < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    n = g.n
    p = _density(g)
    target = p * (1 + eps_f)
    if target > 1:
        return None  # density cannot exceed 1: certified for any search mode
    t_min = max(2, math.ceil(eps_f * n))
    num, den = target.numerator, target.denominator
    thr_num = [comb(t, 2) * num for t in range(n + 1)]
    if n <= params.exact_limit:
        counter = [0]
        for t in range(n, t_min - 1, -1):
            if g.m * den < thr_num[t]:
                continue  # the whole graph is short of edges at this size
            hit = _search_exact_t(g, t, den, thr_num[t], counter)
            if hit is not None:
                return hit
        return None
    order, removed_deg = _heuristic_order(g)
    e_suffix = g.m
    for i in range(0, n - t_min + 1):
        t = n - i
        if e_suffix * den >= thr_num[t] and t < n:
            return frozenset(order[i:])
        e_suffix -= removed_deg[i]
    return None


def density_boost(g: Graph, params: BoostParams) -> BoostOutcome:
    """Iterate the dense-subset replacement until no subset qualifies.

    Density rises by a factor >= (1+eps) per round, so the round count stays
    below (2/eps) * ln(1/p0) and the output keeps at least an eps^rounds
    fraction of the vertices; both are recorded in the bounds ledger.
    """
    params.validate()
    if g.m < 1:
        raise PreconditionError("density boost needs at least one edge")
    eps_f = as_fraction(params.epsilon)
    cur = g
    vmap = tuple(range(g.n))
    p0 = _density(g)
    prev_density = p0
    rounds = 0
    certified = True
    while True:
        certified = certified and cur.n <= params.exact_limit
        subset = find_dense_subset(cur, params.epsilon, params)
        if subset is None:
            break
        cur, idmap = induced(cur, subset)
        vmap = tuple(vmap[i] for i in idmap)
        rounds += 1
        new_density = _density(cur)
        if new_density < prev_density * (1 + eps_f):
            raise AssertionError("boost round failed to raise density")
        prev_density = new_density
    # Density stays <= 1 and grows by (1+eps) a round, so
    # rounds <= ln(1/p0) / ln(1+eps) <= (2/eps) * ln(1/p0).
    rounds_thr = (2 / params.epsilon) * math.log(1 / float(p0))
    checks = require_bounds("density_boost", [
        check("Lem2.3-rounds", rounds, "<=", rounds_thr),
        check("Lem2.3-size", cur.n, ">=", float(eps_f) ** rounds_thr * g.n),
    ])
    return BoostOutcome(cur, prev_density, certified, rounds,
                        frozenset(vmap), checks)


def check_edge_boundary(g: Graph, u, eps: Real) -> bool:
    """True iff the edges leaving ``u`` number at most
    eps * n^2 * p * (1 + 2*sqrt(eps)). Requires |u| = floor(eps * n)."""
    eps_f = as_fraction(eps)
    members = frozenset(u)
    expected = math.floor(eps_f * g.n)
    if len(members) != expected:
        raise PreconditionError(
            f"boundary check needs |u| = floor(eps*n) = {expected}, "
            f"got {len(members)}")
    mask = 0
    for v in members:
        if not 0 <= v < g.n:
            raise PreconditionError(f"vertex {v} out of range")
        mask |= 1 << v
    crossing = g.count_edges_between(mask, g.full_mask() & ~mask)
    scale = eps_f * g.n * g.n * _density(g)
    return check("edge-boundary", crossing, "<=",
                 Surd(scale, 2 * scale, eps_f)).passed


def lemma25_extract(g: Graph, eps: Real) -> ExtractionResult:
    """Remove the floor(eps*n) highest-degree vertices, then peel vertices of
    degree below n*p*(1 - 2*sqrt(eps)) with a hard cap of floor(2*sqrt(eps)*n)
    deletions (n and p fixed at the input values).

    Hitting the cap raises CapExceededError: it certifies the input does not
    have the bounded-dense-subset property this extraction assumes. Otherwise
    the output is checked to keep (1 - eps - 2*sqrt(eps)) * n vertices with
    max degree <= (1 + 3*sqrt(eps)) * n * p, min degree >= (1 - 2*sqrt(eps))
    * n * p, and degree ratio <= 1 + 6*sqrt(eps). All of these are exact; as
    degrees are integers, the peel runs below ceil(n*p*(1 - 2*sqrt(eps))).
    """
    eps_f = as_fraction(eps)
    if not 0 < eps_f < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    if g.m < 1:
        raise PreconditionError("extraction needs positive density")
    n = g.n
    np_ = n * _density(g)
    top_count = math.floor(eps_f * n)
    by_degree = sorted(range(n), key=lambda v: (-g.degree(v), v))
    alive = g.full_mask()
    deg = g.degrees()
    deleted_edges = 0
    for v in by_degree[:top_count]:
        alive &= ~(1 << v)
        deleted_edges += deg[v]
        for u in bit_indices(g.adj[v] & alive):
            deg[u] -= 1
    min_deg_thr = Surd(np_, -2 * np_, eps_f)
    cap = math.isqrt(math.floor(4 * n * n * eps_f))  # floor(2*sqrt(eps)*n)
    steps: list = []
    alive, wants_more = _peel_min(g.adj, alive, deg, math.ceil(min_deg_thr),
                                  0, steps, cap=cap)
    if wants_more:
        raise CapExceededError(
            f"peel wanted more than the cap of {cap} deletions; the "
            "input violates the bounded-dense-subset condition")
    kept_m = g.m - deleted_edges - sum(s.degree for s in steps)
    st = stats_for_members(g.adj, alive, kept_m, alive.bit_count())
    checks = require_bounds("lemma25_extract", [
        check("Lem2.5-size", alive.bit_count(), ">=",
              Surd((1 - eps_f) * n, -2 * n, eps_f)),
        check("Lem2.5-maxdeg", st.max_deg, "<=", Surd(np_, 3 * np_, eps_f)),
        check("Lem2.5-mindeg", st.min_deg, ">=", min_deg_thr),
        check("Lem2.5-ratio", ledger_ratio(st.max_deg, st.min_deg), "<=",
              Surd(1, 6, eps_f)),
    ])
    return ExtractionResult.from_induced(
        g, bit_indices(alive), f"Lem2.5(eps={eps})", checks)


def turan_independent_set(g: Graph) -> frozenset:
    """Greedy independent set: take the lowest-id minimum-degree vertex and
    drop its closed neighbourhood; guaranteed size >= n / (avg_deg + 1)."""
    deg = g.degrees()
    alive = g.full_mask()
    picked = []
    while alive:
        best = None
        for v in bit_indices(alive):
            if best is None or deg[v] < deg[best]:
                best = v
        picked.append(best)
        closed = (g.adj[best] | (1 << best)) & alive
        alive &= ~closed
        for u in bit_indices(closed):
            for w in bit_indices(g.adj[u] & alive):
                deg[w] -= 1
    members = frozenset(picked)
    mask = sum(1 << v for v in members)
    for v in members:
        assert not g.adj[v] & mask, "greedy set is not independent"
    require_bounds("turan_independent_set", [turan_bound(g, members)])
    return members


def turan_bound(g: Graph, members, bound_id: str = "Turan-size") -> BoundCheck:
    """Ledger entry for the greedy guarantee |members| >= n / (avg_deg + 1)."""
    return check(bound_id, len(members), ">=",
                 g.n / (degree_stats(g).avg_deg + 1))


def _boost_then_extract(g: Graph, eps0: float, exact_limit: int) -> tuple:
    """Shared pipeline body: boost at eps0, extract at eps0, map ids back."""
    bp = BoostParams(epsilon=eps0, exact_limit=exact_limit)
    boost = density_boost(g, bp)
    inner = lemma25_extract(boost.subgraph, eps0)
    host_order = sorted(boost.vertices)
    host_vertices = frozenset(host_order[v] for v in inner.vertices)
    return boost, inner, host_vertices


def theorem12_pipeline(g: Graph, eps: Real,
                       exact_limit: int = DEFAULT_EXACT_LIMIT) -> ExtractionResult:
    """Boost at eps^2/36 then extract, returning a (1+eps)-nearly regular
    induced subgraph. Above eps = 0.5 the run proceeds but the result is
    tagged as carrying no guarantee."""
    epsf = float(eps)
    if not epsf > 0:
        raise PreconditionError("eps must be positive")
    if g.m < 1:
        raise PreconditionError("pipeline needs at least one edge")
    eps0 = epsf * epsf / 36
    boost, inner, host_vertices = _boost_then_extract(g, eps0, exact_limit)
    checks = [*inner.bounds,
              check("Thm1.2-ratio", inner.ratio, "<=", 1 + as_fraction(eps))]
    if boost.certified:
        exponent = (144 / (epsf * epsf)) * math.log(1 / float(_density(g)))
        checks.append(check("Thm1.2-size", len(host_vertices), ">=",
                            0.5 * (epsf / 6) ** exponent * g.n))
    require_bounds("theorem12_pipeline", checks)
    tag = f"Thm1.2(eps={eps})"
    if epsf > 0.5:
        tag += " no-guarantee"
    return ExtractionResult(host_vertices, None, inner.stats, inner.ratio,
                            tag, tuple(checks))


def theorem13_pipeline(g: Graph, eps: Real,
                       exact_limit: int = DEFAULT_EXACT_LIMIT) -> ExtractionResult:
    """Sparse graphs yield the greedy independent set; dense graphs run the
    boost-then-extract machinery. The returned object always satisfies its
    branch's contract: an independent set, or degree ratio <= 1 + eps."""
    epsf = float(eps)
    if not epsf > 0:
        raise PreconditionError("eps must be positive")
    suffix = "" if epsf <= 0.1 else " no-guarantee"
    if g.n == 0:
        return ExtractionResult.from_induced(g, (), "Thm1.3-turan" + suffix)
    eps0 = epsf * epsf / 36
    a = eps0 / (3 * math.log(1 / eps0))
    p = float(_density(g))
    if p < g.n ** (-a):
        members = turan_independent_set(g)
        checks = require_bounds("theorem13_pipeline", [
            turan_bound(g, members, "Thm1.3-turan-size")])
        return ExtractionResult.from_induced(
            g, members, "Thm1.3-turan" + suffix, checks)
    boost, inner, host_vertices = _boost_then_extract(g, eps0, exact_limit)
    checks = [*inner.bounds,
              check("Thm1.3-ratio", inner.ratio, "<=", 1 + as_fraction(eps))]
    require_bounds("theorem13_pipeline", checks)
    return ExtractionResult(host_vertices, None, inner.stats, inner.ratio,
                            "Thm1.3-dense" + suffix, tuple(checks))
