"""Small-ratio machinery: density boost, top-degree extraction, greedy
independent set, and the two end-to-end pipelines.

Every extractor returns an `ExtractionResult` carrying its checked ledger,
built once: the top-degree extraction reads its survivors' statistics from
the degrees its peel tracked.

The boost repeatedly replaces the graph by an induced subgraph on at least
an eps-fraction of its vertices whose density beats the current density by
a factor of (1+eps), until no such subgraph exists. When every search along
the way was exhaustive, the final graph provably has no overly dense large
vertex set, which is exactly what the extraction step needs. Above the
exhaustive size limit the candidates are the suffixes of one smallest-last
order (`peeling.peel_min`), which serves every round of the boost down
to that limit. Below it, the first qualifying suffix of the same kind of
order gives the exhaustive search a size known to qualify, from which it
searches upward.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from itertools import compress
from math import comb
from operator import add
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapExceededError, PreconditionError, SizeCapError
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
from .oracle import _after_table
from .peeling import peel_min, threshold_core

DEFAULT_EXACT_LIMIT = 24
HARD_VERTEX_CAP = 64  # the exhaustive dense-subset search: refused above this
# Fewest lost-edge entries of one Turan pick that are counted with numpy.
_NUMPY_COUNT = 256


class BoostOutcome(NamedTuple):
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
    bounds: tuple = ()


def _density(g: Graph) -> Fraction:
    return Fraction(g.m, comb(g.n, 2)) if g.n > 1 else Fraction(0)


def _boost_target(n: int, m: int, eps: Fraction) -> Optional[tuple]:
    """The bar a boost round must clear on a graph with n >= 2 vertices and
    m edges: (num, den, t_min) such that a set of t >= t_min vertices
    qualifies iff it spans e edges with e * den >= C(t, 2) * num, where
    num/den = m(1+eps)/C(n, 2), unreduced. None when that target density
    exceeds 1, where no set can qualify."""
    a, b = eps.numerator, eps.denominator
    num, den = m * (a + b), comb(n, 2) * b
    return None if num > den else (num, den, max(2, -(-a * n // b)))


def _dense_cut(steps: list, start: int, m: int,
               eps: Fraction) -> Optional[tuple]:
    """One heuristic boost round on the suffix ``steps[start:]`` of the
    smallest-last peel steps of a graph, a suffix spanning ``m`` edges.

    Returns (i, edges spanned by ``steps[i:]``) for the least i > start at
    which the suffix qualifies (at least an eps-fraction of the current
    vertices, and density beaten by a factor of 1+eps), or None. From
    start 0 this also gives `find_dense_subset` a qualifying size.
    """
    total = len(steps)
    bar = _boost_target(total - start, m, eps)
    if bar is None:
        return None
    num, den, t_min = bar
    e = m
    for i in range(start + 1, total - t_min + 1):
        e -= steps[i - 1].degree
        t = total - i
        if e * den >= t * (t - 1) // 2 * num:
            return i, e
    return None


def _dense_search(g: Graph, num: int, den: int) -> Callable:
    """Exhaustive search of ``g`` for a dense set, at one size per call,
    set up once. Returns ``search(t) -> (witness or None, explored)``, one
    include-first DFS over ascending ids for a t-set spanning e edges with
    e * den >= C(t, 2) * num, so the witness, a tuple of ascending ids, is
    the lexicographically least such t-set, and ``explored`` counts that
    DFS's nodes. Graphs above ``HARD_VERTEX_CAP`` vertices raise
    ``SizeCapError`` here, before any size is searched.

    At the node deciding id ``pos`` the DFS holds the ids picked so far,
    the edges e they span and the count rem still to pick; ``inner[v]``,
    the neighbours of v among the picked ids, kept up to date as it
    includes and backtracks; and ``after[pos][v]``, the neighbours of v
    among the ids pos..n-1 still to decide.
    """
    if g.n > HARD_VERTEX_CAP:
        raise SizeCapError(f"exact search is capped at {HARD_VERTEX_CAP} vertices")
    n, nbrs = g.n, g.neighbor_lists()
    after = _after_table(n, nbrs)
    inner = [0] * n
    chosen: list = []
    explored = need = 0

    def dfs(pos: int, rem: int, e: int) -> Optional[tuple]:
        nonlocal explored
        explored += 1
        if rem == 0:
            return tuple(chosen) if e * den >= need else None
        if n - pos < rem:
            return None
        # Two upper bounds on the edges any completion can add: every pool
        # edge to the prefix plus a full clique on the rem vertices still
        # to pick, or the rem largest degrees into prefix-plus-pool. The
        # first is cheap, so the sort runs only when it does not prune.
        if (e + sum(inner[pos:]) + comb(rem, 2)) * den < need:
            return None
        gains = sorted(map(add, inner[pos:], after[pos][pos:]), reverse=True)
        if (e + sum(gains[:rem])) * den < need:
            return None
        chosen.append(pos)
        for u in nbrs[pos]:
            inner[u] += 1
        hit = dfs(pos + 1, rem - 1, e + inner[pos])
        for u in nbrs[pos]:
            inner[u] -= 1
        chosen.pop()
        if hit is not None:
            return hit
        return dfs(pos + 1, rem, e)

    def search(t: int) -> tuple:
        nonlocal explored, need
        explored, need = 0, comb(t, 2) * num
        return dfs(0, t, 0), explored

    return search


def find_dense_subset(g: Graph, eps: Real) -> Optional[frozenset]:
    """Largest vertex set of at least an eps-fraction of the graph whose
    spanned edges beat C(|U|,2) * density * (1+eps); None when no such set.

    The search is exhaustive (`_dense_search`), so a None answer certifies
    that no such set exists; graphs above ``HARD_VERTEX_CAP`` vertices
    raise ``SizeCapError``. Sets of fewer than two vertices are never
    candidates (their density is undefined, so they cannot witness a
    boost). Ties on size resolve to the lexicographically least set.

    The sizes holding a qualifying set form an interval [t_min, t*] (or
    none). A qualifying t-set with t >= 3 spanning e edges has a vertex of
    degree at most 2e/t in it; deleting it leaves at least e(t-2)/t edges,
    which clear the bar of size t-1, since C(t, 2) * (t-2)/t = C(t-1, 2).
    So a size that misses proves that every larger size misses too. The
    probes, one size per search:
    - ``top``, the largest size at which even the whole graph has enough
      edges; a hit there is the answer;
    - on a miss, the smallest-last order's first qualifying suffix
      (`_dense_cut`) gives a size L <= t* that is known to qualify; L,
      L+1, ... are searched up to the first miss, and the last hit is the
      answer;
    - with no qualifying suffix, t_min, t_min+1, ... in the same way.
    Each probe is the same include-first search at one size, all through
    one set-up, so the witness at t* is the one a scan from the top finds.
    """
    if g.m < 1:
        raise PreconditionError("dense-subset search needs at least one edge")
    eps_f = as_fraction(eps)
    if not 0 < eps_f < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    bar = _boost_target(g.n, g.m, eps_f)
    if bar is None:
        return None  # density cannot exceed 1: nothing to search
    num, den, t_min = bar
    # sizes at which even the whole graph is short of edges are skipped;
    # with none left the search set-up still refuses a graph above its cap
    search = _dense_search(g, num, den)
    sizes = [t for t in range(t_min, g.n + 1)
             if g.m * den >= comb(t, 2) * num]
    if not sizes:
        return None
    top = sizes[-1]
    hit = search(top)[0]
    if hit is None:
        steps = peel_min(g)
        cut = _dense_cut(steps, 0, g.m, eps_f)
        t = t_min if cut is None else g.n - cut[0]
        while t < top and (found := search(t)[0]) is not None:
            hit = found
            t += 1
    return None if hit is None else frozenset(hit)


def _raised(prev: Fraction, new: Fraction, eps: Fraction) -> Fraction:
    if new < prev * (1 + eps):
        raise AssertionError("boost round failed to raise density")
    return new


def density_boost(g: Graph, eps: Real,
                  exact_limit: int = DEFAULT_EXACT_LIMIT) -> BoostOutcome:
    """Iterate the dense-subset replacement until no subset qualifies, with
    boost factor ``eps`` in (0, 1) and ``exact_limit`` >= 1.

    Density rises by a factor >= (1+eps) per round, so the round count stays
    below (2/eps) * ln(1/p0) and the output keeps at least an eps^rounds
    fraction of the vertices; both are recorded in the bounds ledger.

    Above ``exact_limit`` vertices every round is a cut of one smallest-last
    order computed once: a round's subgraph is a suffix of the order, and
    the next round scans on from there (see `peel_min`), so the rounds take
    one O(m log n) peel and one O(n) scan in all, and the subgraph is built
    once, when the graph is down to the limit or no cut qualifies. Such
    rounds certify nothing. The remaining rounds run `find_dense_subset`
    exhaustively; that search is capped at ``HARD_VERTEX_CAP`` (64)
    vertices, so a limit above it raises ``SizeCapError`` once an
    exhaustive round has more vertices.
    """
    if not 0 < eps < 1:
        raise PreconditionError("epsilon must lie in (0, 1)")
    if exact_limit < 1:
        raise PreconditionError("exact_limit must be >= 1")
    if g.m < 1:
        raise PreconditionError("density boost needs at least one edge")
    eps_f = as_fraction(eps)
    p0 = _density(g)
    density, rounds = p0, 0
    certified = g.n <= exact_limit
    boosting = True
    cur, vmap = g, tuple(range(g.n))
    if not certified:
        steps = peel_min(g)
        start, m = 0, g.m
        while boosting and g.n - start > exact_limit:
            cut = _dense_cut(steps, start, m, eps_f)
            boosting = cut is not None
            if boosting:
                start, m = cut
                density = _raised(density, Fraction(m, comb(g.n - start, 2)),
                                  eps_f)
                rounds += 1
        if start:
            cur, vmap = induced(g, [s.vertex for s in steps[start:]])
            if cur.m != m:
                raise AssertionError("tracked edge count differs from the "
                                     "induced subgraph's")
    while boosting:
        subset = find_dense_subset(cur, eps)
        if subset is None:
            break
        cur, idmap = induced(cur, subset)
        vmap = tuple(vmap[i] for i in idmap)
        rounds += 1
        density = _raised(density, _density(cur), eps_f)
    # Density stays <= 1 and grows by (1+eps) a round, so
    # rounds <= ln(1/p0) / ln(1+eps) <= (2/eps) * ln(1/p0).
    rounds_thr = (2 / eps) * math.log(1 / float(p0))
    checks = require_bounds("density_boost", [
        check("Lem2.3-rounds", rounds, "<=", rounds_thr),
        check("Lem2.3-size", cur.n, ">=", float(eps_f) ** rounds_thr * g.n),
    ])
    return BoostOutcome(cur, density, certified, rounds,
                        frozenset(vmap), checks)


def lemma25_extract(g: Graph, eps: Real) -> ExtractionResult:
    """Take `induced` of all but the floor(eps*n) highest-degree vertices
    (ties to the lowest id) and keep its core at n*p*(1 - 2*sqrt(eps))
    (`threshold_core`), n and p fixed at the input values.

    More than floor(2*sqrt(eps)*n) vertices outside that core raise
    CapExceededError: they certify the input lacks the bounded-dense-subset
    property this extraction assumes.
    A peel that leaves no vertex within the cap (only for eps >= 3 -
    2*sqrt(2)) raises PreconditionError: no bound speaks of an empty set.
    Otherwise the output is checked to keep (1 - eps - 2*sqrt(eps)) * n
    vertices with max degree <= (1 + 3*sqrt(eps)) * n * p, min degree >=
    (1 - 2*sqrt(eps)) * n * p, and degree ratio <= 1 + 6*sqrt(eps). All of
    these are exact; as degrees are integers, the peel runs below
    ceil(n*p*(1 - 2*sqrt(eps))).

    eps must lie in (0, 1/4): from 1/4 on, that threshold is <= 0, so the
    peel removes nothing and no degree bound follows.
    """
    eps_f = as_fraction(eps)
    if not 0 < eps_f < Fraction(1, 4):
        raise PreconditionError(
            "eps must lie in (0, 1/4): from 1/4 on, the peel threshold "
            "n*p*(1 - 2*sqrt(eps)) is <= 0")
    if g.m < 1:
        raise PreconditionError("extraction needs positive density")
    n = g.n
    np_ = n * _density(g)
    # a stable sort of the negated degrees puts ties at the lowest id first
    by_degree = np.argsort(-np.diff(g.indptr), kind="stable")
    rest, host_ids = induced(g, by_degree[math.floor(eps_f * n):].tolist())
    min_deg_thr = Surd(np_, -2 * np_, eps_f)
    cap = math.isqrt(math.floor(4 * n * n * eps_f))  # floor(2*sqrt(eps)*n)
    alive, deg, deleted = threshold_core(rest, min_deg_thr)
    if deleted > cap:
        raise CapExceededError(
            f"peel wanted more than the cap of {cap} deletions; the "
            "input violates the bounded-dense-subset condition")
    members = list(compress(host_ids, alive))
    if not members:
        raise PreconditionError("the peel left no vertex")
    st = DegreeStats.of(list(compress(deg, alive)))
    checks = require_bounds("lemma25_extract", [
        check("Lem2.5-size", len(members), ">=",
              Surd((1 - eps_f) * n, -2 * n, eps_f)),
        check("Lem2.5-maxdeg", st.max_deg, "<=", Surd(np_, 3 * np_, eps_f)),
        check("Lem2.5-mindeg", st.min_deg, ">=", min_deg_thr),
        check("Lem2.5-ratio", ledger_ratio(st.max_deg, st.min_deg), "<=",
              Surd(1, 6, eps_f)),
    ])
    return ExtractionResult(frozenset(members), None, st,
                            f"Lem2.5(eps={eps})", checks)


def turan_independent_set(g: Graph) -> ExtractionResult:
    """Greedy independent set: take the lowest-id minimum-degree vertex and
    drop its closed neighbourhood; guaranteed size >= n / (avg_deg + 1).
    Returns the set as a ``Turan-greedy`` result whose ledger holds the
    checked ``Turan-size`` entry.

    Picks come off a lazy heap of integer keys ``degree * n + id``, which
    order as the (degree, id) pairs do, until no vertex is live. After each
    pick with a live neighbour, every live vertex next to the dropped ones
    loses its edges into them and gets one new entry, so the heap takes one
    push per such vertex, not one per edge.
    The lost edges are counted over the dropped vertices' neighbour lists:
    with numpy when they hold more than max(n, ``_NUMPY_COUNT``) entries,
    so each O(n) count is paid for by the entries it reads, and otherwise,
    where numpy's fixed cost per call would dominate, in one Python pass
    that decrements as it reads and marks each vertex it touches in a
    scratch bytearray, so that each gets its push after its last decrement.
    """
    n = g.n
    nbrs = g.neighbor_lists()
    deg = g.degrees()
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = bytearray(b"\1") * n
    marked = bytearray(n)
    live = alive.__getitem__
    live_mask = np.frombuffer(alive, np.bool_)  # a view: follows ``alive``
    bulk = max(n, _NUMPY_COUNT)
    picked = []
    left = n  # live vertices: every one has a current entry in the heap
    while left:
        d, v = divmod(heapq.heappop(heap), n)
        if d != deg[v] or not alive[v]:
            continue  # stale: v was dropped or has lost degree since
        picked.append(v)
        closed = [v, *filter(live, nbrs[v])] if d else [v]
        for u in closed:
            alive[u] = 0
        left -= len(closed)
        if not d:
            continue  # no live neighbour: no degree to recount
        if sum(map(len, map(nbrs.__getitem__, closed))) > bulk:
            heads = np.concatenate([g.indices[g.indptr[u]:g.indptr[u + 1]]
                                    for u in closed])
            lost = np.bincount(heads[live_mask[heads]], minlength=n)
            near = np.flatnonzero(lost)
            touched = near.tolist()
            for w, c in zip(touched, lost[near].tolist()):
                deg[w] -= c
        else:
            touched = []
            for u in closed:
                for w in nbrs[u]:
                    if alive[w]:
                        deg[w] -= 1
                        if not marked[w]:
                            marked[w] = 1
                            touched.append(w)
        for w in touched:
            marked[w] = 0
            heapq.heappush(heap, deg[w] * n + w)
    members = frozenset(picked)
    assert not any(members.intersection(nbrs[v]) for v in picked), \
        "greedy set is not independent"
    checks = require_bounds("turan_independent_set", [
        check("Turan-size", len(members), ">=",
              g.n / (degree_stats(g).avg_deg + 1))])
    return ExtractionResult(members, None,
                            DegreeStats.of([0] * len(members)),
                            "Turan-greedy", checks)


def _inner_epsilon(eps: Real) -> Fraction:
    """eps0 = eps^2/36 exactly, the boost and extraction parameter of the
    Thm 1.2 and 1.3 pipelines. Requires 0 < eps < 6, so that 0 < eps0 < 1
    (an eps0 below the least normal float is refused too, as 1/eps0 would
    overflow a float, and so are nan and inf)."""
    epsf = float(eps)
    if not (0 < epsf < 6 and sys.float_info.min <= epsf * epsf / 36 < 1):
        raise PreconditionError(
            "epsilon must lie in (0, 6), so that eps^2/36 lies in (0, 1) "
            "and is a normal float")
    return as_fraction(eps) ** 2 / 36


def _boost_then_extract(g: Graph, eps0: Fraction, exact_limit: int) -> tuple:
    """Shared pipeline body: boost at eps0, extract at eps0, map ids back.
    The extraction needs eps0 < 1/4 (eps < 3), checked before the boost."""
    if eps0 >= Fraction(1, 4):
        raise PreconditionError(
            "epsilon must lie in (0, 3) for the boost and extraction, so "
            "that eps^2/36 lies in (0, 1/4)")
    boost = density_boost(g, eps0, exact_limit)
    inner = lemma25_extract(boost.subgraph, eps0)
    host_order = sorted(boost.vertices)
    host_vertices = frozenset(host_order[v] for v in inner.vertices)
    return boost, inner, host_vertices


def theorem12_pipeline(g: Graph, eps: Real,
                       exact_limit: int = DEFAULT_EXACT_LIMIT) -> ExtractionResult:
    """Boost at eps^2/36 then extract, returning a (1+eps)-nearly regular
    induced subgraph. Above eps = 0.5 the run proceeds but the result is
    tagged as carrying no guarantee. eps must lie in (0, 3)."""
    eps0 = _inner_epsilon(eps)
    if g.m < 1:
        raise PreconditionError("pipeline needs at least one edge")
    epsf = float(eps)
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
    return ExtractionResult(host_vertices, None, inner.stats, tag,
                            tuple(checks))


def theorem13_pipeline(g: Graph, eps: Real,
                       exact_limit: int = DEFAULT_EXACT_LIMIT) -> ExtractionResult:
    """Sparse graphs yield the greedy independent set; dense graphs run the
    boost-then-extract machinery. The returned object always satisfies its
    branch's contract: an independent set, or degree ratio <= 1 + eps.

    eps must lie in (0, 6) for the sparse branch and in (0, 3) for the
    dense one. The sparse branch, which the graph with no vertices takes,
    returns the result of `turan_independent_set` retagged, its
    ``Turan-size`` check renamed to ``Thm1.3-turan-size``."""
    eps0 = _inner_epsilon(eps)
    if exact_limit < 1:
        raise PreconditionError("exact_limit must be >= 1")
    suffix = "" if float(eps) <= 0.1 else " no-guarantee"
    a = eps0 / (3 * math.log(1 / eps0))
    if not g.n or float(_density(g)) < g.n ** (-a):
        turan = turan_independent_set(g)
        checks = require_bounds("theorem13_pipeline", [
            turan.bounds[0]._replace(bound_id="Thm1.3-turan-size")])
        return turan._replace(guarantee="Thm1.3-turan" + suffix,
                              bounds=checks)
    boost, inner, host_vertices = _boost_then_extract(g, eps0, exact_limit)
    checks = [*inner.bounds,
              check("Thm1.3-ratio", inner.ratio, "<=", 1 + as_fraction(eps))]
    require_bounds("theorem13_pipeline", checks)
    return ExtractionResult(host_vertices, None, inner.stats,
                            "Thm1.3-dense" + suffix, tuple(checks))
