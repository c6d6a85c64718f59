"""Ground truth at desk scale.

Exhaustive searches for the largest nearly regular induced subgraph,
brute-force minima over all labelled graphs of a small order, and
vectorised Monte Carlo estimators for the point-probability and
induced-regularity experiments, each cross-checked against an exact
dynamic program where one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, SizeCapError
from .graph import Graph, as_fraction
from .instances import p_bar

Real = Union[int, float, Fraction]

HARD_VERTEX_CAP = 64       # bitset rows; beyond this the search is refused
VERTEX_CAP = 24            # exact_f and the gnpbar-scan experiment
LABELLED_ORDER_CAP = 7     # 2^21 labelled graphs at n = 7
MC_CHUNK = 1 << 15         # Monte Carlo rows drawn at once, at most,
MC_CHUNK_CELLS = 1 << 20   # and draws at once (8 MiB), unless one row has more
# Stand-ins for the unspecified absolute constants of the probabilistic
# estimates: the point-probability cap C0_CAP / sqrt(t) and the
# induced-regularity reference n * (C1_CAP / k)^(k/2). Comparisons against
# them are calibration checks, never verified claims.
C0_CAP = 3.0
C1_CAP = 16.0


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum: its value, one witness achieving it (lexicographically
    least), and how many search nodes were visited."""

    value: int
    witness: frozenset
    explored: int


def bit_indices(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _c_ratio(c: Real) -> tuple:
    cf = as_fraction(c)
    if cf < 1:
        raise PreconditionError("c must be >= 1")
    return cf.numerator, cf.denominator


def _subset_valid(degrees: Iterable[int], c_num: int, c_den: int) -> bool:
    """Is a subgraph with these vertex degrees c-nearly regular?"""
    mx, mn = 0, None
    for d in degrees:
        if d > mx:
            mx = d
        if mn is None or d < mn:
            mn = d
    if mx == 0:
        return True
    return mx * c_den <= c_num * mn


def largest_subset(g: Graph, sizes: Iterable[int], prune: Callable,
                   accept: Callable) -> tuple:
    """Largest accepted vertex subset of ``g``, by exhaustive search.

    Tries each size t of ``sizes`` in the order given (`exact_f` lists
    them largest first; `find_dense_subset` passes one size per call) with
    one include-first DFS over ascending ids, so the witness found at a
    size is the lexicographically least one there. At
    the node deciding id ``pos`` the DFS holds
    - ``chosen``, the ids picked so far, ascending, and ``e``, the edges
      they span;
    - ``inner[v]``, the neighbours of v among ``chosen``, for every v
      (an include adds 1 along the new vertex's neighbours, a backtrack
      takes it off again);
    - ``after[v]``, the neighbours of v among the ids pos..n-1 still to
      decide (a row of a table built once per call);
    - ``rem``, the vertices still to pick.
    It drops the node when ``prune(t, e, rem, pos, chosen, inner, after)``
    holds, and takes a t-subset when ``accept(t, e, chosen, inner)`` holds.
    The callbacks read these lists and must not change them.

    Returns ``(t, witness_mask, explored)`` for the first size with an
    accepted subset, or ``(0, None, explored)``; ``explored`` counts the
    nodes visited over all sizes tried. Graphs above ``HARD_VERTEX_CAP``
    vertices raise ``SizeCapError``.
    """
    if g.n > HARD_VERTEX_CAP:
        raise SizeCapError(f"exact search is capped at {HARD_VERTEX_CAP} vertices")
    n, nbrs = g.n, g.neighbor_lists()
    rows = [sum(1 << u for u in row) for row in nbrs]  # bitmask rows
    after = [[(r >> pos).bit_count() for r in rows] for pos in range(n + 1)]
    inner = [0] * n
    chosen: list = []
    explored = 0

    def dfs(pos: int, rem: int, e: int) -> Optional[int]:
        # t is the size of the current pass of the loop below
        nonlocal explored
        explored += 1
        if rem == 0:
            if accept(t, e, chosen, inner):
                return sum(1 << v for v in chosen)
            return None
        if n - pos < rem:
            return None
        if prune(t, e, rem, pos, chosen, inner, after[pos]):
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

    for t in sizes:
        hit = dfs(0, t, 0)
        if hit is not None:
            return t, hit, explored
    return 0, None, explored


def exact_f(g: Graph, c: Real) -> OracleResult:
    """Largest induced c-nearly regular subgraph, by exhaustive search in
    decreasing subset size (``largest_subset``). Graphs above
    ``VERTEX_CAP`` vertices raise ``SizeCapError``.

    A node of the search dies when its chosen vertices already force the
    degree spread past c: the largest degree among them, best_max, is a
    floor on the completion's maximum, and the smallest degree any of them
    can still reach, worst_hi, a ceiling on its minimum. Every degree of a
    completion then lies in [best_max / c, c * worst_hi], so the node also
    dies when fewer of the ids still to decide than are still to be picked
    can end with a degree in that window (the viability bound). All bounds
    are compared in integers. Neither test removes a valid subset, so the
    value and the lexicographically least witness are those of the plain
    search; only ``explored`` shrinks.
    """
    if g.n > VERTEX_CAP:
        raise SizeCapError(f"instance exceeds the size cap {VERTEX_CAP}")
    c_num, c_den = _c_ratio(c)
    n = g.n

    def spread_too_wide(t: int, e: int, rem: int, pos: int, chosen: list,
                        inner: list, after: list) -> bool:
        # The completed subset's maximum degree is at least best_max, the
        # largest degree among the chosen, and its minimum at most
        # worst_hi, the smallest degree a chosen vertex can still reach.
        worst_hi = None
        best_max = 0
        for v in chosen:
            cur = inner[v]
            free = after[v]
            hi = cur + (free if free < rem else rem)
            if worst_hi is None or hi < worst_hi:
                worst_hi = hi
            if cur > best_max:
                best_max = cur
        if worst_hi is None:
            return False
        # some chosen vertex is forced above c times that minimum
        if best_max * c_den > c_num * worst_hi:
            return True
        # Viability: every degree of the completion lies in [lo, hi]. A
        # vertex u still to pick ends between inner[u] and inner[u] +
        # min(after[u], rem - 1); the node dies unless rem of the ids
        # pos..n-1 can land in the window. The count stops as soon as
        # rem ids fit, or more than the n - pos - rem spare ones miss.
        lo = -(-best_max * c_den // c_num)
        hi = c_num * worst_hi // c_den
        floor = lo - rem + 1
        need = rem
        spare = n - pos - rem
        for u in range(pos, n):
            cur = inner[u]
            if floor <= cur <= hi and cur + after[u] >= lo:
                need -= 1
                if not need:
                    return False
            else:
                spare -= 1
                if spare < 0:
                    return True
        return True

    def valid(t: int, e: int, chosen: list, inner: list) -> bool:
        return _subset_valid((inner[v] for v in chosen), c_num, c_den)

    t, hit, explored = largest_subset(g, range(g.n, 0, -1), spread_too_wide,
                                      valid)
    witness = frozenset() if hit is None else frozenset(bit_indices(hit))
    return OracleResult(t, witness, explored)


def _labelled_graphs(n: int):
    """All 2^C(n,2) labelled graphs on n vertices as adjacency-mask tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        adj = [0] * n
        bits = code
        while bits:
            lsb = bits & -bits
            u, v = pairs[lsb.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            bits ^= lsb
        yield adj


def exact_f_n(n: int, c: Real) -> int:
    """Minimum of exact_f over every labelled graph on n vertices; orders
    above ``LABELLED_ORDER_CAP`` raise ``SizeCapError``."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if n > LABELLED_ORDER_CAP:
        raise SizeCapError(
            f"labelled enumeration capped at {LABELLED_ORDER_CAP} vertices")
    c_num, c_den = _c_ratio(c)
    subsets_by_size = [
        [sum(1 << v for v in combo)
         for combo in itertools.combinations(range(n), t)]
        for t in range(n + 1)
    ]
    best = n
    for adj in _labelled_graphs(n):
        # scan sizes downward; the first size with a valid subset is this
        # graph's value (size 1 always succeeds), and a graph stops mattering
        # as soon as its value is known to reach the current minimum
        for t in range(n, 0, -1):
            if any(_subset_valid(((adj[v] & mask).bit_count()
                                  for v in bit_indices(mask)), c_num, c_den)
                   for mask in subsets_by_size[t]):
                if t < best:
                    best = t
                break
        if best <= 1:
            break  # a single vertex is always regular; 1 is the floor
    return best


def point_prob_distribution(rhos: Sequence[float]) -> np.ndarray:
    """Exact distribution of a sum of independent Bernoulli variables via the
    convolution dynamic program; entry s is Pr[X = s]."""
    dist = np.zeros(len(rhos) + 1)
    dist[0] = 1.0
    for i, rho in enumerate(rhos):
        upper = i + 1
        dist[1:upper + 1] = dist[1:upper + 1] * (1 - rho) + dist[:upper] * rho
        dist[0] *= 1 - rho
    return dist


def _mc_fraction(probs: np.ndarray, trials: int, seed: int,
                 hit: Callable) -> float:
    """Share of ``trials`` rows of draws, cell j true with probability
    ``probs[j]``, that ``hit`` marks, drawn from PCG64 at ``seed`` in chunks
    of the ``MC_CHUNK*`` limits; PCG64 fills rows in one order whatever the
    chunk size, so the share does not depend on it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = min(MC_CHUNK, max(1, MC_CHUNK_CELLS // max(len(probs), 1)))
    hits = 0
    remaining = trials
    while remaining > 0:
        chunk = min(rows, remaining)
        hits += int(np.count_nonzero(hit(rng.random((chunk, len(probs)))
                                         < probs)))
        remaining -= chunk
    return hits / trials


def estimate_point_prob(rhos: Sequence[float], s: int, trials: int,
                        seed: int) -> float:
    """Monte Carlo estimate of Pr[sum of Bernoulli(rho_i) = s] from
    ``trials`` rows of draws; 0.0 when s lies outside 0..len(rhos). The
    exact value is ``point_prob_distribution(rhos)[s]``."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    t = len(rhos)
    if not 0 <= s <= t:
        return 0.0
    return _mc_fraction(np.asarray(rhos, dtype=float), trials, seed,
                        lambda draws: draws.sum(axis=1) == s)


def regular_prob_reference(n: int, k: int) -> float:
    """Calibration reference n * (C1_CAP / k)^(k/2) for the induced-regularity
    probability; a cap to compare against, not a verified value."""
    return n * (C1_CAP / k) ** (k / 2)


def estimate_regular_prob(n: int, k: int, trials: int, seed: int) -> float:
    """Fraction of skewed-model samples, restricted to the first k vertices,
    whose induced graph is regular (isolated vertices count as 0-regular)."""
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n")
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    if k < 3:
        # 0, 1 or 2 vertices: every graph is regular
        return 1.0
    ps = np.array([float(p) for p in p_bar(n)[:k]])
    # one draw per pair i < j, in row-major order
    first, second = np.triu_indices(k, 1)
    probs = ps[first] * ps[second]
    # row v of `incident` lists the draw columns of v's k - 1 pairs, so a
    # vertex's degree is one gather and one sum: O(C(k, 2)) memory, where
    # a pairs-by-vertices incidence matrix would take C(k, 2) * k
    column = np.empty((k, k), dtype=np.intp)
    column[first, second] = column[second, first] = np.arange(len(probs))
    incident = column[~np.eye(k, dtype=bool)]
    del column, first, second

    def regular(draws):
        degrees = draws[:, incident].reshape(len(draws), k, k - 1).sum(axis=2)
        return (degrees == degrees[:, :1]).all(axis=1)

    return _mc_fraction(probs, trials, seed, regular)
