"""Ground truth at desk scale.

Exhaustive searches for the largest nearly regular induced subgraph and its
edge-version analogue, brute-force minima over all labelled graphs of a
small order, and vectorised Monte Carlo estimators for the point-probability
and induced-regularity experiments, each cross-checked against an exact
dynamic program where one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, SizeCapError
from .graph import Graph, as_fraction, bit_indices
from .instances import p_bar

Real = Union[int, float, Fraction]

HARD_VERTEX_CAP = 64       # bitset rows; beyond this the search is refused
DEFAULT_VERTEX_CAP = 24
LABELLED_ORDER_CAP = 7     # 2^21 labelled graphs at n = 7
DEFAULT_EDGE_CAP = 20
MC_CHUNK = 1 << 15


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum: its value, one witness achieving it (lexicographically
    least), and how many search nodes were visited."""

    value: int
    witness: frozenset
    explored: int


@dataclass(frozen=True)
class CalibrationConstants:
    """User caps standing in for the unspecified absolute constants in the
    probabilistic estimates; comparisons against them are calibration checks,
    never verified claims."""

    c0_cap: float = 3.0
    c1_cap: float = 16.0

    def validate(self) -> None:
        if self.c0_cap <= 0 or self.c1_cap <= 0:
            raise PreconditionError("calibration caps must be positive")


def _c_ratio(c: Real) -> tuple:
    cf = as_fraction(c)
    if cf < 1:
        raise PreconditionError("c must be >= 1")
    return cf.numerator, cf.denominator


def _subset_valid(adj: Sequence, mask: int, c_num: int, c_den: int) -> bool:
    """Is the induced subgraph on ``mask`` c-nearly regular?"""
    mx, mn = 0, None
    for v in bit_indices(mask):
        d = (adj[v] & mask).bit_count()
        if d > mx:
            mx = d
        if mn is None or d < mn:
            mn = d
    if mx == 0:
        return True
    return mx * c_den <= c_num * mn


def _search_size_t(g: Graph, t: int, c_num: int, c_den: int,
                   counter: list) -> Optional[int]:
    """Lexicographically least c-nearly regular induced subset of size t."""
    n, adj = g.n, g.adj
    suffix = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] | (1 << pos)

    def feasible(chosen_mask: int, pos: int, rem: int) -> bool:
        # A partial choice dies when some chosen vertex is already forced
        # above c times the best minimum degree any completion can reach.
        pool = suffix[pos]
        worst_hi = None
        best_max = 0
        for v in bit_indices(chosen_mask):
            cur = (adj[v] & chosen_mask).bit_count()
            hi = cur + min((adj[v] & pool).bit_count(), rem)
            if worst_hi is None or hi < worst_hi:
                worst_hi = hi
            if cur > best_max:
                best_max = cur
        if worst_hi is None:
            return True
        if worst_hi == 0:
            return best_max == 0
        return best_max * c_den <= c_num * worst_hi

    def dfs(pos: int, chosen_mask: int, count: int) -> Optional[int]:
        counter[0] += 1
        rem = t - count
        if rem == 0:
            return chosen_mask if _subset_valid(adj, chosen_mask, c_num, c_den) \
                else None
        if n - pos < rem:
            return None
        if not feasible(chosen_mask, pos, rem):
            return None
        hit = dfs(pos + 1, chosen_mask | (1 << pos), count + 1)
        if hit is not None:
            return hit
        return dfs(pos + 1, chosen_mask, count)

    return dfs(0, 0, 0)


def exact_f(g: Graph, c: Real, size_cap: int = DEFAULT_VERTEX_CAP) -> OracleResult:
    """Largest induced c-nearly regular subgraph, by exhaustive search in
    decreasing subset size with degree-spread pruning."""
    if g.n > HARD_VERTEX_CAP:
        raise SizeCapError(f"exact search is capped at {HARD_VERTEX_CAP} vertices")
    if g.n > size_cap:
        raise SizeCapError(f"instance exceeds the size cap {size_cap}")
    c_num, c_den = _c_ratio(c)
    counter = [0]
    for t in range(g.n, 0, -1):
        hit = _search_size_t(g, t, c_num, c_den, counter)
        if hit is not None:
            return OracleResult(t, frozenset(bit_indices(hit)), counter[0])
    return OracleResult(0, frozenset(), counter[0])


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


def exact_f_n(n: int, c: Real, order_cap: int = LABELLED_ORDER_CAP) -> int:
    """Minimum of exact_f over every labelled graph on n vertices."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if n > order_cap:
        raise SizeCapError(f"labelled enumeration capped at {order_cap} vertices")
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
            if any(_subset_valid(adj, mask, c_num, c_den)
                   for mask in subsets_by_size[t]):
                if t < best:
                    best = t
                break
        if best <= 1:
            break  # a single vertex is always regular; 1 is the floor
    return best


def exact_edge_regular(g: Graph, c: Real,
                       edge_cap: int = DEFAULT_EDGE_CAP) -> OracleResult:
    """Most edges over all edge subsets whose subgraph on covered vertices is
    c-nearly regular (not necessarily induced)."""
    if g.m > edge_cap:
        raise SizeCapError(f"edge enumeration capped at {edge_cap} edges")
    c_num, c_den = _c_ratio(c)
    edge_list = sorted(g.edges())
    explored = 0
    for t in range(g.m, 0, -1):
        for combo in itertools.combinations(edge_list, t):
            explored += 1
            deg: dict = {}
            for u, v in combo:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            mx, mn = max(deg.values()), min(deg.values())
            if mx * c_den <= c_num * mn:
                return OracleResult(t, frozenset(combo), explored)
    return OracleResult(0, frozenset(), explored)


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


@dataclass(frozen=True)
class PointProbEstimate:
    estimate: float
    exact: float
    trials: int


def estimate_point_prob(rhos: Sequence[float], s: int, trials: int,
                        seed: int) -> PointProbEstimate:
    """Monte Carlo estimate of Pr[sum of Bernoulli(rho_i) = s] together with
    the exact value from the convolution program."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    t = len(rhos)
    exact = float(point_prob_distribution(rhos)[s]) if 0 <= s <= t else 0.0
    if not 0 <= s <= t:
        return PointProbEstimate(0.0, 0.0, trials)
    rng = np.random.Generator(np.random.PCG64(seed))
    rho_row = np.asarray(rhos, dtype=float)
    hits = 0
    remaining = trials
    while remaining > 0:
        chunk = min(MC_CHUNK, remaining)
        draws = rng.random((chunk, t)) < rho_row
        hits += int(np.count_nonzero(draws.sum(axis=1) == s))
        remaining -= chunk
    return PointProbEstimate(hits / trials, exact, trials)


def regular_prob_reference(n: int, k: int,
                           constants: CalibrationConstants) -> float:
    """Calibration reference n * (c1_cap / k)^(k/2) for the induced-regularity
    probability; a cap to compare against, not a verified value."""
    constants.validate()
    return n * (constants.c1_cap / k) ** (k / 2)


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
    ps = [float(p) for p in p_bar(n)[:k]]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    probs = np.array([ps[i] * ps[j] for i, j in pairs])
    incidence = np.zeros((len(pairs), k), dtype=np.int8)
    for idx, (i, j) in enumerate(pairs):
        incidence[idx, i] = 1
        incidence[idx, j] = 1
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    remaining = trials
    while remaining > 0:
        chunk = min(MC_CHUNK, remaining)
        draws = rng.random((chunk, len(pairs))) < probs
        degrees = draws.astype(np.int16) @ incidence
        hits += int(np.count_nonzero(
            (degrees == degrees[:, :1]).all(axis=1)))
        remaining -= chunk
    return hits / trials
