"""Generators for the extremal and random instances used throughout.

Random generators draw one uniform per vertex pair in lexicographic pair
order from a PCG64 stream seeded by the 64-bit seed, so a (kind, params,
seed) triple always reproduces the same graph.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError
from .graph import Graph

# the most edges `blocks`, `complete_bipartite` and `star` build: an edge
# list costs about 200 bytes an edge while it is built, so s = 10
# (1,042,432 edges) is the largest s of `blocks`
EDGE_CAP = 1 << 20


def _require_edge_cap(what: str, m: int) -> None:
    """Refuse a graph of ``m`` edges above ``EDGE_CAP``, before any edge
    is built; ``what`` names the graph in the message."""
    if m > EDGE_CAP:
        raise PreconditionError(
            f"{what} has {m} edges, above the cap {EDGE_CAP}")


def blocks_edge_count(s: int) -> int:
    """Edges of ``blocks(s)``: sum over i of 2^(s-i) * C(2^i, 2), which is
    2^(s-1) * (2^(s+1) - s - 2)."""
    return ((1 << (s + 1)) - s - 2) << s >> 1


def blocks(s: int) -> Graph:
    """Layered clique blocks: parts V_0..V_s of 2^s vertices each, part V_i
    holding 2^(s-i) disjoint cliques of size 2^i, no edges anywhere else.
    Ids run part by part, clique by clique, ascending. Refused, before
    anything is allocated, above ``EDGE_CAP`` edges."""
    if s < 0:
        raise PreconditionError("s must be >= 0")
    return _blocks_prefix(s, (s + 1) << s)


def _blocks_prefix(s: int, n: int) -> Graph:
    """The first n ids of ``blocks(s)``: each clique cut at id n. Refused
    when ``blocks(s)`` has more than ``EDGE_CAP`` edges."""
    _require_edge_cap(f"blocks with s = {s}", blocks_edge_count(s))
    part = 1 << s
    edges = []
    for i in range(s + 1):
        size = 1 << i
        for lo in range(i * part, min((i + 1) * part, n), size):
            edges.extend(combinations(range(lo, min(lo + size, n)), 2))
    return Graph.from_edges(n, edges)


def blocks_minimal_s(n: int) -> int:
    s = 0
    while (s + 1) << s < n:
        s += 1
    return s


def blocks_padded(n: int) -> Graph:
    """Blocks graph for the minimal s with (s+1)*2^s >= n (at most 3n),
    built on its first n ids only."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return _blocks_prefix(blocks_minimal_s(n), n)


def p_bar(n: int, k: Optional[int] = None) -> list:
    """Per-vertex edge weights 1/4 + i/(2n) for i = 1..k, k = n unless
    given (exact rationals)."""
    return [Fraction(1, 4) + Fraction(i, 2 * n)
            for i in range(1, (n if k is None else k) + 1)]


def _sample_pairs(n: int, row_probs: Callable, seed: int) -> Graph:
    """Draw the pairs (i, j), i < j, in lexicographic order, one row of
    uniforms per vertex i, against ``row_probs(i)``: the probability of
    every pair (i, j > i), as a scalar or one entry per j. Consecutive rows
    continue one PCG64 stream, so the draws equal one call for all C(n, 2)
    pairs, in O(n) memory beyond the edges, which go to `Graph.from_edges`
    as one (m, 2) array."""
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = [np.flatnonzero(rng.random(n - 1 - i) < row_probs(i))
            for i in range(n - 1)]
    u = np.repeat(np.arange(n - 1), [len(h) for h in hits])
    v = np.concatenate([np.empty(0, np.intp), *hits]) + u + 1
    return Graph.from_edges(n, np.column_stack((u, v)))


def sample_gnp_bar(n: int, seed: int) -> Graph:
    """Skewed random graph: vertex i (1-based) has weight 1/4 + i/(2n) and
    pair (i, j) is an edge with probability p_i * p_j. Vertex i maps to
    id i-1."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    ps = np.array([float(p) for p in p_bar(n)])
    return _sample_pairs(n, lambda i: ps[i] * ps[i + 1:], seed)


def sample_gnp_uniform(n: int, p: float, seed: int) -> Graph:
    """Uniform Erdos-Renyi style sample with a fixed pair order."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not 0 <= p <= 1:
        raise PreconditionError("p must lie in [0, 1]")
    return _sample_pairs(n, lambda i: float(p), seed)


def complete_bipartite(k: int, n: int) -> Graph:
    """K_{k,n-k}: side {0..k-1} fully joined to side {k..n-1}. Refused,
    before any edge is built, above ``EDGE_CAP`` edges."""
    if not 1 <= k <= n - 1:
        raise PreconditionError("need 1 <= k <= n-1")
    _require_edge_cap(f"complete-bipartite with k = {k}, n = {n}",
                      k * (n - k))
    edges = [(a, b) for a in range(k) for b in range(k, n)]
    return Graph.from_edges(n, edges)


def star(n: int) -> Graph:
    """K_{1,n-1} with the hub at id 0. Refused, before any edge is built,
    above ``EDGE_CAP`` edges."""
    if n < 2:
        raise PreconditionError("star needs n >= 2")
    _require_edge_cap(f"star with n = {n}", n - 1)
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])

