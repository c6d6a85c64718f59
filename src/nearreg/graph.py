"""Core graph representation and shared result types.

Graphs are immutable simple undirected graphs over dense ids 0..n-1.
Adjacency is kept as one Python-int bitmask per vertex, which gives O(1)
neighbourhood intersection at any n (the exhaustive searches rely on this).
Average degree and density are carried as exact `Fraction`s so that peel
thresholds never flip on float rounding. Every ledger entry is evaluated by
`check`, exactly for integer, `Fraction` and a + b*sqrt(e) (`Surd`)
thresholds; only the five log/pow thresholds Prop2.2-size, Prop1.1-size,
Lem2.3-rounds, Lem2.3-size and Thm1.2-size are floats, compared as they
stand with no slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Optional, Union

from .errors import BoundViolationError, EdgeListError

# A vertex set is just a frozenset of ids within a host graph.
VertexSet = frozenset
Edge = tuple  # (u, v) with u < v


def as_fraction(x: Union[int, float, Fraction, str]) -> Fraction:
    """Exact rational view of a parameter.

    Floats are read at decimal face value (``0.4`` becomes exactly 2/5),
    so ratios like k/alpha come out as the intended rational constants.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def bit_indices(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``n`` vertices, bitmask adjacency, ``m`` edges."""

    n: int
    adj: tuple  # tuple[int, ...], adj[v] = bitmask of neighbours of v
    m: int

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple]) -> "Graph":
        """Build and validate a graph from an iterable of (u, v) pairs."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise EdgeListError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise EdgeListError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
        return Graph(n, tuple(adj), m)

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n, 0)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list:
        return [a.bit_count() for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bit_indices(self.adj[v])

    def edges(self) -> Iterator[Edge]:
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            for v in bit_indices(higher):
                yield (u, v)

    def edge_set(self) -> frozenset:
        return frozenset(self.edges())

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def count_edges_in(self, mask: int) -> int:
        """Number of edges with both endpoints in the bitmask ``mask``."""
        total = 0
        for v in bit_indices(mask):
            total += (self.adj[v] & mask).bit_count()
        return total // 2

    def count_edges_between(self, mask_a: int, mask_b: int) -> int:
        """Number of edges with one endpoint in each (disjoint) mask."""
        total = 0
        for v in bit_indices(mask_a):
            total += (self.adj[v] & mask_b).bit_count()
        return total


@dataclass(frozen=True)
class DegreeStats:
    """Max/min/average degree and density of a graph (exact rationals)."""

    max_deg: int
    min_deg: int
    avg_deg: Fraction
    density: Fraction

    def to_json(self) -> dict:
        return {
            "max_deg": self.max_deg,
            "min_deg": self.min_deg,
            "avg_deg": float(self.avg_deg),
            "avg_deg_exact": str(self.avg_deg),
            "density": float(self.density),
            "density_exact": str(self.density),
        }


def degree_stats(g: Graph) -> DegreeStats:
    """Degree statistics of ``g``; all-zero for the graph with no vertices."""
    if g.n == 0:
        return DegreeStats(0, 0, Fraction(0), Fraction(0))
    degs = g.degrees()
    density = Fraction(g.m, comb(g.n, 2)) if g.n > 1 else Fraction(0)
    return DegreeStats(max(degs), min(degs), Fraction(2 * g.m, g.n), density)


def stats_for_members(adj: tuple, mask: int, edge_count: int, size: int) -> DegreeStats:
    """Degree statistics of the induced subgraph on ``mask`` without building it."""
    if size == 0:
        return DegreeStats(0, 0, Fraction(0), Fraction(0))
    mx, mn = 0, None
    for v in bit_indices(mask):
        d = (adj[v] & mask).bit_count()
        if d > mx:
            mx = d
        if mn is None or d < mn:
            mn = d
    avg = Fraction(2 * edge_count, size)
    density = Fraction(edge_count, comb(size, 2)) if size > 1 else Fraction(0)
    return DegreeStats(mx, mn, avg, density)


def induced(g: Graph, u: Iterable) -> tuple:
    """Induced subgraph on ``u`` with ids relabelled 0..|u|-1.

    Returns ``(subgraph, id_map)`` where ``id_map[new_id] = old_id``.
    """
    members = sorted(set(u))
    if members and not (0 <= members[0] and members[-1] < g.n):
        raise ValueError(f"vertex id out of range in {members}")
    id_map = tuple(members)
    index = {old: new for new, old in enumerate(members)}
    mask = 0
    for v in members:
        mask |= 1 << v
    adj = [0] * len(members)
    m = 0
    for v in members:
        for w in bit_indices(g.adj[v] & mask):
            if w > v:
                adj[index[v]] |= 1 << index[w]
                adj[index[w]] |= 1 << index[v]
                m += 1
    return Graph(len(members), tuple(adj), m), id_map


def subgraph_ratio(max_deg: int, min_deg: int) -> Fraction:
    """Achieved max/min degree ratio.

    The edgeless graph counts as regular (ratio 1); a positive max degree
    with an isolated vertex has no defined ratio and is rejected.
    """
    if max_deg == 0:
        return Fraction(1)
    if min_deg == 0:
        raise ValueError("ratio undefined: min degree 0 with max degree > 0")
    return Fraction(max_deg, min_deg)


def nearly_regular_check(g: Graph, c: Union[int, float, Fraction]) -> bool:
    """True iff max degree <= c * min degree (edgeless graphs pass for all c)."""
    cf = as_fraction(c)
    if cf < 1:
        raise ValueError("nearly-regular factor c must be >= 1")
    st = degree_stats(g)
    if st.max_deg == 0:
        return True
    return st.max_deg <= cf * st.min_deg


def ledger_ratio(max_deg: int, min_deg: int):
    """`subgraph_ratio`, but infinite where that is undefined: fails a check."""
    if min_deg == 0 < max_deg:
        return math.inf
    return subgraph_ratio(max_deg, min_deg)


# Ledger entries whose thresholds are built from logs or non-integer powers;
# they alone may carry float thresholds.
FLOAT_BOUNDS = frozenset({"Prop2.2-size", "Prop1.1-size", "Lem2.3-rounds",
                          "Lem2.3-size", "Thm1.2-size"})


@dataclass(frozen=True)
class Surd:
    """The real number a + b*sqrt(e), for rationals a, b and e >= 0."""

    a: Fraction
    b: Fraction
    e: Fraction

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.e)

    def __ceil__(self) -> int:
        k = math.ceil(float(self))  # then corrected by exact comparisons
        while _sign_of_difference(k - 1, self) >= 0:
            k -= 1
        while _sign_of_difference(k, self) < 0:
            k += 1
        return k


def _sign_of_difference(x, t) -> int:
    """Exact sign of x - t. A `Surd` t is compared by squaring:
    x - a - b*sqrt(e) has the sign of c = x - a when c and b*sqrt(e) differ
    in sign, and otherwise that sign times the sign of c^2 - b^2*e."""
    if not isinstance(t, Surd):
        return (x > t) - (x < t)
    c = x - t.a
    sc = (c > 0) - (c < 0)
    sr = (t.b > 0) - (t.b < 0) if t.e else 0
    if sc != sr:
        return sc if sc else -sr
    r2 = t.b * t.b * t.e
    return sc * ((c * c > r2) - (c * c < r2))


def _json_number(x):
    return x if isinstance(x, int) else float(x)


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated guarantee: an id, the required threshold, the achieved
    value, and whether it passed. ``kind`` is 'lower' when achieved must be
    >= threshold, 'upper' when it must be <=. Build entries with `check`."""

    bound_id: str
    threshold: Union[int, Fraction, float, Surd]
    achieved: Union[int, Fraction, float]
    passed: bool
    kind: str = "lower"

    def to_json(self) -> dict:
        return {
            "id": self.bound_id,
            "kind": self.kind,
            "threshold": _json_number(self.threshold),
            "achieved": _json_number(self.achieved),
            "pass": self.passed,
        }


def check(bound_id: str, achieved, op: str, threshold) -> BoundCheck:
    """Evaluate ``achieved op threshold`` (op '<=' or '>='): exactly for
    integer, `Fraction` and `Surd` thresholds; a float threshold only for an
    id in `FLOAT_BOUNDS`, compared directly with no slack."""
    if isinstance(threshold, float) and bound_id not in FLOAT_BOUNDS:
        raise TypeError(f"{bound_id}: float threshold for an exact bound")
    sign = _sign_of_difference(achieved, threshold)
    if op == "<=":
        return BoundCheck(bound_id, threshold, achieved, sign <= 0, "upper")
    if op == ">=":
        return BoundCheck(bound_id, threshold, achieved, sign >= 0, "lower")
    raise ValueError(f"unknown comparison {op!r}")


def require_bounds(op: str, checks: Iterable[BoundCheck]) -> tuple:
    """Raise if any check failed; returns the checks as a tuple."""
    checks = tuple(checks)
    bad = [c for c in checks if not c.passed]
    if bad:
        ids = ", ".join(c.bound_id for c in bad)
        raise BoundViolationError(f"{op}: guarantee failed: {ids}", checks)
    return checks


@dataclass(frozen=True)
class ExtractionResult:
    """A found subgraph plus its statistics and the guarantee it satisfies.

    ``edges`` is present only for non-induced (edge-version) results; when it
    is absent the stats describe the induced subgraph on ``vertices``.
    ``bounds`` is the ledger of guarantee checks evaluated before returning.
    """

    vertices: frozenset
    edges: Optional[frozenset]
    stats: DegreeStats
    ratio: Fraction
    guarantee: str
    bounds: tuple = field(default=())

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        if self.edges is not None:
            return len(self.edges)
        # stats carry the induced edge count via the average degree
        return int(self.stats.avg_deg * len(self.vertices) / 2)

    @staticmethod
    def from_induced(g: Graph, vertices: Iterable, guarantee: str,
                     bounds: tuple = ()) -> "ExtractionResult":
        members = frozenset(vertices)
        mask = 0
        for v in members:
            mask |= 1 << v
        edge_count = g.count_edges_in(mask)
        st = stats_for_members(g.adj, mask, edge_count, len(members))
        return ExtractionResult(members, None, st,
                                subgraph_ratio(st.max_deg, st.min_deg),
                                guarantee, bounds)

    @staticmethod
    def from_edge_subgraph(edges: Iterable, guarantee: str,
                           bounds: tuple = ()) -> "ExtractionResult":
        """Result of an edge-version extraction: vertex set = covered endpoints."""
        edge_set = frozenset(normalize_edge(u, v) for u, v in edges)
        deg: dict = {}
        for u, v in edge_set:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        members = frozenset(deg)
        size = len(members)
        if size == 0:
            st = DegreeStats(0, 0, Fraction(0), Fraction(0))
        else:
            st = DegreeStats(
                max(deg.values()), min(deg.values()),
                Fraction(2 * len(edge_set), size),
                Fraction(len(edge_set), comb(size, 2)) if size > 1 else Fraction(0),
            )
        return ExtractionResult(members, edge_set, st,
                                subgraph_ratio(st.max_deg, st.min_deg),
                                guarantee, bounds)

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "edges": sorted(self.edges) if self.edges is not None else None,
            "stats": self.stats.to_json(),
            "ratio": float(self.ratio),
            "ratio_exact": str(self.ratio),
            "guarantee": self.guarantee,
            "bounds": [c.to_json() for c in self.bounds],
        }


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list wire format: header ``n m`` then m lines ``u v``
    with 0 <= u < v < n. Rejects self-loops, duplicates and bad counts."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise EdgeListError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise EdgeListError("negative counts in header")
    if len(lines) - 1 != m:
        raise EdgeListError(f"header claims {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"malformed edge line {ln!r}") from exc
        if u == v:
            raise EdgeListError(f"self-loop {ln!r}")
        if not u < v:
            raise EdgeListError(f"edge line {ln!r} must satisfy u < v")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, one per line."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(out) + "\n"
