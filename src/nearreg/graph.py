"""Core graph representation and the shared result types, plain data that
`nearreg.cli` writes into reports. The result types are `NamedTuple`s;
`Graph` and `Surd`, which must not act as tuples, are slotted classes
that refuse assignment.

Graphs are immutable simple undirected graphs over dense ids 0..n-1.
Adjacency is stored once, as read-only numpy CSR arrays: the neighbours of
v, ascending, are ``indices[indptr[v]:indptr[v + 1]]``, so a graph takes
O(n + m) memory at any n. Algorithms take every vertex's ascending
neighbour list from `Graph.neighbor_lists`, or read the few rows they need
from the CSR slices (`peeling.threshold_core`), and track live sets as
bytearrays; no module builds bitmask rows.
Average degree and density are carried as exact `Fraction`s so that peel
thresholds never flip on float rounding. Every ledger entry is evaluated by
`check`, exactly for integer, `Fraction` and a + b*sqrt(e) (`Surd`)
thresholds; only the five log/pow thresholds Prop2.2-size, Prop1.1-size,
Lem2.3-rounds, Lem2.3-size and Thm1.2-size are floats, compared as they
stand with no slack. `DegreeStats.of` builds every degree-statistics record
from a degree sequence alone, its edge count half the degree sum, so an
extractor that tracked its survivors' degrees hands them over instead of
recounting adjacency.

Graphs come from edges in one place, `Graph.from_edges`: it takes an
(m, 2) integer array (or pairs), checks all edges at once and reports the
first bad one in input order, and sorts both orientations of every edge as
``row << shift | column`` keys, which are the CSR arrays once split.
`parse_edge_list` reads the ASCII decimal wire format from bytes with
numpy, whatever the input's size: byte classes, digit runs and their
values, and the line of each token; a byte outside digits, blanks (space,
tab, 0x1f) and the ASCII line breaks of str.splitlines is refused with its
line number.
"""

from __future__ import annotations

import gc
import math
import operator
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .errors import BoundViolationError, EdgeListError, PreconditionError

Real = Union[int, float, Fraction]


def as_fraction(x: Union[int, float, Fraction, str]) -> Fraction:
    """Exact rational view of a parameter.

    Floats are read at decimal face value (``0.4`` becomes exactly 2/5),
    so ratios like k/alpha come out as the intended rational constants.
    A non-finite float (nan, inf) is refused with `PreconditionError`.
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise PreconditionError(f"expected a finite number, got {x}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def normalize_edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


class _Frozen:
    """Base of the two records that are not tuples: a subclass names its
    fields in ``__slots__`` and sets them in ``__init__`` through
    `object.__setattr__`; an instance refuses any later assignment."""

    __slots__ = ()

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return type(self).__name__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


class Graph(_Frozen):
    """Immutable simple graph: ``n`` vertices, ``m`` edges, and the
    ascending neighbours of v at ``indices[indptr[v]:indptr[v + 1]]``, two
    read-only int64 arrays: ``Graph(n, indptr, indices, m)``. Graphs compare
    equal by value and are unhashable."""

    __slots__ = ("n", "indptr", "indices", "m")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 m: int) -> None:
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "indptr", indptr)
        set_field(self, "indices", indices)
        set_field(self, "m", m)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build and check a graph from an (m, 2) integer array or an
        iterable of (u, v) integer pairs, in either orientation.

        All edges are checked at once (ids in range, no self-loop, no
        duplicate); the error names the first bad edge in input order.
        The degree offsets are allocated first, so an ``n`` that memory
        cannot hold is a MemoryError before any edge is looked at.
        """
        n = operator.index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        indptr = _offsets(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)  # sets and generators keep their order
        e = np.asarray(edges)
        if e.dtype.kind not in "iu":  # ids beyond 64 bits, floats:
            e = np.asarray(edges, dtype=object)  # compared as Python numbers
        e = e.reshape(-1, 2)
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        stop = int(np.argmax(bad)) if bad.any() else len(e)
        # the ids before `stop` lie in [0, n), so int64 holds them and the
        # keys below, whatever the input's dtype
        lo, hi = _int64(lo[:stop]), _int64(hi[:stop])
        if stop < len(e):
            raise _first_bad_edge(n, e, lo, hi)
        # both orientations of every edge as row << shift | column, sorted
        shift = max(n - 1, 0).bit_length()
        key = np.concatenate((lo << shift | hi, hi << shift | lo))
        key.sort()
        if (key[1:] == key[:-1]).any():
            raise _first_bad_edge(n, e, lo, hi)
        return _csr(indptr, key >> shift, key & ((1 << shift) - 1))

    @staticmethod
    def empty(n: int) -> "Graph":
        return _csr(_offsets(n), np.empty(0, np.int64), np.empty(0, np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> list:
        return np.diff(self.indptr).tolist()

    def neighbors(self, v: int) -> list:
        """The ascending neighbours of ``v``."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]].tolist()

    def neighbor_lists(self) -> list:
        """Every vertex's ascending neighbour list, as Python ints. Each
        call builds them anew in O(n + m): an algorithm takes them once.

        The cyclic garbage collector is paused while the lists are built,
        and left as the caller had it on every way out: lists of ints hold
        no cycles, and on large graphs the n new lists would otherwise set
        off repeated full collections."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            flat, ends = self.indices.tolist(), self.indptr.tolist()
            return [flat[a:b] for a, b in zip(ends, ends[1:])]
        finally:
            if enabled:
                gc.enable()

    def edges(self):
        """Iterator over the edges (u, v), u < v, in lexicographic order."""
        row = _row_ids(self)
        upper = self.indices > row
        return zip(row[upper].tolist(), self.indices[upper].tolist())


def _offsets(n: int):
    """n + 1 zeroed int64 degree offsets; an n beyond numpy's largest array
    is a MemoryError, as one beyond the memory at hand already is."""
    try:
        return np.zeros(n + 1, np.int64)
    except ValueError:
        raise MemoryError(f"no array holds {n} + 1 offsets") from None


def _csr(indptr, row, col) -> Graph:
    """The graph on n = len(indptr) - 1 vertices whose adjacency entries,
    both orientations of every edge, are (``row``, ``col``) in ascending
    (row, col) order; ``indptr`` comes from `_offsets` and takes the
    offsets."""
    n = len(indptr) - 1
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    col = col.astype(np.int64, copy=False)
    indptr.flags.writeable = col.flags.writeable = False
    return Graph(n, indptr, col, len(col) // 2)


def _row_ids(g: Graph):
    """The row of every entry of ``g.indices``."""
    return np.repeat(np.arange(g.n), np.diff(g.indptr))


class DegreeStats(NamedTuple):
    """Max/min/average degree and density of a graph (exact rationals)."""

    max_deg: int
    min_deg: int
    avg_deg: Fraction
    density: Fraction

    @staticmethod
    def of(degrees: list) -> "DegreeStats":
        """Statistics of a graph with degree sequence ``degrees``, whose
        sum is twice the edge count; all zero when there are no vertices."""
        n, total = len(degrees), sum(degrees)
        if n == 0:
            return DegreeStats(0, 0, Fraction(0), Fraction(0))
        density = Fraction(total, n * (n - 1)) if n > 1 else Fraction(0)
        return DegreeStats(max(degrees), min(degrees), Fraction(total, n),
                           density)


def degree_stats(g: Graph) -> DegreeStats:
    """Degree statistics of ``g``; all-zero for the graph with no vertices."""
    return DegreeStats.of(g.degrees())


def induced(g: Graph, u: Iterable) -> tuple:
    """Induced subgraph on ``u`` with ids relabelled 0..|u|-1, in order.

    Returns ``(subgraph, id_map)`` where ``id_map[new_id] = old_id``.
    """
    members = sorted(set(u))
    if members and not (0 <= members[0] and members[-1] < g.n):
        raise ValueError(f"vertex id out of range in {members}")
    inside = np.zeros(g.n, bool)
    inside[members] = True
    row = _row_ids(g)
    kept = inside[row] & inside[g.indices]
    # ids keep their order, so the kept entries stay sorted
    new_id = np.cumsum(inside) - 1
    sub = _csr(_offsets(len(members)), new_id[row[kept]],
               new_id[g.indices[kept]])
    return sub, tuple(members)


def ledger_ratio(max_deg: int, min_deg: int):
    """Achieved max/min degree ratio. The edgeless graph counts as regular
    (ratio 1); a positive max degree with an isolated vertex has no finite
    ratio and gets ``math.inf``, which fails every ratio check."""
    if max_deg == 0:
        return Fraction(1)
    if min_deg == 0:
        return math.inf
    return Fraction(max_deg, min_deg)


# Ledger entries whose thresholds are built from logs or non-integer powers;
# they alone may carry float thresholds.
FLOAT_BOUNDS = frozenset({"Prop2.2-size", "Prop1.1-size", "Lem2.3-rounds",
                          "Lem2.3-size", "Thm1.2-size"})


class Surd(_Frozen):
    """The real number a + b*sqrt(e), for rationals a, b and e >= 0:
    ``Surd(a, b, e)``. Surds compare equal, and hash, by (a, b, e)."""

    __slots__ = ("a", "b", "e")

    def __init__(self, a: Fraction, b: Fraction, e: Fraction) -> None:
        set_field = object.__setattr__
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "e", e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return (self.a, self.b, self.e) == (other.a, other.b, other.e)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.e))

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


class BoundCheck(NamedTuple):
    """One evaluated guarantee: an id, the required threshold, the achieved
    value, and whether it passed. ``kind`` is 'lower' when achieved must be
    >= threshold, 'upper' when it must be <=. Build entries with `check`."""

    bound_id: str
    threshold: Union[int, Fraction, float, Surd]
    achieved: Union[int, Fraction, float]
    passed: bool
    kind: str = "lower"


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
        raise BoundViolationError(f"{op}: {ids}", checks)
    return checks


class ExtractionResult(NamedTuple):
    """A found subgraph plus its statistics and the guarantee it satisfies.

    ``edges`` is present only for non-induced (edge-version) results; when it
    is absent the stats describe the induced subgraph on ``vertices``.
    ``bounds`` is the ledger of guarantee checks evaluated before returning.
    ``ratio`` is read off ``stats``, which the extractor tracked while it
    ran, so a result holds no second copy of it.
    """

    vertices: frozenset
    edges: Optional[frozenset]
    stats: DegreeStats
    guarantee: str
    bounds: tuple = ()

    @property
    def ratio(self) -> Union[Fraction, float]:
        """The max/min degree ratio of ``stats``, by `ledger_ratio`."""
        return ledger_ratio(self.stats.max_deg, self.stats.min_deg)

    @staticmethod
    def from_edge_subgraph(edges: Iterable, guarantee: str,
                           bounds: tuple = ()) -> "ExtractionResult":
        """Result of an edge-version extraction: vertex set = covered
        endpoints. ``edges`` holds (low, high) pairs, as both edge extractors
        build them, kept as given (a frozenset is kept itself)."""
        edge_set = frozenset(edges)
        deg = Counter(chain.from_iterable(edge_set))
        return ExtractionResult(
            frozenset(deg), edge_set,
            DegreeStats.of(list(deg.values())), guarantee, bounds)


def _int64(ids):
    """``ids``, all in [0, n), as an int64 array; an object array must
    hold integers (`operator.index`)."""
    if ids.dtype == object:
        return np.fromiter(map(operator.index, ids.tolist()), np.int64,
                           len(ids))
    return ids.astype(np.int64, copy=False)


def _first_bad_edge(n: int, e, lo, hi) -> EdgeListError:
    """The error of the first bad edge of ``e`` in input order. ``lo`` and
    ``hi`` hold the ordered ids of the edges before the first one out of
    range or a self-loop (of all edges, if none is), so a repeated edge is
    looked for only among them."""
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        u, v = e[repeats.min()]
        return EdgeListError(f"duplicate edge ({u}, {v})")
    u, v = e[len(lo)]
    if min(u, v) < 0 or max(u, v) >= n:
        return EdgeListError(f"vertex id out of range: ({u}, {v}) with n={n}")
    return EdgeListError(f"self-loop at vertex {u}")


# The ASCII line breaks of str.splitlines (which also reads "\r\n" as one).
_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"
# Byte classes of the wire format, as a bytes.translate table: 1 digit,
# 2 blank, 3 line break, 0 refused.
_BYTE_CLASS = bytes(1 if 48 <= c < 58 else 2 if c in b" \t\x1f"
                    else 3 if c in _BREAKS else 0 for c in range(256))
_LINE_BREAK = re.compile(rb"\r\n|[" + re.escape(_BREAKS) + rb"]")
_DIGIT_MAX = 18  # longer digit runs may not fit in int64; read by int()


def _line_at(data: bytes, pos: int) -> tuple:
    """(1-based number, bytes) of the line holding byte ``pos``, its lines
    numbered as str.splitlines splits them."""
    number, start = 1, 0
    for brk in _LINE_BREAK.finditer(data, 0, pos):
        number, start = number + 1, brk.end()
    end = _LINE_BREAK.search(data, pos)
    return number, data[start:end.start() if end else len(data)]


def _line_text(data: bytes, pos: int) -> str:
    return _line_at(data, pos)[1].decode("ascii").strip()


def parse_edge_list(data: Union[bytes, str]) -> Graph:
    """Parse the edge-list wire format, ASCII decimal: the first non-blank
    line is the header ``n m``, then m lines ``u v`` with 0 <= u < v < n.

    Blanks are space, tab and 0x1f; line breaks are the ASCII ones of
    str.splitlines; blank lines are skipped. Any other byte is refused
    with the number of its line, and so are bad counts, malformed lines,
    self-loops, ids out of range and duplicates (`EdgeListError`).
    Every input, whatever its size, is tokenised with numpy and built by
    `Graph.from_edges`.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    classes = data.translate(_BYTE_CLASS)
    pos = classes.find(0)
    if pos >= 0:
        number, line = _line_at(data, pos)
        raise EdgeListError(
            f"line {number}: byte {data[pos]:#04x} is not an ASCII digit, "
            f"blank or line break: {line.decode('utf-8', 'replace')!r}")
    return _parse_tokens(data, classes)


def _parse_tokens(data: bytes, classes: bytes) -> Graph:
    """`parse_edge_list` on the bytes ``data`` of digits, blanks and line
    breaks only, whose byte classes are ``classes``, vectorised."""
    # one line break on each side: every digit run has a start and an end
    buf = np.frombuffer(b"\n" + data + b"\n", np.uint8)
    cls = np.frombuffer(b"\3" + classes + b"\3", np.uint8)
    digit = cls == 1
    flips = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    if not flips.size:
        raise EdgeListError("empty input")
    starts, ends = flips[0::2], flips[1::2]
    # token starts and line breaks in byte order (the first is a break); a
    # token begins a line when the event before it is a break
    breaks = cls == 3
    event = breaks.copy()
    event[starts] = True
    is_break = breaks[np.flatnonzero(event)]
    first = np.flatnonzero(is_break[:-1][~is_break[1:]])
    # token values by Horner's rule, reading each token right-aligned
    lengths = ends - starts
    longest = int(lengths.max())
    value = np.zeros(len(starts), np.int64)
    for k in range(min(longest, _DIGIT_MAX), 0, -1):
        d = buf.take(ends - k, mode="clip") - 48
        d[lengths < k] = 0
        value *= 10
        value += d
    if longest > _DIGIT_MAX:
        value = value.astype(object)
        for i in np.flatnonzero(lengths > _DIGIT_MAX).tolist():
            value[i] = int(data[starts[i] - 1:ends[i] - 1])
    if (first[1] if len(first) > 1 else len(starts)) != 2:
        raise EdgeListError(
            f"bad header {_line_text(data, starts[0] - 1)!r}: expected 'n m'")
    first = first[1:]  # of each edge line
    n, m = int(value[0]), int(value[1])
    if first.size != m:
        raise EdgeListError(f"header claims {m} edges, found {first.size}")
    counts = np.concatenate((first[1:], [len(starts)])) - first
    u = value[first]
    v = value[np.minimum(first + 1, len(starts) - 1)]
    bad = (counts != 2) | (u >= v)
    if bad.any():
        i = int(np.argmax(bad))
        text = _line_text(data, starts[first[i]] - 1)
        if counts[i] != 2:
            raise EdgeListError(f"malformed edge line {text!r}")
        if u[i] == v[i]:
            raise EdgeListError(f"self-loop {text!r}")
        raise EdgeListError(f"edge line {text!r} must satisfy u < v")
    return Graph.from_edges(n, value[2:].reshape(-1, 2))


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: edges in lexicographic order, one per line."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
