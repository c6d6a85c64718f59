"""Ground truth at desk scale.

The largest nearly regular induced subgraph (`exact_f`: one branch and
bound over every size, whose witness is the lexicographically least
largest set), and vectorised Monte Carlo estimators for the
point-probability and induced-regularity experiments, each cross-checked
against an exact dynamic program where one exists. `_after_table`, the
table of neighbours among the ids still to decide, also serves the
boost's dense-subset search (`regularize._dense_search`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError, SizeCapError
from .graph import Graph, Real, as_fraction
from .instances import p_bar
from .peeling import peel_min

VERTEX_CAP = 24            # exact_f and the gnpbar-scan experiment
MC_CHUNK = 1 << 15         # Monte Carlo rows drawn at once, at most,
MC_CHUNK_CELLS = 1 << 20   # and draws at once (8 MiB), unless one row has more
# Stand-ins for the unspecified absolute constants of the probabilistic
# estimates: the point-probability cap C0_CAP / sqrt(t) and the
# induced-regularity reference n * (C1_CAP / k)^(k/2). Comparisons against
# them are calibration checks, never verified claims.
C0_CAP = 3.0
C1_CAP = 16.0


class OracleResult(NamedTuple):
    """Exact optimum: its value, one witness achieving it (the
    lexicographically least of the largest sets), and how many nodes the
    search visited (0 when the whole graph is the answer)."""

    value: int
    witness: frozenset
    explored: int


def _after_table(n: int, nbrs: list) -> list:
    """Row pos: the neighbours of each vertex among the ids pos..n-1."""
    after = [[len(row) for row in nbrs]]  # row pos drops ids below pos
    for row in nbrs:
        after.append(after[-1][:])
        for u in row:
            after[-1][u] -= 1
    return after


def _nearly_regular_suffix(g: Graph, nbrs: list, c_num: int,
                           c_den: int) -> int:
    """Size of the largest suffix of the smallest-last order whose maximum
    degree is at most c = c_num / c_den times its minimum degree: one
    reverse pass adds the vertices back, last deleted first, and keeps
    each suffix's maximum degree; its minimum is the degree its first
    vertex had when deleted. ``nbrs`` are the neighbour lists of ``g``."""
    steps = peel_min(g)
    deg = [0] * g.n
    placed = bytearray(g.n)
    top = size = 0
    for i in range(g.n - 1, -1, -1):
        v, least = steps[i].vertex, steps[i].degree
        placed[v] = 1
        deg[v] = least
        for u in nbrs[v]:
            if placed[u]:
                deg[u] += 1
                if deg[u] > top:
                    top = deg[u]
        if least > top:
            top = least
        if top * c_den <= c_num * least:
            size = g.n - i
    return size


def exact_f(g: Graph, c: Real) -> OracleResult:
    """Largest induced c-nearly regular subgraph, by one include-first
    branch and bound over ascending ids that maximises the size. Graphs
    above ``VERTEX_CAP`` vertices raise ``SizeCapError``.

    ``best`` is the largest size known to hold a valid set. It starts one
    below L, the size of the largest nearly regular suffix of the
    smallest-last order (`_nearly_regular_suffix`), so every set of size
    at least L stays in reach; when L is n the whole graph is the answer
    and no node is searched. A node whose chosen set is valid and larger
    than ``best`` records it. The chosen vertices' largest degree,
    best_max, is a floor on any completion's maximum degree, and the
    smallest degree any of them can still reach (counting every id still
    to decide), worst_hi, a ceiling on its minimum; so every degree of a
    completion lies in the window [best_max / c, c * worst_hi]. A node
    dies when it cannot hold a valid set larger than ``best``:
    - the spread test: best_max exceeds c * worst_hi;
    - the viability bound: fewer than best + 1 - |chosen| of the ids still
      to decide can end with a degree inside the window.
    A node takes its id only when that id can end inside the window, as
    the spread test would end the child that takes it. All bounds are
    compared in integers. No node is cut that holds a valid set larger
    than ``best``, and sets of one size are met in lexicographic order, so
    the first set of the largest size recorded is the lexicographically
    least; ``explored`` counts the nodes.
    """
    if g.n > VERTEX_CAP:
        raise SizeCapError(f"instance exceeds the size cap {VERTEX_CAP}")
    cf = as_fraction(c)
    if cf < 1:
        raise PreconditionError("c must be >= 1")
    c_num, c_den = cf.numerator, cf.denominator
    n, nbrs = g.n, g.neighbor_lists()
    best = _nearly_regular_suffix(g, nbrs, c_num, c_den)
    if best == n:
        return OracleResult(n, frozenset(range(n)), 0)
    best -= 1
    after = _after_table(n, nbrs)
    inner = [0] * n
    chosen: list = []
    witness: tuple = ()
    explored = 0

    def dfs(pos: int) -> None:
        nonlocal best, witness, explored
        explored += 1
        size = len(chosen)
        need = best + 1 - size  # ids still to pick to beat best
        if n - pos < need:
            return
        if chosen:
            free = after[pos]
            best_max = least = inner[chosen[0]]
            worst_hi = n
            for v in chosen:
                cur = inner[v]
                if cur > best_max:
                    best_max = cur
                elif cur < least:
                    least = cur
                hi = cur + free[v]
                if hi < worst_hi:
                    worst_hi = hi
            if need <= 0 and best_max * c_den <= c_num * least:
                best, witness, need = size, tuple(chosen), 1
            # some chosen vertex is forced above c times the minimum
            if best_max * c_den > c_num * worst_hi:
                return
            # Every degree of a completion lies in [lo, hi], and a vertex u
            # still to decide ends between inner[u] and inner[u] + free[u].
            lo = -(-best_max * c_den // c_num)
            hi = c_num * worst_hi // c_den
            # Viability: the count stops as soon as need ids fit, or more
            # than the n - pos - need spare ones miss.
            if need > 0:
                spare = n - pos - need
                for u in range(pos, n):
                    cur = inner[u]
                    if cur <= hi and cur + free[u] >= lo:
                        need -= 1
                        if not need:
                            break
                    else:
                        spare -= 1
                        if spare < 0:
                            return
        if pos == n:
            return
        # an id that cannot end inside the window is not taken: the spread
        # test would end the child that takes it
        if not chosen or inner[pos] <= hi and inner[pos] + free[pos] >= lo:
            chosen.append(pos)
            for u in nbrs[pos]:
                inner[u] += 1
            dfs(pos + 1)
            for u in nbrs[pos]:
                inner[u] -= 1
            chosen.pop()
        dfs(pos + 1)

    dfs(0)
    return OracleResult(best, frozenset(witness), explored)


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
    ps = np.array([float(p) for p in p_bar(n, k)])
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
    # a degree is at most k - 1: summed as bytes into the least unsigned
    # type that holds k - 1, where a sum of bools would widen to int64
    degree_type = np.min_scalar_type(k - 1)

    def regular(draws):
        degrees = draws[:, incident].view(np.uint8).reshape(
            len(draws), k, k - 1).sum(axis=2, dtype=degree_type)
        return (degrees == degrees[:, :1]).all(axis=1)

    return _mc_fraction(probs, trials, seed, regular)
