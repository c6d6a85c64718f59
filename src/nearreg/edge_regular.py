"""Edge-version extraction: bipartite halving, nested tight sets with
pairwise edge-disjoint perfect matchings, the cascade pipeline that turns
them into a 5-nearly regular subgraph with many edges, and the ceil(m/n)
matching guarantee, returned as a result that carries its checked ledger.

Every matching here comes from one exact augmenting-path search,
Edmonds' blossom algorithm, run iteratively with no size cap and rooted
in ascending id: the ceil(m/n) matching is a maximum matching of the whole
graph, rooted at each still-free vertex, and each cascade round roots its
candidates on the bipartite residual graph, where no blossom ever forms.
The searches of one driver (a maximum matching, or a whole cascade) share
one workspace of search arrays; each search resets only the entries it
touched, so a search that fails after two steps costs two steps.

The maximum matching runs no search that must fail, and so gives the
matching that a search from every free vertex gives. An augmenting path
joins two free vertices of one connected component (Berge 1957), and no
vertex whose own search failed ends one, so a root that is the last
untried free vertex of its component has none. The tree of a failed
search stays Hungarian through later augmentations, so no augmenting
path enters it (Edmonds 1965), and a root whose neighbours all lie in
such trees has none either: an isolated root never searches.

A tight set is a subset S of the candidate side with |N(S)| <= |S| in the
residual graph. Inclusion-minimal tight sets are what carry a perfect
matching, and minimality is found through matching structure: saturate the
candidates (shrinking along alternating reachability if needed), orient
each residual edge toward the matched partner of its endpoint, and take a
sink strongly connected component. A plain single-pass greedy deletion can
return a non-minimal set (two disjoint tight blocks survive it), which
would break the perfect-matching step downstream.

Every forward search of a round is one frontier search of whole rows,
with no per-arc Python (`_closure`): the alternating reachability that
shrinks the candidates, and the first half of the sink proof. The sink
taken is the one holding the least vertex u0; when u0 lies in one, a
backward frontier search over the side-B rows, which list side-A
neighbours, proves it by reaching all of u0's closure. Only otherwise
are the arcs listed and the sinks found by an iterative Tarjan. On dense
graphs every round is settled by the proof. Most augmenting searches of
either driver end at once too, and this own-row shortcut is each
driver's greedy step: a free vertex in the root's own row is matched to
it without touching the search arrays.

The cascade does not rebuild the residual graph between rounds. The
halved graph is itself a CSR `Graph` on the host's ids, so its ascending
neighbour lists are the cascade's rows: each side-A vertex's row holds
its side-B neighbours, and each side-B vertex's row its side-A
neighbours. After each round each matched pair of S leaves the other's
row; the next round's candidates are S, whose rows then hold exactly
their residual edges, so only their count is kept.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .errors import BoundViolationError, PreconditionError
from .graph import (
    BoundCheck,
    ExtractionResult,
    Graph,
    _csr,
    _offsets,
    _row_ids,
    check,
    degree_stats,
    induced,
    normalize_edge,
    require_bounds,
)
from .peeling import prop21_refine, threshold_core


class Bipartition(NamedTuple):
    """A two-sided split of a host graph's vertices, and ``graph``, the
    kept cross edges as a graph on the host's ids. From `bipartite_half`,
    side A is the larger side and every vertex keeps at least half of its
    host degree."""

    side_a: frozenset
    side_b: frozenset
    graph: Graph


def bipartite_half(g: Graph) -> Bipartition:
    """Spanning bipartite subgraph via local switching from the even/odd
    split: while some vertex has strictly more neighbours on its own side
    than across, move the lowest-id such vertex (found through a heap of
    violating ids). The cut grows every move, so this terminates with every
    vertex keeping >= half its degree. The starting own/cross counts and
    the kept graph come from the CSR arrays at once: its entries are the
    host's entries that cross the cut, in the host's order. Each vertex's
    neighbour list is computed once and serves every move."""
    n = g.n
    nbrs = g.neighbor_lists()
    row = _row_ids(g)
    deg = np.diff(g.indptr)
    own_start = np.bincount(row[((row ^ g.indices) & 1) == 0], minlength=n)
    own = own_start.tolist()
    cross = (deg - own_start).tolist()
    side = [v & 1 for v in range(n)]  # 0 = even start, 1 = odd start
    # every violating vertex has an entry here; a vertex turns violating only
    # when its own count rises, and then gets one (ascending: already a heap)
    heap = np.flatnonzero(own_start > deg - own_start).tolist()
    while heap:
        mover = heapq.heappop(heap)
        if own[mover] <= cross[mover]:
            continue  # stale: no longer violating
        side[mover] = 1 - side[mover]
        own[mover], cross[mover] = cross[mover], own[mover]
        for u in nbrs[mover]:
            if side[u] == side[mover]:
                own[u] += 1
                cross[u] -= 1
                if own[u] > cross[u]:
                    heapq.heappush(heap, u)
            else:
                own[u] -= 1
                cross[u] += 1
    assert all(map(int.__ge__, cross, own)), \
        "switching exited with a violating vertex"
    sides = np.array(side, dtype=np.int64)
    zeros = frozenset(np.flatnonzero(sides == 0).tolist())
    ones = frozenset(np.flatnonzero(sides).tolist())
    side_a, side_b = (zeros, ones) if len(zeros) >= len(ones) else (ones, zeros)
    cut = sides[row] != sides[g.indices]
    return Bipartition(side_a, side_b,
                       _csr(_offsets(n), row[cut], g.indices[cut]))


_INNER, _OUTER = 1, 2  # search-tree labels; 0 means not yet reached


def _workspace(k: int) -> tuple:
    """Search arrays for ``_augment_from`` on vertices 0..k-1, at their
    reset values: ``label`` 0, ``link`` -1, ``base`` the vertex itself (each
    vertex its own blossom) and ``seen`` 0."""
    return [0] * k, [-1] * k, list(range(k)), [0] * k


def _max_matching(nbrs: list) -> list:
    """Maximum matching of the graph on vertices 0..k-1 whose ascending
    neighbour lists are ``nbrs``; returns each vertex's mate, -1 if none.

    Each still-free vertex, in ascending id, roots one augmenting-path
    search; all of them share one workspace. A root with a free neighbour
    takes the lowest-id one, so most searches are a greedy step. A vertex
    with no augmenting path never gains one through later augmentations,
    so one pass over the roots leaves a maximum matching.

    A root whose search must fail is skipped: that search would leave
    ``mate`` as it was, so the matching is the one every search gives. Two
    facts prove the failure. (a) An augmenting path joins two free
    vertices of one connected component (Berge 1957), and neither end is a
    vertex whose search failed or was skipped, so a root that is the last
    live vertex of its component (free, and neither failed nor skipped)
    has none. The live counts come from `_live_components`, built once,
    after the first root that stays free; an augmentation takes two off
    its component's count, a failure or a skip one. Until then every root
    was matched, so a graph in which every root is matched builds no
    table. (b) The tree of a failed search stays Hungarian through later
    augmentations, so no augmenting path enters it (Edmonds 1965): a root
    whose neighbours all lie in such trees has none, and neither has an
    isolated root, which is skipped even before the table is built.
    """
    mate = [-1] * len(nbrs)
    ws = _workspace(len(nbrs))
    dead: set = set()  # every vertex labelled by a failed search
    roots = iter(range(len(nbrs)))
    for root in roots:  # until the first root that stays free
        if mate[root] < 0 and not (
                nbrs[root] and _augment_from(root, nbrs, mate, ws, dead)):
            break
    else:
        return mate
    comp, live = _live_components(nbrs, mate, root + 1)
    for root in roots:
        if mate[root] >= 0:
            continue
        c = comp[root]
        if (live[c] > 1 and not dead.issuperset(nbrs[root])
                and _augment_from(root, nbrs, mate, ws, dead)):
            live[c] -= 2  # the root and the free end of its path
        else:
            live[c] -= 1
    return mate


def _live_components(nbrs: list, mate: list, first: int) -> tuple:
    """``(comp, live)``: the connected components of the graph whose
    neighbour lists are ``nbrs`` that hold a free vertex of id ``first``
    or more, numbered in the order of their least such vertex; ``comp``
    gives each of their vertices its component's number (-1 elsewhere) and
    ``live`` each component's count of those free vertices. One
    breadth-first search per component, over each arc once."""
    comp = [-1] * len(nbrs)
    live: list = []
    for v in range(first, len(nbrs)):
        if mate[v] >= 0:
            continue
        c = comp[v]
        if c < 0:
            c = comp[v] = len(live)
            live.append(0)
            queue = [v]
            for u in queue:  # the list grows while it is walked
                for w in nbrs[u]:
                    if comp[w] < 0:
                        comp[w] = c
                        queue.append(w)
        live[c] += 1
    return comp, live


def _augment_from(root: int, nbrs: list, mate: list, ws: tuple,
                  dead: set | None = None) -> bool:
    """Edmonds' blossom search from the free vertex ``root``: a FIFO
    breadth-first search that scans neighbours in list order and shrinks
    each odd cycle it closes (a blossom) into the cycle's base. Flips the
    first augmenting path found into ``mate`` and returns whether there was
    one. Every loop is iterative, so path length is no limit.

    ``ws`` is a ``_workspace`` shared by the searches of one driver. Only
    the entries of vertices the search labels are ever written, and those
    are put back to their reset values before returning, so a search costs
    the part of the graph it reaches, not O(k).

    A free vertex in the root's own row is matched to the root at once,
    without touching ``ws``: the search scans that row before any queued
    vertex and labels no other free vertex before, so the first free
    neighbour is exactly the edge it would flip.

    A search that fails adds every vertex it labelled to ``dead``, if
    given, before it resets ``ws``: they form a Hungarian tree, which no
    later augmenting path of the same matching enters (Edmonds 1965).
    """
    for u in nbrs[root]:
        if mate[u] < 0:
            mate[root], mate[u] = u, root
            return True
    label, link, base, seen = ws
    queue = [root]  # the outer vertices, in the order they are searched
    inner: list = []  # queue and inner hold every vertex the search labels
    label[root] = _OUTER
    stamp = 0

    def find(v: int) -> int:
        top = v
        while base[top] != top:
            top = base[top]
        while base[v] != top:
            base[v], v = top, base[v]
        return top

    def common_base(a: int, b: int) -> int:
        # Walk both tree paths toward the root, alternating, until one
        # reaches a blossom base the other has already passed.
        nonlocal stamp
        stamp += 1
        a, b = find(a), find(b)
        while True:
            if a >= 0:
                if seen[a] == stamp:
                    return a
                seen[a] = stamp
                a = find(link[mate[a]]) if mate[a] >= 0 else -1
            a, b = b, a

    def shrink(a: int, b: int, top: int) -> None:
        # Merge the path from outer vertex a up to the base ``top`` into
        # one blossom; its inner vertices become outer and are searched.
        while find(a) != top:
            link[a] = b
            b = mate[a]
            if label[b] == _INNER:
                label[b] = _OUTER
                queue.append(b)
            if find(a) == a:
                base[a] = top
            if find(b) == b:
                base[b] = top
            a = link[b]

    # Until the first blossom shrinks, ``find`` is the identity, and two
    # distinct vertices never share a blossom: the walk is skipped.
    shrunk = False
    try:
        for v in queue:  # the list grows while it is walked: FIFO order
            for u in nbrs[v]:
                lab = label[u]
                if lab == _INNER or (shrunk and find(u) == find(v)):
                    continue
                if lab == _OUTER:
                    shrunk = True
                    top = common_base(v, u)
                    shrink(v, u, top)
                    shrink(u, v, top)
                    continue
                label[u], link[u] = _INNER, v
                inner.append(u)
                w = mate[u]
                if w < 0:
                    while u >= 0:
                        w = link[u]
                        after = mate[w]
                        mate[u], mate[w] = w, u
                        u = after
                    return True
                label[w] = _OUTER
                queue.append(w)
        if dead is not None:
            dead.update(queue, inner)
        return False
    finally:
        for v in chain(queue, inner):
            label[v], link[v], base[v], seen[v] = 0, -1, v, 0


def _sink_components(nodes: list, succ: list) -> list:
    """Sink strongly connected components (no arc leaves them) of the
    digraph on ``nodes`` whose arcs are ``succ[v]``, a list indexed by
    vertex id that must stay inside ``nodes``. Iterative Tarjan on
    id-indexed arrays. An arc leaves its tail's component exactly when its
    head's component was emitted first: it ends at a vertex already off the
    stack, or at a tree child whose component closed on the way back."""
    k = len(succ)
    index = [-1] * k  # discovery number; -1 means not yet visited
    low = [0] * k
    comp = [-1] * k  # component number; visited with -1 means on the stack
    exits = [False] * k  # some arc of the vertex leaves its component
    stack: list = []
    sinks: list = []
    counter = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] >= 0:
                    exits[v] = True
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = index[v]
                        members.append(w)
                        if w == v:
                            break
                    if not any(exits[w] for w in members):
                        sinks.append(members)
                if work:
                    parent = work[-1][0]
                    if comp[v] >= 0:
                        exits[parent] = True
                    elif low[v] < low[parent]:
                        low[parent] = low[v]
    return sinks


def _closure(u0: int, rows: list, mate: list) -> tuple:
    """``(F, N(F))``: the side-A vertices ``u0`` reaches by alternating
    paths, residual edge a-b then b's matched edge to mate[b], and their
    side-B neighbours. A frontier search over whole rows: every step is a
    set union or difference, with no per-arc Python. Every b it reaches
    must be matched; an unmatched one would end an augmenting path."""
    reach, nbhd = {u0}, set()
    frontier = {u0}
    while frontier:
        new_b = set().union(*map(rows.__getitem__, frontier))
        new_b -= nbhd
        nbhd |= new_b
        frontier = set(map(mate.__getitem__, new_b))
        if -1 in frontier:
            raise BoundViolationError(
                "augmenting path escaped a maximum matching")
        frontier -= reach
        reach |= frontier
    return reach, nbhd


def _sink_holding(u0: int, rows: list, mate: list):
    """``(S, N(S))`` if ``u0`` lies in a sink component S of the
    orientation a -> mate[b] of each residual edge a-b, else None.

    u0's component is the part of its `_closure` F that reaches u0 back
    over the rows of the partners, which list their side-A neighbours; it
    is a sink iff it is all of F."""
    reach, nbhd = _closure(u0, rows, mate)
    back = {u0}
    frontier = [u0]
    while frontier and len(back) < len(reach):
        pred = set().union(*(rows[mate[a]] for a in frontier))
        pred &= reach
        pred -= back
        back |= pred
        frontier = pred
    return (reach, nbhd) if len(back) == len(reach) else None


def _tight_round(rows: list, cand: list, ws: tuple) -> tuple:
    """One tight-set round on the residual graph given by ``rows``, a list
    indexed by vertex id in which each candidate's entry is its ascending
    list of side-B neighbours and each side-B vertex's entry lists its
    residual side-A neighbours (other side-A vertices may appear there
    too). ``cand`` is the ascending candidate list, nonempty, tight and
    with no empty row, and ``ws`` a ``_workspace`` over ``len(rows)``
    vertices. Returns ``(S, N(S), M_S, mate)``, with ``mate`` the round's
    matching."""
    # Match the candidates one at a time in ascending id. Which candidate
    # first fails to join the lower ones depends only on the graph, not on
    # the paths the search picks, so neither does the tight set below.
    mate = [-1] * len(rows)
    a0 = next((a for a in cand if not _augment_from(a, rows, mate, ws)),
              None)
    universe = cand
    if a0 is not None:
        # Shrink to the matched part of the alternating-reachability set of
        # a0; its neighbourhood equals its partner set, which is what the
        # orientation step below needs.
        universe = sorted(_closure(a0, rows, mate)[0] - {a0})
        if not universe:
            raise BoundViolationError("tight candidate shrank to nothing")
    # Orient each residual edge a-b toward b's partner: a -> mate[b], and
    # take the sink component holding the least vertex.
    node_set = set(universe)
    found = _sink_holding(universe[0], rows, mate)
    if found is not None:
        chosen, neighbourhood = found
        if not node_set.issuperset(chosen):
            raise BoundViolationError("orientation left the matched universe")
    else:  # the least vertex is in no sink: list the sinks by Tarjan
        succ: list = [()] * len(rows)
        for a in universe:
            out = list(map(mate.__getitem__, rows[a]))
            out.remove(a)  # the arc through a's own partner
            if not node_set.issuperset(out):
                raise BoundViolationError(
                    "orientation left the matched universe")
            succ[a] = out
        chosen = min(_sink_components(universe, succ), key=min)
        neighbourhood = set().union(*(rows[a] for a in chosen))
    # A sink component's neighbours are all matched inside it, so the
    # matching restricted to it is perfect onto N(S).
    matching = frozenset(map(normalize_edge, chosen,
                             map(mate.__getitem__, chosen)))
    return frozenset(chosen), frozenset(neighbourhood), matching, mate


class CascadeState(NamedTuple):
    """Rounds of the tight-set cascade: nested (A_i, B_i) pairs, pairwise
    edge-disjoint perfect matchings M_i, and ``residual_edges``, the number
    of kept edges in no M_i."""

    sets: list
    matchings: list
    residual_edges: int

    @property
    def rounds(self) -> int:
        return len(self.matchings)


def matching_cascade(bp: Bipartition, rounds: int) -> CascadeState:
    """Run ``rounds`` iterations of minimal-tight-set extraction, deleting
    each tight set's perfect matching from the residual graph.

    A round's S is an inclusion-minimal nonempty subset of its candidates
    (side A, then the previous round's S) with |N(S)| <= |S| in the
    residual graph, returned with a perfect matching of S onto N(S) made
    of residual edges. Ties resolve toward low ids: if some candidate
    cannot be matched together with all lower ones, S is drawn from the
    lower candidates that the first such candidate competes with; among
    the minimal sets found, S is the one holding the smallest id.

    The sides must be disjoint and hold only vertices of ``bp.graph``, every
    edge of which must join side A to side B; side A must be tight (with
    every side-B vertex covered, side B no larger), and the kept graph needs
    minimum degree >= rounds: every matching lowers the degrees inside the
    surviving tight set by exactly one, so the process provably completes
    all requested rounds. A breach is refused before any matching.

    The residual graph is kept across rounds as the module docstring
    describes, in the rows of both sides read from ``bp.graph``. All
    rounds share one search workspace. The residual edge count is the kept
    edges less the matched ones: each M_i is made of residual edges.
    """
    if rounds < 0:
        raise PreconditionError("rounds must be >= 0")
    g = bp.graph
    if any(side and not (0 <= min(side) and max(side) < g.n)
           for side in (bp.side_a, bp.side_b)):
        raise PreconditionError("a side names a vertex outside the graph")
    if bp.side_a & bp.side_b:
        raise PreconditionError("a vertex lies on both sides")
    side = np.zeros(g.n, np.int8)
    side[list(bp.side_a)] = 1
    side[list(bp.side_b)] = 2
    if (side[_row_ids(g)] + side[g.indices] != 3).any():  # 3 = 1 + 2
        raise PreconditionError("an edge does not join side A to side B")
    sets: list = []
    matchings: list = []
    if rounds > 0:
        deg = g.degrees()
        min_deg = min(map(deg.__getitem__, chain(bp.side_a, bp.side_b)),
                      default=0)
        if min_deg < rounds:
            raise PreconditionError(
                f"minimum kept degree {min_deg} is below {rounds} rounds")
        if len(bp.side_b) > len(bp.side_a):
            raise PreconditionError(
                f"side A is not tight: side B has {len(bp.side_b)} vertices, "
                f"side A {len(bp.side_a)}")
        rows = g.neighbor_lists()
        ws = _workspace(len(rows))
        cand = sorted(bp.side_a)
        for _ in range(rounds):
            s, t, matching, mate = _tight_round(rows, cand, ws)
            if sets and not s <= sets[-1][0]:
                raise BoundViolationError("tight sets stopped nesting")
            if len(s) != len(t) or len(matching) != len(s):
                raise BoundViolationError("tight pair sizes diverged")
            for a in s:
                b = mate[a]
                rows[a].remove(b)
                rows[b].remove(a)
            sets.append((s, t))
            matchings.append(matching)
            cand = sorted(s)
    return CascadeState(sets, matchings, g.m - sum(map(len, matchings)))


def theorem41(g: Graph) -> tuple:
    """Full edge-version pipeline: keep the core at half the average degree
    (`threshold_core`), take the bipartite half, cascade d'/4 matchings (d'
    the largest power of two at most the average degree d), then either
    return the first matching or refine the union of a geometric block of
    matchings.

    Returns ``(result, cascade)``, the extraction and the cascade state. The
    output is 5-nearly regular; the ceil(d^2/4096) edge guarantee is
    enforced when d >= 64 and reported best-effort below that.
    """
    st = degree_stats(g)
    d = st.avg_deg
    if d <= 0:
        raise PreconditionError("needs at least one edge")
    full_guarantee = d >= 64
    g1, host_of = induced(g, compress(range(g.n),
                                      threshold_core(g, d / 2)[0]))
    bp = bipartite_half(g1)
    dprime = 1 << max(int(d).bit_length() - 1, 0)  # at most d, or 1
    rounds = dprime // 4 if dprime >= 4 else 1
    cascade = matching_cascade(bp, rounds)

    def set_size(k: int) -> int:
        return len(cascade.sets[k - 1][0])

    case2_i = None
    for i in range(int(math.log2(dprime)) - 3):
        if set_size(dprime >> (i + 4)) <= 2 * set_size(dprime >> (i + 3)):
            case2_i = i
            break
    if case2_i is None:
        chosen_edges = cascade.matchings[0]
        case_tag = "case1"
    else:
        lo = dprime >> (case2_i + 4)
        hi = dprime >> (case2_i + 3)
        block_vertices = cascade.sets[lo - 1][0] | cascade.sets[lo - 1][1]
        block_edges = set().union(*cascade.matchings[lo - 1:hi - 1])
        hgraph, order = induced(Graph.from_edges(g1.n, block_edges),
                                block_vertices)
        assert hgraph.m == len(block_edges), "matchings left the block"
        kept = {order[v] for v in prop21_refine(hgraph, 2, 0.4).vertices}
        chosen_edges = frozenset(
            (u, v) for u, v in block_edges if u in kept and v in kept)
        case_tag = "case2"
    host_edges = frozenset((host_of[u], host_of[v]) for u, v in chosen_edges)
    tag = f"Thm4.1-{case_tag}"
    if not full_guarantee:
        tag += " no-guarantee"
    result = ExtractionResult.from_edge_subgraph(host_edges, tag)
    edge_thr = math.ceil(d * d / 4096)
    if full_guarantee:
        edges_check = check("Thm4.1-edges", len(host_edges), ">=", edge_thr)
    else:  # d < 64: the edge count is reported, not guaranteed
        edges_check = BoundCheck("Thm4.1-edges", edge_thr, len(host_edges),
                                 True)
    checks = require_bounds("theorem41", [
        check("Thm4.1-ratio", result.ratio, "<=", Fraction(5)), edges_check])
    return result._replace(bounds=checks), cascade


def matching_lower_bound(g: Graph) -> ExtractionResult:
    """A maximum matching of ``g``, which has at least ceil(m/n) edges:
    by Vizing's theorem the edges split into Delta + 1 <= n matchings.
    Returns it as a ``Matching-lower-bound`` result whose ledger holds the
    checked ``Matching-size`` entry.

    Found exactly, for graphs of any size, by Edmonds' blossom algorithm;
    the size check only guards against a bug in it. No search runs that
    must fail (`_max_matching`): none from the last untried free vertex
    of a connected component, which no augmenting path can end at (Berge
    1957), nor from a vertex whose neighbours all lie in the Hungarian
    tree of a failed search, which no later augmenting path enters
    (Edmonds 1965).
    """
    best = frozenset()
    if g.m:
        mate = _max_matching(g.neighbor_lists())
        best = frozenset((v, u) for v, u in enumerate(mate) if v < u)
    checks = require_bounds("matching_lower_bound", [
        check("Matching-size", len(best), ">=", -(-g.m // g.n) if g.n else 0)])
    return ExtractionResult.from_edge_subgraph(
        best, "Matching-lower-bound", checks)
