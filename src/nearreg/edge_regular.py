"""Edge-version extraction: bipartite halving, nested tight sets with
pairwise edge-disjoint perfect matchings, the cascade pipeline that turns
them into a 5-nearly regular subgraph with many edges, and the ceil(m/n)
matching guarantee.

Every matching here comes from one exact augmenting-path search,
Edmonds' blossom algorithm, run iteratively with no size cap: the
ceil(m/n) matching is a maximum matching of the whole graph, and each
cascade round matches its candidates in ascending id on the bipartite
residual graph, where no blossom ever forms.

A tight set is a subset S of the candidate side with |N(S)| <= |S| in the
residual graph. Inclusion-minimal tight sets are what carry a perfect
matching, and minimality is found through matching structure: saturate the
candidates (shrinking along alternating reachability if needed), orient
each residual edge toward the matched partner of its endpoint, and take a
sink strongly connected component. A plain single-pass greedy deletion can
return a non-minimal set (two disjoint tight blocks survive it), which
would break the perfect-matching step downstream.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    BoundViolationError,
    HallViolationError,
    PreconditionError,
)
from .graph import (
    BoundCheck,
    ExtractionResult,
    Graph,
    bit_indices,
    check,
    degree_stats,
    induced,
    normalize_edge,
    require_bounds,
)
from .peeling import peel_below, prop21_refine


@dataclass(frozen=True)
class Bipartition:
    """A two-sided split of a host graph's vertices with the kept cross
    edges; every vertex keeps at least half of its host degree."""

    side_a: frozenset
    side_b: frozenset
    edges: frozenset


def bipartite_half(g: Graph) -> Bipartition:
    """Spanning bipartite subgraph via local switching from the even/odd
    split: while some vertex has strictly more neighbours on its own side
    than across, move the lowest-id such vertex. The cut grows every move,
    so this terminates with every vertex keeping >= half its degree."""
    n = g.n
    side = [v & 1 for v in range(n)]  # 0 = even start, 1 = odd start
    cross = [0] * n
    own = [0] * n
    for v in range(n):
        for u in bit_indices(g.adj[v]):
            if side[u] == side[v]:
                own[v] += 1
            else:
                cross[v] += 1
    while True:
        mover = next((v for v in range(n) if own[v] > cross[v]), None)
        if mover is None:
            break
        side[mover] = 1 - side[mover]
        own[mover], cross[mover] = cross[mover], own[mover]
        for u in bit_indices(g.adj[mover]):
            if side[u] == side[mover]:
                own[u] += 1
                cross[u] -= 1
            else:
                own[u] -= 1
                cross[u] += 1
    zeros = frozenset(v for v in range(n) if side[v] == 0)
    ones = frozenset(range(n)) - zeros
    side_a, side_b = (zeros, ones) if len(zeros) >= len(ones) else (ones, zeros)
    kept = frozenset(normalize_edge(u, v) for u, v in g.edges()
                     if side[u] != side[v])
    for v in range(n):
        assert cross[v] >= own[v], "switching exited with a violating vertex"
    return Bipartition(side_a, side_b, kept)


_INNER, _OUTER = 1, 2  # search-tree labels; 0 means not yet reached


def _max_matching(nbrs: list) -> list:
    """Maximum matching of the graph on vertices 0..k-1 whose ascending
    neighbour lists are ``nbrs``; returns each vertex's mate, -1 if none.

    A greedy pass seeds the matching: each free vertex, in ascending id,
    takes its lowest-id free neighbour. Then each still-free vertex, in
    ascending id, roots one augmenting-path search. A vertex with no
    augmenting path never gains one through later augmentations, so one
    pass over the roots leaves a maximum matching.
    """
    mate = [-1] * len(nbrs)
    for v, row in enumerate(nbrs):
        if mate[v] < 0:
            u = next((u for u in row if mate[u] < 0), -1)
            if u >= 0:
                mate[v], mate[u] = u, v
    for root in range(len(nbrs)):
        if mate[root] < 0:
            _augment_from(root, nbrs, mate)
    return mate


def _augment_from(root: int, nbrs: list, mate: list) -> bool:
    """Edmonds' blossom search from the free vertex ``root``: a FIFO
    breadth-first search that scans neighbours in list order and shrinks
    each odd cycle it closes (a blossom) into the cycle's base. Flips the
    first augmenting path found into ``mate`` and returns whether there was
    one. Every loop is iterative, so path length is no limit."""
    k = len(nbrs)
    label = [0] * k
    link = [-1] * k  # edge an augmenting path would use to enter the vertex
    base = list(range(k))  # union-find forest: blossom each vertex lies in
    seen = [0] * k
    stamp = 0
    queue = deque([root])
    label[root] = _OUTER

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

    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if label[u] == _INNER or find(u) == find(v):
                continue
            if label[u] == _OUTER:
                top = common_base(v, u)
                shrink(v, u, top)
                shrink(u, v, top)
                continue
            label[u], link[u] = _INNER, v
            if mate[u] < 0:
                while u >= 0:
                    w = link[u]
                    after = mate[w]
                    mate[u], mate[w] = w, u
                    u = after
                return True
            label[mate[u]] = _OUTER
            queue.append(mate[u])
    return False


def _strongly_connected(nodes: list, succ: dict) -> list:
    """Iterative Tarjan; nodes and successor lists must be pre-sorted."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            descended = False
            children = succ[v]
            while ptr < len(children):
                w = children[ptr]
                ptr += 1
                work[-1] = (v, ptr)
                if w not in index:
                    work.append((w, 0))
                    descended = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def min_tight_set(bp: Bipartition, residual_edges: Iterable,
                  candidates: Optional[frozenset] = None) -> tuple:
    """Inclusion-minimal nonempty S within the candidate side satisfying
    |N(S)| <= |S| in the residual graph; returns (S, N(S), M_S) with M_S a
    perfect matching of S onto N(S) made of residual edges.

    Requires the candidate set itself to be tight and free of isolated
    vertices. Ties resolve toward low ids: if some candidate cannot be
    matched together with all lower ones, S is drawn from the lower
    candidates that the first such candidate competes with; among the
    minimal sets found, S is the one containing the smallest vertex id.
    """
    cand = sorted(candidates if candidates is not None else bp.side_a)
    if not cand:
        raise PreconditionError("empty candidate set")
    cand_set = set(cand)
    nbrs: list = [[] for _ in range(1 + max(bp.side_a | bp.side_b))]
    for u, v in residual_edges:
        a, b = (u, v) if u in cand_set else (v, u)
        if a in cand_set and b in bp.side_b:
            nbrs[a].append(b)
            nbrs[b].append(a)
    for row in nbrs:
        row.sort()
    for a in cand:
        if not nbrs[a]:
            raise PreconditionError(f"candidate {a} has no residual edge")
    if len({b for a in cand for b in nbrs[a]}) > len(cand):
        raise PreconditionError("candidate set is not tight")
    # Match the candidates one at a time in ascending id. Which candidate
    # first fails to join the lower ones depends only on the graph, not on
    # the paths the search picks, so neither does the tight set below.
    mate = [-1] * len(nbrs)
    a0 = next((a for a in cand if not _augment_from(a, nbrs, mate)), None)
    universe = cand
    if a0 is not None:
        # Shrink to the matched part of the alternating-reachability set of
        # a0; its neighbourhood equals its partner set, which is what the
        # orientation step below needs.
        reach_a = {a0}
        reach_b: set = set()
        frontier = [a0]
        while frontier:
            a = frontier.pop()
            for b in nbrs[a]:
                if b in reach_b:
                    continue
                reach_b.add(b)
                owner = mate[b]
                if owner < 0:
                    raise HallViolationError(
                        "augmenting path escaped a maximum matching")
                if owner not in reach_a:
                    reach_a.add(owner)
                    frontier.append(owner)
        universe = sorted(reach_a - {a0})
        if not universe:
            raise HallViolationError("tight candidate shrank to nothing")
    node_set = set(universe)
    succ = {}
    for a in universe:
        out = {mate[b] for b in nbrs[a]} - {a}
        if not out <= node_set:
            raise HallViolationError("orientation left the matched universe")
        succ[a] = sorted(out)
    sccs = _strongly_connected(universe, succ)
    comp_of = {}
    for idx, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = idx
    sinks = []
    for idx, comp in enumerate(sccs):
        if all(comp_of[w] == idx for v in comp for w in succ[v]):
            sinks.append(comp)
    chosen = min(sinks, key=min)
    # A sink component's neighbours are all matched inside it, so the
    # matching restricted to it is perfect onto N(S).
    neighbourhood = frozenset(b for a in chosen for b in nbrs[a])
    matching = frozenset(normalize_edge(a, mate[a]) for a in chosen)
    return frozenset(chosen), neighbourhood, matching


@dataclass
class CascadeState:
    """Rounds of the tight-set cascade: nested (A_i, B_i) pairs, pairwise
    edge-disjoint perfect matchings M_i, and the residual edges left."""

    bp: Bipartition
    sets: list
    matchings: list
    residual: frozenset

    @property
    def rounds(self) -> int:
        return len(self.matchings)

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "set_sizes": [[len(a), len(b)] for a, b in self.sets],
            "matching_sizes": [len(m) for m in self.matchings],
            "residual_edges": len(self.residual),
        }


def matching_cascade(bp: Bipartition, rounds: int) -> CascadeState:
    """Run ``rounds`` iterations of minimal-tight-set extraction, deleting
    each tight set's perfect matching from the residual graph.

    Needs minimum degree >= rounds over the kept bipartite graph: every
    matching lowers the degrees inside the surviving tight set by exactly
    one, so the process provably completes all requested rounds.
    """
    if rounds < 0:
        raise PreconditionError("rounds must be >= 0")
    if rounds > 0:
        deg: dict = {}
        for u, v in bp.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        min_deg = min((deg.get(v, 0) for v in bp.side_a | bp.side_b),
                      default=0)
        if min_deg < rounds:
            raise PreconditionError(
                f"minimum kept degree {min_deg} is below {rounds} rounds")
    residual = set(bp.edges)
    sets: list = []
    matchings: list = []
    current: Optional[frozenset] = None
    for _ in range(rounds):
        s, t, matching = min_tight_set(bp, residual, candidates=current)
        if current is not None and not s <= current:
            raise BoundViolationError("tight sets stopped nesting")
        if len(s) != len(t) or len(matching) != len(s):
            raise BoundViolationError("tight pair sizes diverged")
        residual -= matching
        sets.append((s, t))
        matchings.append(matching)
        current = s
    return CascadeState(bp, sets, matchings, frozenset(residual))


def theorem41(g: Graph) -> tuple:
    """Full edge-version pipeline: peel below half the average degree, take
    the bipartite half, cascade d'/4 matchings (d' the largest power of two
    at most the average degree d), then either return the first matching or
    refine the union of a geometric block of matchings.

    Returns ``(result, cascade)``, the extraction and the cascade state. The
    output is 5-nearly regular; the ceil(d^2/4096) edge guarantee is
    enforced when d >= 64 and reported best-effort below that.
    """
    st = degree_stats(g)
    d = st.avg_deg
    if d <= 0:
        raise PreconditionError("needs at least one edge")
    full_guarantee = d >= 64
    _, trace = peel_below(g, d / 2)
    survivors = sorted(trace.survivors(g.n))
    g1, host_of = induced(g, survivors)
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
        block_edges = set()
        for m_i in cascade.matchings[lo - 1:hi - 1]:
            block_edges |= m_i
        assert all(u in block_vertices and v in block_vertices
                   for u, v in block_edges), "matchings left the block"
        order = sorted(block_vertices)
        pos = {v: i for i, v in enumerate(order)}
        hgraph = Graph.from_edges(
            len(order), [(pos[u], pos[v]) for u, v in block_edges])
        refined = prop21_refine(hgraph, 2, 0.4)
        kept = refined.vertices
        chosen_edges = frozenset(
            normalize_edge(order[pos[u]], order[pos[v]])
            for u, v in block_edges
            if pos[u] in kept and pos[v] in kept)
        case_tag = "case2"
    host_edges = frozenset(
        normalize_edge(host_of[u], host_of[v]) for u, v in chosen_edges)
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
    return replace(result, bounds=checks), cascade


def matching_lower_bound(g: Graph) -> frozenset:
    """A maximum matching of ``g``, which has at least ceil(m/n) edges:
    by Vizing's theorem the edges split into Delta + 1 <= n matchings.

    Found exactly, for graphs of any size, by Edmonds' blossom algorithm;
    the final size check only guards against a bug in it.
    """
    if g.n == 0 or g.m == 0:
        return frozenset()
    mate = _max_matching([list(g.neighbors(v)) for v in range(g.n)])
    best = frozenset((v, u) for v, u in enumerate(mate) if v < u)
    require_bounds("matching_lower_bound", [matching_bound(g, best)])
    return best


def matching_bound(g: Graph, edges) -> BoundCheck:
    """Ledger entry for the guarantee |edges| >= ceil(m/n)."""
    return check("Matching-size", len(edges), ">=",
                 -(-g.m // g.n) if g.n else 0)
