"""Bipartite halving, tight-set cascade, the edge-version pipeline, and the
matching guarantee."""

import math
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    Bipartition,
    CascadeState,
    Graph,
    PreconditionError,
    bipartite_half,
    complete_bipartite,
    degree_stats,
    matching_cascade,
    matching_lower_bound,
    sample_gnp_uniform,
    star,
    theorem41,
)
from nearreg.edge_regular import (
    _max_matching,
    _sink_components,
    _workspace,
)
from nearreg.graph import normalize_edge

from conftest import edge_set, has_edge


def complete(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def half_degree_invariant(g, bp):
    kept = bp.graph.degrees()
    return all(2 * kept[v] >= g.degree(v) for v in range(g.n))


def test_half_on_edgeless():
    bp = bipartite_half(Graph.empty(5))
    assert bp.side_a | bp.side_b == frozenset(range(5))
    assert bp.graph == Graph.empty(5)


def test_half_on_triangle_and_k4():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert half_degree_invariant(tri, bipartite_half(tri))
    k4 = complete(4)
    bp = bipartite_half(k4)
    assert half_degree_invariant(k4, bp)
    assert len(bp.side_a) == len(bp.side_b) == 2
    assert bp.graph.m == 4


@pytest.mark.parametrize("seed", range(8))
def test_half_invariant_on_seeded_samples(seed):
    g = sample_gnp_uniform(40, 0.3, 900 + seed)
    assert half_degree_invariant(g, bipartite_half(g))


def _half_reference(g):
    """Local switching with the mover found by a scan of every vertex."""
    side = [v & 1 for v in range(g.n)]
    while True:
        own = [sum(side[u] == side[v] for u in g.neighbors(v))
               for v in range(g.n)]
        mover = next((v for v in range(g.n) if 2 * own[v] > g.degree(v)),
                     None)
        if mover is None:
            break
        side[mover] = 1 - side[mover]
    zeros = frozenset(v for v in range(g.n) if side[v] == 0)
    ones = frozenset(range(g.n)) - zeros
    sides = (zeros, ones) if len(zeros) >= len(ones) else (ones, zeros)
    kept = [(u, v) for u, v in g.edges() if side[u] != side[v]]
    return Bipartition(*sides, Graph.from_edges(g.n, kept))


@pytest.mark.parametrize("build", [
    lambda: sample_gnp_uniform(300, 0.23, 5),
    lambda: sample_gnp_uniform(400, 0.01, 6),
    lambda: ladder(60), lambda: star(50),
    lambda: disjoint_cliques(8, 7), lambda: complete(12)],
    ids=["gnp-dense", "gnp-sparse", "ladder", "star", "cliques", "clique"])
def test_half_matches_the_scan_reference(build):
    g = build()
    assert bipartite_half(g) == _half_reference(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_half_is_a_bipartite_cut_keeping_half_of_each_degree(g):
    nx = pytest.importorskip("networkx")
    bp = bipartite_half(g)
    assert bp.side_a | bp.side_b == frozenset(range(g.n))
    assert not bp.side_a & bp.side_b
    host = nx.Graph(list(g.edges()))
    host.add_nodes_from(range(g.n))
    assert bp.graph.m == nx.cut_size(host, bp.side_a, bp.side_b)
    kept = nx.Graph(list(bp.graph.edges()))
    kept.add_nodes_from(range(g.n))
    assert nx.is_bipartite(kept)
    assert all(2 * kept.degree(v) >= host.degree(v) for v in range(g.n))


def natural_bipartition(k, n):
    g = complete_bipartite(k, n)
    return g, Bipartition(frozenset(range(k)), frozenset(range(k, n)), g)


def first_tight_set(side_a, side_b, n, edges):
    """``(S, N(S), M_S)`` of one cascade round on the bipartition of
    ``side_a`` and ``side_b`` whose kept graph has ``n`` vertices and
    ``edges``."""
    bp = Bipartition(frozenset(side_a), frozenset(side_b),
                     Graph.from_edges(n, edges))
    state = matching_cascade(bp, 1)
    (s, t), = state.sets
    return s, t, state.matchings[0]


def assert_perfect_between(matching, s, t, edges):
    """``matching`` uses only ``edges`` and pairs every vertex of ``s`` with
    exactly one vertex of ``t`` and vice versa."""
    assert matching <= set(edges)
    ends_a = [a for e in matching for a in e if a in s]
    ends_b = [b for e in matching for b in e if b in t]
    assert sorted(ends_a) == sorted(s) and sorted(ends_b) == sorted(t)
    assert len(matching) == len(s) == len(t)


def brute_force_is_minimal_tight(s, t, edges, b_side):
    """Check |N(S)| <= |S| and that no proper nonempty subset is tight."""
    def nb(group):
        out = set()
        for u, v in edges:
            if u in group and v in b_side:
                out.add(v)
            if v in group and u in b_side:
                out.add(u)
        return out
    if len(nb(s)) > len(s) or nb(s) != set(t):
        return False
    subsets = chain.from_iterable(
        combinations(sorted(s), r) for r in range(1, len(s)))
    return all(len(nb(set(sub))) > len(sub) for sub in subsets)


def test_tight_set_on_full_k44():
    g, _ = natural_bipartition(4, 8)
    edges = edge_set(g)
    s, t, m = first_tight_set(range(4), range(4, 8), 8, edges)
    assert s == frozenset(range(4)) and t == frozenset(range(4, 8))
    assert brute_force_is_minimal_tight(s, t, edges, frozenset(range(4, 8)))
    assert_perfect_between(m, s, t, edges)


def test_tight_set_on_perfect_matching_sides():
    s, t, m = first_tight_set({0, 1, 2}, {3, 4, 5}, 6,
                              [(0, 3), (1, 4), (2, 5)])
    assert s == frozenset({0}) and t == frozenset({3})
    assert m == frozenset({(0, 3)})


def test_tight_set_rejects_isolated_candidate():
    with pytest.raises(PreconditionError, match="minimum kept degree 0"):
        first_tight_set({0, 1, 2}, {3, 4}, 5, [(0, 3), (1, 4)])


def test_tight_set_minimality_beats_single_pass_greedy():
    # Two disjoint tight blocks: a one-pass greedy deletion keeps the whole
    # side (dropping any one vertex leaves a non-tight remainder), but only
    # a block is inclusion-minimal.
    edges = [(0, 4), (0, 6), (1, 4), (1, 6), (2, 5), (2, 7), (3, 5), (3, 7)]
    side_b = frozenset({4, 5, 6, 7})
    s, t, m = first_tight_set({0, 1, 2, 3}, side_b, 8, edges)
    assert s == frozenset({0, 1}) and t == frozenset({4, 6})
    assert brute_force_is_minimal_tight(s, t, edges, side_b)
    assert_perfect_between(m, s, t, edges)


def test_tight_set_hall_violating_stable_set():
    # A single-removal-stable tight side with no perfect matching: {0,1,2}
    # all see only {6,7}. The minimal tight set must dodge it.
    edges = [(0, 6), (1, 6), (0, 7), (1, 7), (2, 6), (2, 7)]
    edges += [(a, b) for a in (3, 4, 5) for b in (8, 9, 10, 11)]
    side_b = frozenset(range(6, 12))
    s, t, m = first_tight_set(range(6), side_b, 12, edges)
    assert brute_force_is_minimal_tight(s, t, edges, side_b)
    assert_perfect_between(m, s, t, edges)


def test_tight_set_follows_first_unmatchable_candidate():
    # Candidates 0, 1, 2 see {3, 4}, {3} and {4}: 0 and 1 can be matched
    # together but not with 2, so S is drawn from {0, 1}. A greedy seed
    # (0-3, 2-4) would leave 1 unmatched instead and lead to {2}.
    edges = [(0, 3), (0, 4), (1, 3), (2, 4)]
    assert first_tight_set({0, 1, 2}, {3, 4}, 5, edges) == (
        frozenset({1}), frozenset({3}), frozenset({(1, 3)}))


@pytest.mark.parametrize("seed", range(10))
def test_tight_set_minimal_on_seeded_bipartite(seed):
    import random

    rng = random.Random(seed)
    ka, kb = 6, 5
    edges = set()
    for a in range(ka):
        nbrs = rng.sample(range(ka, ka + kb), rng.randint(1, 3))
        edges.update((a, b) for b in nbrs)
    # side B is the vertices some edge reaches; the rest are isolated
    side_b = frozenset(b for _, b in edges)
    s, t, m = first_tight_set(range(ka), side_b, ka + kb, edges)
    assert brute_force_is_minimal_tight(s, t, edges, side_b)
    assert_perfect_between(m, s, t, edges)


def test_tight_set_matching_examples():
    assert first_tight_set({0}, {1}, 2, [(0, 1)]) == (
        frozenset({0}), frozenset({1}), frozenset({(0, 1)}))
    with pytest.raises(PreconditionError):
        first_tight_set((), (), 0, [])
    g, _ = natural_bipartition(4, 8)
    s, t, m = first_tight_set(range(4), range(4, 8), 8, edge_set(g))
    assert_perfect_between(m, s, t, edge_set(g))
    # on a residual graph the matching avoids deleted edges
    residual = edge_set(g) - {(0, 4), (1, 5), (2, 6), (3, 7)}
    s, t, m = first_tight_set(range(4), range(4, 8), 8, residual)
    assert_perfect_between(m, s, t, residual)


def test_cascade_on_k44_single_round():
    _, bp = natural_bipartition(4, 8)
    state = matching_cascade(bp, 1)
    assert state.rounds == 1
    assert state.sets[0][0] == frozenset(range(4))
    assert len(state.matchings[0]) == 4


def test_cascade_on_matching_graph():
    g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
    bp = Bipartition(frozenset({0, 1, 2}), frozenset({3, 4, 5}), g)
    state = matching_cascade(bp, 1)
    assert state.sets[0][0] == frozenset({0})
    assert state.matchings[0] == frozenset({(0, 3)})


def test_cascade_zero_rounds():
    g, bp = natural_bipartition(3, 6)
    state = matching_cascade(bp, 0)
    assert state.rounds == 0 and state.residual_edges == g.m


def test_cascade_rejects_low_degree():
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    bp = Bipartition(frozenset({0, 1}), frozenset({2, 3}), g)
    with pytest.raises(PreconditionError):
        matching_cascade(bp, 2)


def test_cascade_refuses_a_side_a_that_is_not_tight():
    # every side-B vertex has a neighbour in A, so A is tight exactly when
    # side B is no larger; a larger one is refused before any matching
    bp = Bipartition(frozenset({0}), frozenset({1, 2}),
                     Graph.from_edges(3, [(0, 1), (0, 2)]))
    with pytest.raises(PreconditionError, match="not tight"):
        matching_cascade(bp, 1)


@pytest.mark.parametrize("rounds", [0, 1])
@pytest.mark.parametrize("inside", [(0, 1), (4, 5)], ids=["in-a", "in-b"])
def test_cascade_refuses_an_edge_inside_a_side(inside, rounds):
    # K_3,3 plus one edge inside a side: a round would take it for an edge
    # between a candidate and a side-B vertex, and match along it
    edges = [(a, b) for a in range(3) for b in range(3, 6)] + [inside]
    bp = Bipartition(frozenset(range(3)), frozenset(range(3, 6)),
                     Graph.from_edges(6, edges))
    with pytest.raises(PreconditionError, match="side A to side B"):
        matching_cascade(bp, rounds)


@pytest.mark.parametrize("side_a", [{0, 5}, {0, -1}])
def test_cascade_refuses_a_side_outside_the_graph(side_a):
    bp = Bipartition(frozenset(side_a), frozenset({1}),
                     Graph.from_edges(2, [(0, 1)]))
    with pytest.raises(PreconditionError, match="outside the graph"):
        matching_cascade(bp, 1)


def test_cascade_nesting_disjointness_and_degree_drop():
    g = sample_gnp_uniform(30, 0.6, 1234)
    bp = bipartite_half(g)
    rounds = 3
    state = matching_cascade(bp, rounds)
    for (a1, _), (a2, _) in zip(state.sets, state.sets[1:]):
        assert a2 <= a1
    for i, m1 in enumerate(state.matchings):
        for m2 in state.matchings[i + 1:]:
            assert not m1 & m2
    kept = edge_set(bp.graph)
    assert all(m <= kept for m in state.matchings)
    assert state.residual_edges == len(kept.difference(*state.matchings))
    # each round's matching takes exactly one edge at every vertex of the
    # last side-B set, so its residual degree dropped by exactly ``rounds``
    matched = Counter(v for m in state.matchings for e in m for v in e)
    for v in state.sets[-1][1]:
        assert matched[v] == rounds


def test_theorem41_k44():
    res, _ = theorem41(complete_bipartite(4, 8))
    assert res.guarantee.startswith("Thm4.1-case1")
    assert "no-guarantee" in res.guarantee  # d = 4 < 64
    s = res.stats
    assert (s.max_deg, s.min_deg) == (1, 1)
    assert len(res.edges) >= 1


def test_theorem41_needs_an_edge():
    with pytest.raises(PreconditionError):
        theorem41(Graph.empty(4))


def test_theorem41_regular_bipartite_full_guarantee():
    # 64-regular bipartite circulant on 2*100 vertices: d = 64 exactly
    n_side, r = 100, 64
    edges = [(a, n_side + (a + shift) % n_side)
             for a in range(n_side) for shift in range(r)]
    g = Graph.from_edges(2 * n_side, edges)
    d = float(degree_stats(g).avg_deg)
    assert d == 64
    res, _ = theorem41(g)
    assert "no-guarantee" not in res.guarantee
    assert float(res.ratio) <= 5
    assert len(res.edges) >= math.ceil(d * d / 4096)


def test_theorem41_dense_sample_contract():
    g = sample_gnp_uniform(200, 0.5, 77)
    d = float(degree_stats(g).avg_deg)
    res, _ = theorem41(g)
    assert float(res.ratio) <= 5
    assert len(res.edges) >= math.ceil(d * d / 4096)
    # the subgraph uses only edges of g
    assert all(has_edge(g, u, v) for u, v in res.edges)


@pytest.mark.parametrize("k", [3, 5])
def test_theorem41_complete_bipartite_ceiling(k):
    res, _ = theorem41(complete_bipartite(k, 50))
    assert len(res.edges) <= 5 * k * k


def test_matching_lower_bound_examples():
    assert len(matching_lower_bound(star(9)).edges) == 1
    pm = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert matching_lower_bound(pm).edges == edge_set(pm)
    assert len(matching_lower_bound(complete(4)).edges) == 2
    assert matching_lower_bound(Graph.empty(3)).edges == frozenset()


@pytest.mark.parametrize("seed", range(10))
def test_matching_lower_bound_seeded(seed):
    g = sample_gnp_uniform(30, 0.4, 4000 + seed)
    edges = matching_lower_bound(g).edges
    assert len(edges) >= -(-g.m // g.n)
    used = set()
    for u, v in edges:
        assert has_edge(g, u, v)
        assert u not in used and v not in used
        used |= {u, v}


def max_matching_edges(g):
    mate = _max_matching([list(g.neighbors(v)) for v in range(g.n)])
    matched = [v for v in range(g.n) if mate[v] >= 0]
    assert all(mate[mate[v]] == v and has_edge(g, v, mate[v]) for v in matched)
    return len(matched) // 2


def test_exact_max_matching_helper():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert max_matching_edges(c5) == 2
    assert max_matching_edges(complete(4)) == 2
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert max_matching_edges(p4) == 2


def test_max_matching_grows_through_blossoms():
    # The free ends 8 and 9 are joined through the triangles 1-2-3 and
    # 4-5-6. The greedy seed matches 0-1, 2-3, 4-5 and 6-7. From either free
    # end the search labels inner the triangle vertex it must leave by, so
    # it finds the one augmenting path only by shrinking that triangle.
    g = Graph.from_edges(10, [(0, 8), (0, 1), (1, 2), (1, 3), (2, 3),
                              (2, 4), (4, 5), (4, 6), (5, 6), (6, 7),
                              (7, 9)])
    assert max_matching_edges(g) == 5


@pytest.mark.parametrize("seed", range(3))
def test_max_matching_matches_networkx(seed):
    import random

    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.4))
        g = sample_gnp_uniform(n, p, rng.randrange(2**32))
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges())
        expected = len(nx.max_weight_matching(ref, maxcardinality=True))
        assert max_matching_edges(g) == expected
        assert len(matching_lower_bound(g).edges) == expected


def path(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def ladder(rungs):
    edges = [(v, rungs + v) for v in range(rungs)]
    edges += [(s + v, s + v + 1) for s in (0, rungs) for v in range(rungs - 1)]
    return Graph.from_edges(2 * rungs, edges)


def disjoint_cliques(copies, size):
    return Graph.from_edges(copies * size, [
        (c + a, c + b) for c in range(0, copies * size, size)
        for a, b in combinations(range(size), 2)])


ADVERSARIAL = {
    "path": (lambda: path(2000), 1000),
    "ladder": (lambda: ladder(500), 500),
    "star": (lambda: star(1000), 1),
    "cliques": (lambda: disjoint_cliques(40, 25), 480),
}


@pytest.mark.parametrize("shape", sorted(ADVERSARIAL))
def test_adversarial_shapes(shape):
    build, maximum = ADVERSARIAL[shape]
    g = build()
    edges = matching_lower_bound(g).edges
    assert len(edges) == maximum
    assert len({v for e in edges for v in e}) == 2 * maximum
    assert all(has_edge(g, u, v) for u, v in edges)
    res, _ = theorem41(g)
    assert res.bounds and all(b.passed for b in res.bounds)
    assert all(has_edge(g, u, v) for u, v in res.edges)


# --- the cascade against a per-round rebuild -------------------------------


def _augment_reference(root, rows, mate):
    """Alternating breadth-first search from the candidate ``root``: what
    Edmonds' search does on a bipartite graph, where no blossom forms.
    Scans rows in list order and flips the first augmenting path found."""
    parent = {}
    queue = [root]
    for a in queue:
        for b in rows[a]:
            if b in parent:
                continue
            parent[b] = a
            if mate[b] < 0:
                while b >= 0:
                    a = parent[b]
                    after = mate[a]
                    mate[a], mate[b] = b, a
                    b = after
                return True
            queue.append(mate[b])
    return False


def _scc_reference(nodes, succ):
    """Iterative Tarjan on dicts and sets; nodes and successor lists must be
    pre-sorted."""
    index, low, on_stack, stack, sccs, counter = {}, {}, set(), [], [], 0
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


def _orientation_reference(bp, residual_edges, candidates=None):
    """One round's orientation rebuilt from the whole residual edge set:
    the residual rows, the ascending matching and the alternating-
    reachability shrink. Returns ``(universe, succ, rows, mate)``, with
    ``succ[a]`` the ascending heads of the arcs a -> mate[b]."""
    cand = sorted(candidates if candidates is not None else bp.side_a)
    cand_set = set(cand)
    rows = [[] for _ in range(1 + max(bp.side_a | bp.side_b))]
    for u, v in residual_edges:
        a, b = (u, v) if u in cand_set else (v, u)
        if a in cand_set and b in bp.side_b:
            rows[a].append(b)
    for row in rows:
        row.sort()
    assert all(rows[a] for a in cand)
    assert len({b for a in cand for b in rows[a]}) <= len(cand)
    mate = [-1] * len(rows)
    a0 = next((a for a in cand if not _augment_reference(a, rows, mate)),
              None)
    universe = cand
    if a0 is not None:
        reach_a, reach_b, frontier = {a0}, set(), [a0]
        while frontier:
            for b in rows[frontier.pop()]:
                if b not in reach_b:
                    reach_b.add(b)
                    if mate[b] not in reach_a:
                        reach_a.add(mate[b])
                        frontier.append(mate[b])
        universe = sorted(reach_a - {a0})
    succ = {a: sorted({mate[b] for b in rows[a]} - {a}) for a in universe}
    return universe, succ, rows, mate


def _tight_set_reference(bp, residual_edges, candidates=None):
    """One round rebuilt from the whole residual edge set: the sink
    component with the smallest id of the orientation."""
    universe, succ, rows, mate = _orientation_reference(bp, residual_edges,
                                                        candidates)
    sccs = _scc_reference(universe, succ)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    sinks = [comp for i, comp in enumerate(sccs)
             if all(comp_of[w] == i for v in comp for w in succ[v])]
    chosen = min(sinks, key=min)
    return (chosen, frozenset(b for a in chosen for b in rows[a]),
            frozenset(normalize_edge(a, mate[a]) for a in chosen))


def _cascade_reference(bp, rounds):
    """The cascade with every round rebuilt from the residual edge set."""
    residual = set(edge_set(bp.graph))
    sets, matchings, current = [], [], None
    for _ in range(rounds):
        s, t, m = _tight_set_reference(bp, residual, current)
        residual -= m
        sets.append((s, t))
        matchings.append(m)
        current = s
    return CascadeState(sets, matchings, len(residual))


def _kept_min_degree(bp):
    return min(bp.graph.degrees())


def _unbalanced_bipartite(ka, kb, degree, seed):
    """Side A of ka vertices, each joined to ``degree`` random vertices of
    side B (kb < ka), plus the edges B needs to reach that degree too: the
    first candidate that cannot join the lower ones comes early, so the
    tight sets shrink round after round."""
    import random

    rng = random.Random(seed)
    side_b = range(ka, ka + kb)
    edges = {(a, b) for a in range(ka)
             for b in rng.sample(side_b, degree)}
    for b in side_b:
        have = sum(1 for e in edges if e[1] == b)
        for a in rng.sample(range(ka), max(0, degree - have)):
            edges.add((a, b))
    return Bipartition(frozenset(range(ka)), frozenset(side_b),
                       Graph.from_edges(ka + kb, edges))


CASCADE_INPUTS = {
    "path": lambda: bipartite_half(path(2000)),
    "ladder": lambda: bipartite_half(ladder(500)),
    "star": lambda: bipartite_half(star(200)),
    "cliques": lambda: bipartite_half(disjoint_cliques(40, 25)),
    "k-9-5": lambda: natural_bipartition(9, 14)[1],
    "k-12-12": lambda: natural_bipartition(12, 24)[1],
    "gnp-dense": lambda: bipartite_half(sample_gnp_uniform(300, 0.23, 5)),
    "gnp-mid": lambda: bipartite_half(sample_gnp_uniform(200, 0.1, 7)),
    "gnp-sparse": lambda: bipartite_half(sample_gnp_uniform(400, 0.02, 8)),
    "unbalanced-a": lambda: _unbalanced_bipartite(30, 20, 4, 1),
    "unbalanced-b": lambda: _unbalanced_bipartite(60, 35, 6, 2),
    "unbalanced-c": lambda: _unbalanced_bipartite(120, 100, 3, 3),
}


@pytest.mark.parametrize("name", sorted(CASCADE_INPUTS))
def test_cascade_matches_the_per_round_rebuild(name):
    bp = CASCADE_INPUTS[name]()
    rounds = min(_kept_min_degree(bp), 16)
    assert rounds >= 1
    state = matching_cascade(bp, rounds)
    ref = _cascade_reference(bp, rounds)
    assert state.to_json() == ref.to_json()
    assert state.sets == ref.sets
    assert state.matchings == ref.matchings
    assert state.residual_edges == ref.residual_edges


def test_cascade_inputs_include_shrinking_tight_sets():
    # the unbalanced inputs exercise the reachability shrink, not only the
    # all-candidates-matched branch
    for name in ("star", "cliques", "unbalanced-a", "unbalanced-b"):
        bp = CASCADE_INPUTS[name]()
        state = matching_cascade(bp, min(_kept_min_degree(bp), 16))
        assert len(state.sets[0][0]) < len(bp.side_a), name


@pytest.mark.parametrize("seed", range(4))
def test_sink_components_match_networkx_condensation(seed):
    import random

    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for _ in range(60):
        k = rng.randint(1, 60)
        nodes = sorted(rng.sample(range(k + 10), k))
        p = rng.choice((0.02, 0.05, 0.1, 0.3))
        succ = [[] for _ in range(k + 10)]
        for v in nodes:
            succ[v] = [w for w in nodes if w != v and rng.random() < p]
        assert_sinks_match(nx, nodes, succ)


def test_sink_components_on_long_chains_and_cycles():
    nx = pytest.importorskip("networkx")
    n = 3000
    chain_down = [[v - 1] if v else [] for v in range(n)]
    assert _sink_components(list(range(n)), chain_down) == [[0]]
    cycle = [[(v + 1) % n] for v in range(n)]
    assert [sorted(c) for c in _sink_components(list(range(n)), cycle)] == [
        list(range(n))]
    # two cycles joined by one arc: only the second is a sink
    two = [[(v + 1) % 50] for v in range(50)]
    two += [[50 + (v + 1) % 50] for v in range(50)]
    two[7].append(80)
    assert_sinks_match(nx, list(range(100)), two)


def _random_residual(rng, ka, kb):
    """A bipartition of ka >= kb vertices, so side A is a tight candidate
    set, each A vertex joined to 1..4 random B vertices, with a random
    share of the edges deleted as if earlier rounds had matched them (each
    A vertex keeps one). Its graph is what is left, and its side B the
    vertices of B that some edge still reaches."""
    side_b = range(ka, ka + kb)
    edges = {(a, b) for a in range(ka)
             for b in rng.sample(side_b, rng.randint(1, min(kb, 4)))}
    edges |= {(rng.randrange(ka), b) for b in side_b}
    gone = {e for e in edges if rng.random() < 0.3}
    kept = {a: [e for e in edges - gone if e[0] == a] for a in range(ka)}
    gone -= {min(e for e in edges if e[0] == a)
             for a in range(ka) if not kept[a]}
    left = edges - gone
    return Bipartition(frozenset(range(ka)), frozenset(b for _, b in left),
                       Graph.from_edges(ka + kb, left))


@pytest.mark.parametrize("seed", range(4))
def test_tight_set_is_the_least_attracting_component(seed):
    # S is the attracting component (a sink of the condensation) of the
    # round's orientation that holds the least id, found here by networkx,
    # on balanced and unbalanced residual graphs
    import random

    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for _ in range(50):
        ka = rng.randint(1, 30)
        bp = _random_residual(rng, ka, rng.randint(1, ka))
        universe, succ, _, _ = _orientation_reference(bp, edge_set(bp.graph))
        digraph = nx.DiGraph()
        digraph.add_nodes_from(universe)
        digraph.add_edges_from((a, w) for a in universe for w in succ[a])
        expected = min(nx.attracting_components(digraph), key=min)
        assert matching_cascade(bp, 1).sets[0][0] == expected


def test_cascade_rounds_take_the_set_proof_or_tarjan(monkeypatch):
    # a round lists the sinks by Tarjan only when the least vertex of its
    # universe lies in no sink; every other round is settled by the two set
    # searches, which on the dense input is all 16 rounds
    from nearreg import edge_regular

    tarjan = edge_regular._sink_components
    calls = []
    monkeypatch.setattr(edge_regular, "_sink_components",
                        lambda nodes, succ: calls.append(len(nodes))
                        or tarjan(nodes, succ))
    runs = {}
    for name, build in CASCADE_INPUTS.items():
        bp = build()
        calls.clear()
        state = matching_cascade(bp, min(_kept_min_degree(bp), 16))
        runs[name] = (len(calls), state.rounds)
    assert {name for name, (tarjans, _) in runs.items() if tarjans} == {
        "gnp-sparse", "unbalanced-a"}
    assert runs["gnp-dense"] == (0, 16)


def assert_sinks_match(nx, nodes, succ):
    digraph = nx.DiGraph()
    digraph.add_nodes_from(nodes)
    digraph.add_edges_from((v, w) for v in nodes for w in succ[v])
    dag = nx.condensation(digraph)
    expected = {frozenset(dag.nodes[c]["members"]) for c in dag.nodes
                if dag.out_degree(c) == 0}
    got = [frozenset(c) for c in _sink_components(nodes, succ)]
    assert len(got) == len(set(got)) and set(got) == expected


# --- one search workspace per driver ---------------------------------------


def odd_cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


BLOSSOM_GRAPHS = {
    "c5": lambda: odd_cycle(5),
    "c7": lambda: odd_cycle(7),
    "c101": lambda: odd_cycle(101),
    "two-blossoms": lambda: Graph.from_edges(10, [
        (0, 8), (0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5), (4, 6),
        (5, 6), (6, 7), (7, 9)]),
    "triangles-on-a-path": lambda: Graph.from_edges(31, [
        e for t in range(10) for e in ((3 * t, 3 * t + 1),
                                       (3 * t + 1, 3 * t + 2),
                                       (3 * t, 3 * t + 2),
                                       (3 * t + 2, 3 * t + 3))]),
    "gnp-30": lambda: sample_gnp_uniform(30, 0.15, 11),
    "gnp-60": lambda: sample_gnp_uniform(60, 0.06, 12),
    "gnp-200": lambda: sample_gnp_uniform(200, 0.02, 13),
}


def rows_of(g):
    return [list(g.neighbors(v)) for v in range(g.n)]


@pytest.mark.parametrize("name", sorted(BLOSSOM_GRAPHS))
def test_workspace_is_reset_after_every_search(name, monkeypatch):
    from nearreg import edge_regular

    g = BLOSSOM_GRAPHS[name]()
    used = []
    search = edge_regular._augment_from

    def checked(root, rows, mate, ws):
        found = search(root, rows, mate, ws)
        assert ws == _workspace(g.n)
        used.append(ws)
        return found

    monkeypatch.setattr(edge_regular, "_augment_from", checked)
    mate = _max_matching(rows_of(g))
    assert used  # the greedy seed left free vertices to search from
    assert all(ws is used[0] for ws in used)
    assert all(mate[mate[v]] == v for v in range(g.n) if mate[v] >= 0)


@pytest.mark.parametrize("name", sorted(BLOSSOM_GRAPHS))
def test_shared_workspace_gives_the_fresh_workspace_matching(name,
                                                             monkeypatch):
    from nearreg import edge_regular

    nbrs = rows_of(BLOSSOM_GRAPHS[name]())
    shared = _max_matching(nbrs)
    search = edge_regular._augment_from
    monkeypatch.setattr(
        edge_regular, "_augment_from",
        lambda root, rows, mate, ws: search(root, rows, mate,
                                            _workspace(len(rows))))
    assert _max_matching(nbrs) == shared


@pytest.mark.parametrize("name", ["cliques", "gnp-mid", "unbalanced-b"])
def test_cascade_shared_workspace_gives_the_fresh_workspace_rounds(
        name, monkeypatch):
    from nearreg import edge_regular

    bp = CASCADE_INPUTS[name]()
    rounds = min(_kept_min_degree(bp), 16)
    shared = matching_cascade(bp, rounds)
    search = edge_regular._augment_from
    monkeypatch.setattr(
        edge_regular, "_augment_from",
        lambda root, rows, mate, ws: search(root, rows, mate,
                                            _workspace(len(rows))))
    fresh = matching_cascade(bp, rounds)
    assert (fresh.sets, fresh.matchings, fresh.to_json()) == (
        shared.sets, shared.matchings, shared.to_json())
