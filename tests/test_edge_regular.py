"""Bipartite halving, tight-set cascade, the edge-version pipeline, and the
matching guarantee."""

import math
from itertools import chain, combinations

import pytest

from nearreg import (
    Bipartition,
    Graph,
    PreconditionError,
    bipartite_half,
    complete_bipartite,
    degree_stats,
    matching_cascade,
    matching_lower_bound,
    min_tight_set,
    sample_gnp_uniform,
    star,
    theorem41,
)
from nearreg.edge_regular import _max_matching


def complete(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def half_degree_invariant(g, bp):
    side = {}
    for v in bp.side_a:
        side[v] = 0
    for v in bp.side_b:
        side[v] = 1
    kept = {v: 0 for v in range(g.n)}
    for u, v in bp.edges:
        kept[u] += 1
        kept[v] += 1
    return all(2 * kept[v] >= g.degree(v) for v in range(g.n))


def test_half_on_edgeless():
    bp = bipartite_half(Graph.empty(5))
    assert bp.side_a | bp.side_b == frozenset(range(5))
    assert bp.edges == frozenset()


def test_half_on_triangle_and_k4():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert half_degree_invariant(tri, bipartite_half(tri))
    k4 = complete(4)
    bp = bipartite_half(k4)
    assert half_degree_invariant(k4, bp)
    assert len(bp.side_a) == len(bp.side_b) == 2
    assert len(bp.edges) == 4


@pytest.mark.parametrize("seed", range(8))
def test_half_invariant_on_seeded_samples(seed):
    g = sample_gnp_uniform(40, 0.3, 900 + seed)
    assert half_degree_invariant(g, bipartite_half(g))


def natural_bipartition(k, n):
    g = complete_bipartite(k, n)
    return g, Bipartition(frozenset(range(k)), frozenset(range(k, n)),
                          g.edge_set())


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
    g, bp = natural_bipartition(4, 8)
    s, t, m = min_tight_set(bp, bp.edges)
    assert s == frozenset(range(4)) and t == frozenset(range(4, 8))
    assert brute_force_is_minimal_tight(s, t, bp.edges, bp.side_b)
    assert_perfect_between(m, s, t, bp.edges)


def test_tight_set_on_perfect_matching_sides():
    g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
    bp = Bipartition(frozenset({0, 1, 2}), frozenset({3, 4, 5}), g.edge_set())
    s, t, m = min_tight_set(bp, bp.edges)
    assert s == frozenset({0}) and t == frozenset({3})
    assert m == frozenset({(0, 3)})


def test_tight_set_rejects_isolated_candidate():
    g = Graph.from_edges(5, [(0, 3), (1, 4)])
    bp = Bipartition(frozenset({0, 1, 2}), frozenset({3, 4}), g.edge_set())
    with pytest.raises(PreconditionError):
        min_tight_set(bp, bp.edges)


def test_tight_set_minimality_beats_single_pass_greedy():
    # Two disjoint tight blocks: a one-pass greedy deletion keeps the whole
    # side (dropping any one vertex leaves a non-tight remainder), but only
    # a block is inclusion-minimal.
    edges = [(0, 4), (0, 6), (1, 4), (1, 6), (2, 5), (2, 7), (3, 5), (3, 7)]
    g = Graph.from_edges(8, edges)
    bp = Bipartition(frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}),
                     g.edge_set())
    s, t, m = min_tight_set(bp, bp.edges)
    assert s == frozenset({0, 1}) and t == frozenset({4, 6})
    assert brute_force_is_minimal_tight(s, t, bp.edges, bp.side_b)
    assert_perfect_between(m, s, t, bp.edges)


def test_tight_set_hall_violating_stable_set():
    # A single-removal-stable tight side with no perfect matching: {0,1,2}
    # all see only {6,7}. The minimal tight set must dodge it.
    edges = [(0, 6), (1, 6), (0, 7), (1, 7), (2, 6), (2, 7)]
    edges += [(a, b) for a in (3, 4, 5) for b in (8, 9, 10, 11)]
    g = Graph.from_edges(12, edges)
    bp = Bipartition(frozenset(range(6)), frozenset(range(6, 12)),
                     g.edge_set())
    s, t, m = min_tight_set(bp, bp.edges)
    assert brute_force_is_minimal_tight(s, t, bp.edges, bp.side_b)
    assert_perfect_between(m, s, t, bp.edges)


def test_tight_set_follows_first_unmatchable_candidate():
    # Candidates 0, 1, 2 see {3, 4}, {3} and {4}: 0 and 1 can be matched
    # together but not with 2, so S is drawn from {0, 1}. A greedy seed
    # (0-3, 2-4) would leave 1 unmatched instead and lead to {2}.
    edges = frozenset({(0, 3), (0, 4), (1, 3), (2, 4)})
    bp = Bipartition(frozenset({0, 1, 2}), frozenset({3, 4}), edges)
    assert min_tight_set(bp, edges) == (
        frozenset({1}), frozenset({3}), frozenset({(1, 3)}))


@pytest.mark.parametrize("seed", range(10))
def test_tight_set_minimal_on_seeded_bipartite(seed):
    import random

    rng = random.Random(seed)
    ka, kb = 6, 5
    edges = []
    for a in range(ka):
        nbrs = rng.sample(range(ka, ka + kb), rng.randint(1, 3))
        edges.extend((a, b) for b in nbrs)
    g = Graph.from_edges(ka + kb, sorted(set(edges)))
    bp = Bipartition(frozenset(range(ka)), frozenset(range(ka, ka + kb)),
                     g.edge_set())
    s, t, m = min_tight_set(bp, bp.edges)
    assert brute_force_is_minimal_tight(s, t, bp.edges, bp.side_b)
    assert_perfect_between(m, s, t, bp.edges)


def test_tight_set_matching_examples():
    edge = Bipartition(frozenset({0}), frozenset({1}), frozenset({(0, 1)}))
    assert min_tight_set(edge, edge.edges) == (
        frozenset({0}), frozenset({1}), frozenset({(0, 1)}))
    with pytest.raises(PreconditionError):
        min_tight_set(edge, edge.edges, candidates=frozenset())
    _, bp = natural_bipartition(4, 8)
    s, t, m = min_tight_set(bp, bp.edges)
    assert_perfect_between(m, s, t, bp.edges)
    # on a residual graph the matching avoids deleted edges
    residual = bp.edges - {(0, 4), (1, 5), (2, 6), (3, 7)}
    s, t, m = min_tight_set(bp, residual)
    assert_perfect_between(m, s, t, residual)


def test_cascade_on_k44_single_round():
    _, bp = natural_bipartition(4, 8)
    state = matching_cascade(bp, 1)
    assert state.rounds == 1
    assert state.sets[0][0] == frozenset(range(4))
    assert len(state.matchings[0]) == 4


def test_cascade_on_matching_graph():
    g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
    bp = Bipartition(frozenset({0, 1, 2}), frozenset({3, 4, 5}), g.edge_set())
    state = matching_cascade(bp, 1)
    assert state.sets[0][0] == frozenset({0})
    assert state.matchings[0] == frozenset({(0, 3)})


def test_cascade_zero_rounds():
    _, bp = natural_bipartition(3, 6)
    state = matching_cascade(bp, 0)
    assert state.rounds == 0 and state.residual == bp.edges


def test_cascade_rejects_low_degree():
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    bp = Bipartition(frozenset({0, 1}), frozenset({2, 3}), g.edge_set())
    with pytest.raises(PreconditionError):
        matching_cascade(bp, 2)


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
    last_b = state.sets[-1][1]
    kept_deg = {v: 0 for v in range(g.n)}
    for u, v in bp.edges:
        kept_deg[u] += 1
        kept_deg[v] += 1
    residual_deg = {v: 0 for v in range(g.n)}
    for u, v in state.residual:
        residual_deg[u] += 1
        residual_deg[v] += 1
    for v in last_b:
        assert residual_deg[v] == kept_deg[v] - rounds


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
    assert all(g.has_edge(u, v) for u, v in res.edges)


@pytest.mark.parametrize("k", [3, 5])
def test_theorem41_complete_bipartite_ceiling(k):
    res, _ = theorem41(complete_bipartite(k, 50))
    assert len(res.edges) <= 5 * k * k


def test_matching_lower_bound_examples():
    assert len(matching_lower_bound(star(9))) == 1
    pm = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert matching_lower_bound(pm) == pm.edge_set()
    assert len(matching_lower_bound(complete(4))) == 2
    assert matching_lower_bound(Graph.empty(3)) == frozenset()


@pytest.mark.parametrize("seed", range(10))
def test_matching_lower_bound_seeded(seed):
    g = sample_gnp_uniform(30, 0.4, 4000 + seed)
    edges = matching_lower_bound(g)
    assert len(edges) >= -(-g.m // g.n)
    used = set()
    for u, v in edges:
        assert g.has_edge(u, v)
        assert u not in used and v not in used
        used |= {u, v}


def max_matching_edges(g):
    mate = _max_matching([list(g.neighbors(v)) for v in range(g.n)])
    matched = [v for v in range(g.n) if mate[v] >= 0]
    assert all(mate[mate[v]] == v and g.has_edge(v, mate[v]) for v in matched)
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
        assert len(matching_lower_bound(g)) == expected


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
    edges = matching_lower_bound(g)
    assert len(edges) == maximum
    assert len({v for e in edges for v in e}) == 2 * maximum
    assert all(g.has_edge(u, v) for u, v in edges)
    res, _ = theorem41(g)
    assert res.bounds and all(b.passed for b in res.bounds)
    assert all(g.has_edge(u, v) for u, v in res.edges)
