"""Peeling primitives, refine/reduce contracts, and the composed pipeline."""

import math
from fractions import Fraction
from itertools import compress

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    Graph,
    PreconditionError,
    degree_stats,
    induced,
    prop21_refine,
    prop22_reduce,
    proposition11_pipeline,
    sample_gnp_uniform,
    star,
)
from nearreg.graph import Surd, check
from nearreg.peeling import peel_min, threshold_core

from conftest import bitmask_rows, nearly_regular_check


def complete(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def peel_below(g, threshold):
    """The core above ``threshold`` as `theorem41` takes it:
    `threshold_core`, then `induced` of the live set. Returns (subgraph,
    id map, deleted)."""
    alive, _, deleted = threshold_core(g, threshold)
    sub, id_map = induced(g, compress(range(g.n), alive))
    return sub, id_map, deleted


def test_peel_below_removes_isolated_vertex():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    sub, id_map, deleted = peel_below(g, 0.6)
    assert (sub.n, sub.m) == (3, 3) and id_map == (0, 1, 2)
    assert deleted == 1


def test_peel_below_zero_threshold_is_identity():
    g = star(6)
    sub, id_map, deleted = peel_below(g, 0)
    assert sub == g and id_map == tuple(range(g.n))
    assert deleted == 0


def test_peel_below_can_empty_the_graph():
    sub, id_map, deleted = peel_below(complete(4), 4)
    assert sub.n == 0 and id_map == () and deleted == 4
    steps = peel_min(complete(4))
    assert [s.vertex for s in steps] == [0, 1, 2, 3]
    assert [s.degree for s in steps] == [3, 2, 1, 0]


def test_peel_trace_degrees_below_threshold():
    g = sample_gnp_uniform(30, 0.2, 5)
    thr = degree_stats(g).avg_deg / 2
    sub, id_map, deleted = peel_below(g, thr)
    assert all(s.degree < thr for s in peel_min(g)[:deleted])
    assert sub.n + deleted == g.n
    if sub.n:
        assert degree_stats(sub).min_deg >= thr


def test_peel_below_deterministic():
    g = sample_gnp_uniform(25, 0.3, 9)
    assert peel_below(g, 2.5) == peel_below(g, 2.5)


@pytest.mark.parametrize("seed", range(3))
def test_peel_below_matches_networkx_k_core(seed):
    import random

    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 40)
        g = sample_gnp_uniform(n, rng.choice((0.05, 0.1, 0.2, 0.4)),
                               rng.randrange(2**32))
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges())
        for k in range(7):
            alive, deg, deleted = threshold_core(g, k)
            core = nx.k_core(ref, k)
            assert [v for v in range(n) if alive[v]] == sorted(core)
            assert all(deg[v] == d for v, d in core.degree())
            assert deleted == n - core.number_of_nodes()
            sub, _ = induced(g, compress(range(n), alive))
            assert sub.m == core.number_of_edges()


def _peel_shapes(seed):
    """Seeded G(n, p) graphs with n <= 40, after stars, paths, cliques and
    disjoint cliques, whose degrees tie everywhere."""
    import random

    yield from (star(9), complete(1), complete(6),
                Graph.from_edges(12, [(v, v + 1) for v in range(11)]),
                Graph.from_edges(15, [(c + a, c + b) for c in (0, 5, 10)
                                      for a in range(5)
                                      for b in range(a + 1, 5)]))
    rng = random.Random(seed)
    for _ in range(40):
        yield sample_gnp_uniform(rng.randint(1, 40),
                                 rng.choice((0.05, 0.1, 0.2, 0.4)),
                                 rng.randrange(2**32))


def assert_core_is_the_prefix_cut(g, t):
    """`threshold_core` at ``t`` against the smallest-last order: the cut
    is its first step of degree at least ``t`` (decided by `check`, exact
    for `Fraction` and `Surd` thresholds); the live set is what the order
    keeps from there, ``deleted`` is the cut, and every live degree is the
    vertex's count of live neighbours."""
    order = peel_min(g)
    cut = next((i for i, s in enumerate(order)
                if check("core", s.degree, ">=", t).passed), len(order))
    alive, deg, deleted = threshold_core(g, t)
    kept = sorted(s.vertex for s in order[cut:])
    assert [v for v in range(g.n) if alive[v]] == kept
    assert deleted == cut
    mask = sum(1 << v for v in kept)
    rows = bitmask_rows(g)
    assert all(deg[v] == (rows[v] & mask).bit_count() for v in kept)


@pytest.mark.parametrize("seed", range(3))
def test_threshold_peel_is_a_prefix_of_the_smallest_last_order(seed):
    # g.n, above every degree, stands for the whole order: the core takes
    # finite thresholds only
    thresholds = (0, 1, Fraction(3, 2), 2, Fraction(7, 3), 3, Fraction(9, 2),
                  6)
    for g in _peel_shapes(seed):
        for t in (*thresholds, g.n):
            assert_core_is_the_prefix_cut(g, t)


@st.composite
def graphs_and_thresholds(draw):
    """An edge set on 0-24 vertices, and a `Fraction` or `Surd` threshold
    between -1 and the graph's largest degree plus 1."""
    n = draw(st.integers(0, 24))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    g = Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                         if pairs else [])
    top = max(g.degrees(), default=0) + 1
    a = draw(st.fractions(-1, top, max_denominator=12))
    if draw(st.booleans()):
        return g, a
    e = draw(st.fractions(0, 9, max_denominator=6))
    b = draw(st.fractions(-2, 2, max_denominator=6))
    return g, Surd(a, b, e)


@given(graphs_and_thresholds())
@settings(max_examples=300, deadline=None)
def test_threshold_core_is_the_prefix_cut_of_the_order(g_t):
    assert_core_is_the_prefix_cut(*g_t)


@pytest.mark.parametrize("shape", ["path", "star"])
@pytest.mark.parametrize("n", [2, 3, 50, 2000])
def test_threshold_core_deletes_every_vertex_of_a_chain(shape, n):
    # each deletion drops one neighbour below 2, so the worklist takes the
    # vertices one at a time: a path from both ends, a star its leaves and
    # then its centre
    edges = ([(v, v + 1) for v in range(n - 1)] if shape == "path"
             else [(0, v) for v in range(1, n)])
    g = Graph.from_edges(n, edges)
    alive, _, deleted = threshold_core(g, 2)
    assert deleted == n and not any(alive)
    if n <= 50:
        assert_core_is_the_prefix_cut(g, 2)


@pytest.mark.parametrize("seed", range(2))
def test_peeling_a_suffix_of_the_order_gives_the_suffix_again(seed):
    for g in _peel_shapes(seed):
        order = peel_min(g)
        for i in range(0, g.n, 3):
            sub, idmap = induced(g, [s.vertex for s in order[i:]])
            again = peel_min(sub)
            assert [(idmap[s.vertex], s.degree) for s in again] == \
                [(s.vertex, s.degree) for s in order[i:]]


def test_prop21_on_k4_keeps_everything():
    res = prop21_refine(complete(4), 2, 0.4)
    assert res.vertices == frozenset(range(4))
    assert res.ratio == 1
    assert all(c.passed for c in res.bounds)


def test_prop21_regular_graph_identity():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])  # C_6
    res = prop21_refine(g, 2, 0.4)
    assert res.vertices == frozenset(range(6))


def test_prop21_constants_for_the_edge_pipeline():
    # k = 2, alpha = 0.4 give the 5-nearly-regular, keep-a-sixth refine
    k, alpha = Fraction(2), Fraction("0.4")
    assert k / alpha == 5
    assert (k - 2 * k * alpha) / (2 * k - 4 * alpha) == Fraction(1, 6)


@pytest.mark.parametrize("k, alpha, message", [
    (1, 0.4, "k must be > 1"),
    (Fraction(1, 2), 0.4, "k must be > 1"),
    (2, 0, "alpha must lie in (0, 1/2)"),
    (2, 0.5, "alpha must lie in (0, 1/2)"),
])
def test_prop21_checks_its_arguments(k, alpha, message):
    with pytest.raises(PreconditionError) as exc:
        prop21_refine(complete(4), k, alpha)
    assert str(exc.value) == message


@pytest.mark.parametrize("k", [1, 0.5])
def test_prop22_refuses_k_at_most_one(k):
    with pytest.raises(PreconditionError) as exc:
        prop22_reduce(complete(4), k)
    assert str(exc.value) == "k must be > 1"


def test_prop21_rejects_spread_precondition():
    with pytest.raises(PreconditionError):
        prop21_refine(star(10), 2, 0.4)


def test_prop21_edgeless_short_circuits():
    res = prop21_refine(Graph.empty(5), 2, 0.4)
    assert res.vertices == frozenset(range(5)) and res.ratio == 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,alpha", [(2, 0.3), (2, 0.4), (3, 0.3), (3, 0.4)])
def test_prop21_contract_on_seeded_samples(seed, k, alpha):
    g = sample_gnp_uniform(60, 0.3, seed)
    stats = degree_stats(g)
    if stats.max_deg > k * stats.avg_deg:
        pytest.skip("sample misses the spread precondition")
    res = prop21_refine(g, k, alpha)
    kf, af = Fraction(k), Fraction(str(alpha))
    assert res.ratio <= kf / af
    assert len(res.vertices) >= (1 - 2 * af) / (kf - 2 * af) * g.n
    kept_m = res.stats.avg_deg * len(res.vertices) / 2
    assert kept_m >= (kf - 2 * kf * af) / (2 * kf - 4 * af) * g.n * stats.avg_deg


def test_prop22_regular_graph_returned_in_round_zero():
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    sub, trace, _, _ = prop22_reduce(g, 2)
    assert sub.n == 8 and trace.steps == [] and trace.thresholds == []


def test_prop22_star_example():
    sub, trace, checks, _ = prop22_reduce(star(9), 2)
    assert (sub.n, sub.m) == (8, 0)
    assert [(c.bound_id, c.achieved, c.passed) for c in checks] == [
        ("Prop2.2-spread", 0, True), ("Prop2.2-size", 8, True)]
    assert [(s.vertex, s.degree, s.round_index) for s in trace.steps] == [(0, 8, 0)]
    assert trace.thresholds == [Fraction(16, 9)]
    assert 8 >= 9 ** (1 + math.log2(1 - 0.5))


def test_prop22_edgeless_unchanged():
    sub, trace, _, _ = prop22_reduce(Graph.empty(7), 3)
    assert sub.n == 7 and trace.steps == []


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 4, 8])
def test_prop22_contract_on_seeded_samples(seed, k):
    g = sample_gnp_uniform(50, 0.25, 100 + seed)
    sub, trace, _, _ = prop22_reduce(g, k)
    s = degree_stats(sub)
    assert s.max_deg <= k * s.avg_deg
    assert sub.n >= g.n ** (1 + math.log2(1 - 1 / k)) - 1e-9
    assert all(step.degree >= trace.thresholds[step.round_index]
               for step in trace.steps)


def test_prop22_deterministic():
    g = sample_gnp_uniform(40, 0.4, 3)
    assert prop22_reduce(g, 2)[1].steps == prop22_reduce(g, 2)[1].steps


HOST_ID_GRAPHS = {
    "star(9)": star(9),
    "path(12)": Graph.from_edges(12, [(i, i + 1) for i in range(11)]),
    "empty(7)": Graph.empty(7),
    "G(40,0.2)#3": sample_gnp_uniform(40, 0.2, 3),
}


@pytest.mark.parametrize("name", sorted(HOST_ID_GRAPHS))
def test_prop22_host_ids_are_the_survivors_and_the_pipeline_reads_them(name):
    g = HOST_ID_GRAPHS[name]
    c = Fraction(3)
    af = (1 / c + Fraction(1, 2)) / 2  # the pipeline's split of c
    k1 = af * c
    for k in (2, k1):
        sub, trace, _, host_ids = prop22_reduce(g, k)
        deleted = {s.vertex for s in trace.steps}
        assert host_ids == tuple(v for v in range(g.n) if v not in deleted)
        assert sorted(sub.edges()) == sorted(induced(g, host_ids)[0].edges())
    refined = prop21_refine(sub, k1, af)
    assert proposition11_pipeline(g, c).vertices == frozenset(
        host_ids[v] for v in refined.vertices)


def test_pipeline_rejects_small_c():
    with pytest.raises(PreconditionError):
        proposition11_pipeline(complete(5), 2)


def test_pipeline_regular_graph_is_identity():
    g = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    res = proposition11_pipeline(g, 3)
    assert res.vertices == frozenset(range(10))


def test_pipeline_star_returns_leaves():
    res = proposition11_pipeline(star(100), 3)
    assert res.vertices == frozenset(range(1, 100))
    assert res.ratio == 1


@pytest.mark.parametrize("seed", range(4))
def test_pipeline_seeded_contract(seed):
    g = sample_gnp_uniform(60, 0.5, 200 + seed)
    res = proposition11_pipeline(g, 2.5)
    assert all(c.passed for c in res.bounds)
    assert res.ratio <= Fraction("2.5")
    from nearreg import induced
    sub, _ = induced(g, res.vertices)
    assert nearly_regular_check(sub, 2.5)
