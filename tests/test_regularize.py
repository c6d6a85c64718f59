"""Density boost, extraction, and the two pipelines."""

import math
import pathlib
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    BoundViolationError,
    CapExceededError,
    Graph,
    PreconditionError,
    SizeCapError,
    degree_stats,
    density_boost,
    find_dense_subset,
    induced,
    lemma25_extract,
    parse_edge_list,
    sample_gnp_uniform,
    star,
    theorem12_pipeline,
    theorem13_pipeline,
    turan_independent_set,
)
from nearreg.cli import _boost, _ledger, _result
from nearreg.graph import as_fraction
from nearreg.peeling import peel_min
from nearreg.regularize import (
    _boost_target,
    _dense_cut,
    _dense_search,
    _density,
    _inner_epsilon,
)

from conftest import (
    bit_indices,
    bitmask_rows,
    count_edges_between,
    count_edges_in,
    full_mask,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def complete(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def k4_plus_isolated(extra=4):
    return Graph.from_edges(4 + extra,
                            [(a, b) for a in range(4) for b in range(a + 1, 4)])


def qualifies(g, members, eps):
    p = _density(g)
    mask = 0
    for v in members:
        mask |= 1 << v
    e = count_edges_in(g, mask)
    return (len(members) >= Fraction(str(eps)) * g.n and len(members) >= 2
            and e >= comb(len(members), 2) * p * (1 + Fraction(str(eps))))


def test_find_dense_subset_on_clique_is_none():
    assert find_dense_subset(complete(8), 0.3) is None


def test_find_dense_subset_k4_isolated():
    g = k4_plus_isolated()
    u = find_dense_subset(g, 0.5)
    # largest qualifying set: the clique plus two spectators still clears
    # the density bar; ties resolve lexicographically
    assert u == frozenset(range(6))
    assert qualifies(g, u, 0.5)


def test_find_dense_subset_requires_an_edge():
    with pytest.raises(PreconditionError):
        find_dense_subset(Graph.empty(5), 0.3)


def _smallest_last_steps(g):
    """The steps of `peel_min` with no threshold: the whole smallest-last
    order of g with the degrees at removal."""
    return peel_min(g, math.inf)[2]


def _smallest_last(g):
    steps = _smallest_last_steps(g)
    return [s.vertex for s in steps], [s.degree for s in steps]


def _heuristic_dense_subset(g, eps):
    """The boost's heuristic round on g: the longest proper suffix of the
    smallest-last order that qualifies, or None."""
    steps = _smallest_last_steps(g)
    cut = _dense_cut(steps, 0, g.m, as_fraction(eps))
    return None if cut is None else frozenset(s.vertex
                                              for s in steps[cut[0]:])


@pytest.mark.parametrize("eps", [0, 1, Fraction(3, 2)])
def test_find_dense_subset_refuses_eps_outside_0_1(eps):
    with pytest.raises(PreconditionError) as exc:
        find_dense_subset(complete(4), eps)
    assert str(exc.value) == "eps must lie in (0, 1)"


def test_find_dense_subset_is_none_when_no_size_has_the_edges():
    # one edge on 4 vertices at eps 0.9: sets need at least 4 vertices,
    # and 4 vertices would need 1.9 edges
    assert find_dense_subset(Graph.from_edges(4, [(0, 1)]), 0.9) is None


@given(st.integers(2, 40), st.integers(0, 800), st.fractions(0, 1))
@settings(max_examples=300, deadline=None)
def test_boost_target_is_the_target_density_and_its_least_size(n, m, eps):
    target = Fraction(m, comb(n, 2)) * (1 + eps)
    bar = _boost_target(n, m, eps)
    if target > 1:
        assert bar is None
    else:
        num, den, t_min = bar
        assert Fraction(num, den) == target
        assert t_min == max(2, math.ceil(eps * n))


def test_find_dense_subset_heuristic_mode():
    g = sample_gnp_uniform(30, 0.4, 17)
    u = _heuristic_dense_subset(g, 0.2)
    if u is not None:
        assert qualifies(g, u, 0.2)


@pytest.mark.parametrize("seed", range(4))
def test_find_dense_subset_exact_result_qualifies(seed):
    g = sample_gnp_uniform(16, 0.5, 40 + seed)
    u = find_dense_subset(g, 0.3)
    if u is not None:
        assert qualifies(g, u, 0.3)


def test_density_boost_clique_zero_rounds():
    out = density_boost(complete(7), 0.3)
    assert out.rounds == 0 and out.certified and out.density == 1
    assert out.vertices == frozenset(range(7))


def test_density_boost_lands_on_the_clique():
    out = density_boost(k4_plus_isolated(), 0.5)
    assert out.vertices == frozenset(range(4))
    assert out.density == 1 and out.certified


@pytest.mark.parametrize("eps, exact_limit, message", [
    (0, 24, r"epsilon must lie in \(0, 1\)"),
    (1, 24, r"epsilon must lie in \(0, 1\)"),
    (float("nan"), 24, r"epsilon must lie in \(0, 1\)"),
    (0.3, 0, "exact_limit must be >= 1"),
])
def test_density_boost_checks_its_arguments(eps, exact_limit, message):
    with pytest.raises(PreconditionError, match=message):
        density_boost(complete(7), eps, exact_limit)


@pytest.mark.parametrize("seed", range(5))
def test_density_boost_certified_contract(seed):
    g = sample_gnp_uniform(20, 0.5, seed)
    p0 = _density(g)
    out = density_boost(g, 0.3, exact_limit=24)
    assert out.certified
    bound = (2 / 0.3) * math.log(1 / float(p0))
    assert out.rounds < bound
    assert out.subgraph.n >= 0.3 ** bound * g.n
    assert out.density >= p0 * (Fraction(13, 10) ** out.rounds)


def _peel_order_reference(g):
    """Min-degree peel order by a full scan of the live vertices per step,
    lowest id first on ties; returns (order, degree-at-removal list)."""
    deg = g.degrees()
    rows = bitmask_rows(g)
    alive = full_mask(g)
    order, removed_deg = [], []
    for _ in range(g.n):
        best = None
        for v in bit_indices(alive):
            if best is None or deg[v] < deg[best]:
                best = v
        order.append(best)
        removed_deg.append(deg[best])
        alive &= ~(1 << best)
        for u in bit_indices(rows[best] & alive):
            deg[u] -= 1
    return order, removed_deg


def _find_dense_subset_reference(g, eps, exact_limit):
    """The heuristic search above ``exact_limit`` with a fresh peel of g:
    the longest proper suffix of the peel order that qualifies."""
    if g.n <= exact_limit:
        return find_dense_subset(g, eps)
    eps_f = Fraction(str(eps))
    target = _density(g) * (1 + eps_f)
    if target > 1:
        return None
    order, removed_deg = _peel_order_reference(g)
    e = g.m
    for i in range(1, g.n - max(2, math.ceil(eps_f * g.n)) + 1):
        e -= removed_deg[i - 1]
        if e >= comb(g.n - i, 2) * target:
            return frozenset(order[i:])
    return None


def _density_boost_reference(g, eps, exact_limit):
    """One search and one induced subgraph per round."""
    cur, vmap, rounds = g, tuple(range(g.n)), 0
    certified = True
    while True:
        certified = certified and cur.n <= exact_limit
        subset = _find_dense_subset_reference(cur, eps, exact_limit)
        if subset is None:
            break
        cur, idmap = induced(cur, subset)
        vmap = tuple(vmap[i] for i in idmap)
        rounds += 1
    return cur, certified, rounds, frozenset(vmap)


def _tie_heavy_graph(rng, max_n=48):
    """Small graphs with many equal degrees: circulants, cliques joined by
    paths, stars on a clique, and sparse or dense G(n, p)."""
    n = rng.randint(6, max_n)
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.randint(1, max(1, n // 4))
        edges = {tuple(sorted((i, (i + j) % n))) for i in range(n)
                 for j in range(1, k + 1)}
    elif kind == 1:
        size = rng.randint(3, 7)
        edges = {(a, b) for c in range(0, n - size + 1, size)
                 for a in range(c, c + size) for b in range(a + 1, c + size)}
        edges |= {(v, v + 1) for v in range(n - 1)}
    elif kind == 2:
        core = rng.randint(3, n // 2)
        edges = {(a, b) for a in range(core) for b in range(a + 1, core)}
        edges |= {(rng.randrange(core), v) for v in range(core, n)}
    else:
        return sample_gnp_uniform(n, rng.choice((0.1, 0.3, 0.6)),
                                  rng.randrange(2**32))
    return Graph.from_edges(n, sorted(edges))


@pytest.mark.parametrize("seed", range(3))
def test_density_boost_matches_the_per_round_reference(seed):
    import random

    rng = random.Random(seed)
    for _ in range(25):
        g = _tie_heavy_graph(rng)
        if g.m == 0:
            continue
        assert _smallest_last(g) == _peel_order_reference(g)
        for eps in (0.05, 0.1, 0.3):
            for exact_limit in (1, 4, 12):
                if g.n > exact_limit:
                    assert (_heuristic_dense_subset(g, eps) ==
                            _find_dense_subset_reference(g, eps, exact_limit))
                out = density_boost(g, eps, exact_limit)
                sub, certified, rounds, vertices = \
                    _density_boost_reference(g, eps, exact_limit)
                assert out.subgraph == sub
                ledger = _ledger(out.bounds)
                assert _boost(out) == ({
                    "n": sub.n, "m": sub.m,
                    "density": float(_density(sub)),
                    "density_exact": str(_density(sub)),
                    "certified": certified, "rounds": rounds,
                    "vertices": sorted(vertices),
                    "bounds": ledger}, ledger)
                assert [c.bound_id for c in out.bounds] == [
                    "Lem2.3-rounds", "Lem2.3-size"]


def _dense_subset_brute_force(g, eps):
    """Every vertex set by size, largest first, then in lexicographic order:
    the first of at least max(2, eps*n) vertices whose spanned edges reach
    C(t, 2) * density * (1+eps)."""
    eps_f = as_fraction(eps)
    target = _density(g) * (1 + eps_f)
    for t in range(g.n, max(2, math.ceil(eps_f * g.n)) - 1, -1):
        for combo in combinations(range(g.n), t):
            if count_edges_in(g, sum(1 << v for v in combo)) >= \
                    comb(t, 2) * target:
                return frozenset(combo)
    return None


@pytest.mark.parametrize("seed", range(2))
def test_find_dense_subset_matches_brute_force(seed):
    import random

    rng = random.Random(100 + seed)
    found = 0
    for _ in range(30):
        g = _tie_heavy_graph(rng, max_n=11)
        if g.m == 0:
            continue
        for eps in (0.05, 0.1, 0.3, 0.5):
            expected = _dense_subset_brute_force(g, eps)
            assert find_dense_subset(g, eps) == expected
            found += expected is not None
    assert found > 0


def test_dense_search_refuses_65_vertices_before_any_search():
    with pytest.raises(SizeCapError):
        _dense_search(Graph.empty(65), 0, 1)
    # 64 vertices are searched: one node per id, then the full set
    search = _dense_search(Graph.empty(64), 0, 1)
    assert search(64) == (tuple(range(64)), 65)


def test_find_dense_subset_refuses_graphs_above_64_vertices():
    g = Graph.from_edges(65, [(v, v + 1) for v in range(64)])
    # at eps 0.99 no size is admissible: the search set-up still refuses
    for eps in (0.1, 0.99):
        with pytest.raises(SizeCapError):
            find_dense_subset(g, eps)
    with pytest.raises(SizeCapError):
        density_boost(sample_gnp_uniform(70, 0.1, 3), 0.1, exact_limit=100)


def _path(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def _disjoint_cliques(copies, size):
    return Graph.from_edges(copies * size, [
        (c + a, c + b) for c in range(0, copies * size, size)
        for a in range(size) for b in range(a + 1, size)])


def test_peel_order_on_all_tie_shapes():
    shapes = [star(n) for n in (2, 9, 200)]
    shapes += [_path(n) for n in (1, 2, 7, 300)]
    shapes += [complete(n) for n in (1, 2, 9, 40)]
    shapes += [_disjoint_cliques(6, 5)]
    for g in shapes:
        assert _smallest_last(g) == _peel_order_reference(g)


def test_lemma25_on_large_clique():
    res = lemma25_extract(complete(100), 0.04)
    assert len(res.vertices) == 96
    assert res.ratio == 1
    assert all(c.passed for c in res.bounds)


def test_lemma25_keeps_the_six_cycle_at_the_exact_inner_epsilon():
    # at eps 0.5, eps0 = 1/144 puts the peel threshold 2.4 * (1 - 2 *
    # sqrt(eps0)) exactly on the cycle's degree 2 and the cap at 1; an eps0
    # computed in floats lands below 1/144, which made the cap 0 and the
    # threshold's ceiling 3
    cycle = Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    eps0 = _inner_epsilon(0.5)
    assert eps0 == Fraction(1, 144)
    assert lemma25_extract(cycle, eps0).vertices == frozenset(range(6))


def test_lemma25_star_hits_the_cap():
    with pytest.raises(CapExceededError):
        lemma25_extract(star(10), 0.1)


def test_lemma25_cap_admits_exactly_cap_deletions():
    # the peel deletes 5 vertices at both eps: that is the cap
    # floor(2*sqrt(1/16)*10) = 5, which passes, and one more than the cap
    # floor(2*sqrt(1/25)*10) = 4, which is refused
    g = sample_gnp_uniform(10, 0.5, 0)
    res = lemma25_extract(g, Fraction(1, 16))
    assert res.vertices == frozenset({2, 4, 5, 6, 7})
    assert res.ratio == Fraction(4, 3)
    with pytest.raises(CapExceededError, match="cap of 4 deletions"):
        lemma25_extract(g, Fraction(1, 25))


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("eps", [0.2, 0.24])
def test_lemma25_refuses_a_peel_that_leaves_no_vertex(n, eps):
    # the top cut takes the hub, and the peel below ceil(n*p*(1 -
    # 2*sqrt(eps))) = 1 deletes every isolated leaf within the cap
    # floor(2*sqrt(eps)*n), which eps >= 3 - 2*sqrt(2) lets reach n - 1
    with pytest.raises(PreconditionError, match="^the peel left no vertex$"):
        lemma25_extract(star(n), eps)


@pytest.mark.parametrize("eps", [Fraction(1, 4), 0.3, 0.9])
def test_lemma25_refuses_eps_from_a_quarter(eps):
    # from eps = 1/4 on the peel threshold n*p*(1 - 2*sqrt(eps)) is <= 0:
    # the isolated vertices would survive next to the triangle
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        lemma25_extract(g, eps)


def test_lemma25_needs_an_edge():
    with pytest.raises(PreconditionError):
        lemma25_extract(Graph.empty(4), 0.1)


def test_lemma25_threshold_on_an_integer_is_not_rounded_up():
    # C29(1,2,3) plus 18 chords: n = 29, m = 105, degrees 6..8. At eps = 0.01
    # the peel threshold (2m/(n-1)) * (1 - 2/10) is exactly 6, the minimum
    # degree, so nothing may be peeled. Evaluated in floats as
    # n * p * (1 - 2 * sqrt(eps)) it is 6.000000000000001.
    g = parse_edge_list((FIXTURES / "lemma25_c29.el").read_text())
    assert (g.n, g.m) == (29, 105)
    res = lemma25_extract(g, 0.01)
    assert res.vertices == frozenset(range(29))
    assert [c.bound_id for c in res.bounds] == [
        "Lem2.5-size", "Lem2.5-maxdeg", "Lem2.5-mindeg", "Lem2.5-ratio"]
    assert all(c.passed for c in res.bounds)


def _lemma25_peel_reference(g, eps):
    """Survivors and peel-deletion count of Lemma 2.5, recomputed naively:
    drop the floor(eps*n) top-degree vertices, then delete while some vertex
    has degree d with (A - d) > 0 and (A - d)^2 > 4 A^2 eps, A = 2m/(n-1)."""
    n = g.n
    a = Fraction(2 * g.m, n - 1)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    alive = set(order[int(eps * n):])
    deleted = 0

    def peelable(v):
        gap = a - sum(1 for u in g.neighbors(v) if u in alive)
        return gap > 0 and gap * gap > 4 * a * a * eps

    while True:
        low = next((v for v in sorted(alive) if peelable(v)), None)
        if low is None:
            return frozenset(alive), deleted
        alive.discard(low)
        deleted += 1


@st.composite
def near_circulants(draw):
    """A circulant C_n(1..k) with a few vertex pairs toggled."""
    n = draw(st.integers(min_value=4, max_value=24))
    k = draw(st.integers(min_value=1, max_value=(n - 1) // 2))
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n)
             for j in range(1, k + 1)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=8)):
        edges ^= {pair}
    return Graph.from_edges(n, sorted(edges))


@given(near_circulants(), st.sampled_from([Fraction(1, 100), Fraction(1, 64),
                                           Fraction(1, 25), Fraction(1, 16)]))
@settings(max_examples=300, deadline=None)
def test_lemma25_peel_matches_the_exact_predicate(g, eps):
    if g.m == 0:
        return
    survivors, deleted = _lemma25_peel_reference(g, eps)
    cap = 0
    while (cap + 1) ** 2 <= 4 * g.n * g.n * eps:
        cap += 1
    if deleted > cap:
        with pytest.raises(CapExceededError):
            lemma25_extract(g, eps)
        return
    kept_degrees = [sum(1 for u in g.neighbors(v) if u in survivors)
                    for v in survivors]
    try:
        res = lemma25_extract(g, eps)
    except BoundViolationError as exc:
        achieved = {c.bound_id: c.achieved for c in exc.checks}
        assert achieved["Lem2.5-size"] == len(survivors)
        assert achieved["Lem2.5-maxdeg"] == max(kept_degrees)
        assert achieved["Lem2.5-mindeg"] == min(kept_degrees)
        return
    assert res.vertices == survivors


@pytest.mark.parametrize("seed", range(5))
def test_lemma25_bounds_on_certified_boost_outputs(seed):
    eps = 0.2  # Lemma 2.5 needs eps < 1/4
    g = sample_gnp_uniform(20, 0.5, seed)
    out = density_boost(g, eps)
    res = lemma25_extract(out.subgraph, eps)
    n, p = out.subgraph.n, float(out.density)
    se = math.sqrt(eps)
    s = res.stats
    assert len(res.vertices) >= (1 - eps - 2 * se) * n - 1e-9
    assert s.max_deg <= (1 + 3 * se) * n * p + 1e-9
    assert s.min_deg >= (1 - 2 * se) * n * p
    assert float(res.ratio) <= 1 + 6 * se


def _expected_joint_edges(g, members, x):
    """Exact E[e(U cup X)] for a uniform x-subset X of the complement."""
    mask = 0
    for v in members:
        mask |= 1 << v
    comp = full_mask(g) & ~mask
    e1 = count_edges_in(g, mask)
    e2 = count_edges_between(g, mask, comp)
    e3 = count_edges_in(g, comp)
    rest = g.n - len(members)
    return (Fraction(e1) + Fraction(x, rest) * e2
            + Fraction(x * (x - 1), rest * (rest - 1)) * e3)


@pytest.mark.parametrize("seed", range(5))
def test_boundary_restates_the_dense_subset_condition(seed):
    # A certified boost output has no set of t >= eps*n vertices spanning
    # more than (1+eps)*p*C(t, 2) edges, so neither does the average over
    # the t-sets that extend any floor(eps*n) vertices by x more: the
    # expectation argument of the boundary bound, checked exactly here for
    # every sampled set.
    import random

    eps = 0.3
    g = sample_gnp_uniform(20, 0.5, 300 + seed)
    out = density_boost(g, eps)
    assert out.certified
    sub = out.subgraph
    n = sub.n
    u_size = int(Fraction(str(eps)) * n)
    if u_size < 1 or n - u_size < 2:
        pytest.skip("output too small for the boundary setup")
    p = _density(sub)
    rng = random.Random(seed)
    for _ in range(20):
        members = frozenset(rng.sample(range(n), u_size))
        x = int(Fraction(str(math.sqrt(eps))) * (n - u_size))
        t = u_size + x
        if t < Fraction(str(eps)) * n:
            continue
        expected = _expected_joint_edges(sub, members, x)
        cap = comb(t, 2) * p * (1 + Fraction(str(eps)))
        assert expected <= cap, "an extension beats the certified density"


def test_turan_examples():
    assert turan_independent_set(complete(6)).vertices == frozenset({0})
    assert (turan_independent_set(Graph.empty(5)).vertices
            == frozenset(range(5)))
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert turan_independent_set(c5).vertices == frozenset({0, 2})


@pytest.mark.parametrize("seed", range(5))
def test_turan_bound_on_seeded_samples(seed):
    g = sample_gnp_uniform(40, 0.3, 500 + seed)
    s = turan_independent_set(g).vertices
    d = degree_stats(g).avg_deg
    assert len(s) * (d + 1) >= g.n
    sub, _ = induced(g, s)
    assert sub.m == 0


def _turan_reference(g):
    """The greedy independent set by a full scan of the live vertices per
    pick."""
    deg = g.degrees()
    rows = bitmask_rows(g)
    alive = full_mask(g)
    picked = []
    while alive:
        best = None
        for v in bit_indices(alive):
            if best is None or deg[v] < deg[best]:
                best = v
        picked.append(best)
        closed = (rows[best] | (1 << best)) & alive
        alive &= ~closed
        for u in bit_indices(closed):
            for w in bit_indices(rows[u] & alive):
                deg[w] -= 1
    return frozenset(picked)


@pytest.mark.parametrize("build", [lambda: _path(2000), lambda: star(1000),
                                   lambda: _disjoint_cliques(40, 25),
                                   lambda: sample_gnp_uniform(300, 0.05, 7),
                                   lambda: sample_gnp_uniform(200, 0.5, 8)],
                         ids=["path", "star", "cliques", "gnp", "gnp-dense"])
def test_turan_matches_the_scan_reference(build):
    g = build()
    assert turan_independent_set(g).vertices == _turan_reference(g)


@st.composite
def graphs_isolated_on_top(draw):
    """Edge sets on 0-30 vertices whose edges join only the first k ids, so
    the ids from k up are isolated; k <= 1 gives the edgeless graph. Half
    the draws take the complement within the first k, for dense graphs."""
    n = draw(st.integers(min_value=0, max_value=30))
    k = draw(st.integers(min_value=0, max_value=n))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        edges = set(pairs) - edges
    return Graph.from_edges(n, sorted(edges))


@given(graphs_isolated_on_top())
@settings(max_examples=300, deadline=None)
def test_min_degree_orders_match_the_scan_references(g):
    # the integer heap keys, Turán's stop once no vertex is live and its
    # picks with no live neighbour, against full scans of the live vertices
    assert turan_independent_set(g).vertices == _turan_reference(g)
    assert _smallest_last(g) == _peel_order_reference(g)


def test_theorem12_on_cliques():
    for eps in (0.3, 0.5):
        res = theorem12_pipeline(complete(100), eps)
        assert res.ratio == 1
        assert len(res.vertices) == 100 - int(Fraction(str(eps)) ** 2 / 36 * 100)


def test_theorem12_small_terminal_clique_hits_cap():
    # The boost certifies the no-dense-subset condition only for a tiny
    # near-clique here, and the extraction cap fires: the guarantee needs
    # more vertices than a K_4 terminal offers at this eps.
    with pytest.raises(CapExceededError):
        theorem12_pipeline(k4_plus_isolated(), 0.5)


def test_theorem12_needs_positive_eps_and_an_edge():
    with pytest.raises(PreconditionError):
        theorem12_pipeline(complete(5), 0)
    with pytest.raises(PreconditionError):
        theorem12_pipeline(Graph.empty(5), 0.3)


@pytest.fixture
def boost_tripwire(monkeypatch):
    """`density_boost` replaced by one that fails as soon as it is called."""
    from nearreg import regularize

    def tripped(*args, **kwargs):
        raise AssertionError("density_boost ran")

    monkeypatch.setattr(regularize, "density_boost", tripped)


@pytest.mark.parametrize("eps", [3, 3.0, 5.9, Fraction(7, 2)])
def test_boost_then_extract_refuses_epsilon_from_three_before_the_boost(
        eps, boost_tripwire):
    # at eps >= 3, eps^2/36 >= 1/4 lies outside the extraction's range
    for g in (sample_gnp_uniform(30, 0.3, 1), complete(10)):
        with pytest.raises(PreconditionError,
                           match=r"epsilon must lie in \(0, 3\)"):
            theorem12_pipeline(g, eps)
    with pytest.raises(PreconditionError,
                       match=r"epsilon must lie in \(0, 3\)"):
        theorem13_pipeline(complete(10), eps)  # the dense branch


def test_boost_then_extract_runs_the_boost_below_three(boost_tripwire):
    with pytest.raises(AssertionError, match="density_boost ran"):
        theorem12_pipeline(complete(10), 2.9)


def test_theorem13_turan_branch_keeps_epsilon_up_to_six(boost_tripwire):
    g = sample_gnp_uniform(200, 0.02, 1)
    for eps in (3.5, 5):
        res = theorem13_pipeline(g, eps)
        assert res.guarantee == "Thm1.3-turan no-guarantee"
        assert res.vertices == turan_independent_set(g).vertices


def test_theorem13_on_no_vertices():
    res = theorem13_pipeline(Graph.empty(0), 0.5)
    assert _result(res)[0] == {
        "vertices": [], "edges": None,
        "stats": {"max_deg": 0, "min_deg": 0, "avg_deg": 0.0,
                  "avg_deg_exact": "0", "density": 0.0,
                  "density_exact": "0"},
        "ratio": 1.0, "ratio_exact": "1",
        "guarantee": "Thm1.3-turan no-guarantee",
        "bounds": [{"id": "Thm1.3-turan-size", "kind": "lower",
                    "threshold": 0.0, "achieved": 0, "pass": True}]}


@pytest.mark.parametrize("g", [Graph.empty(0), Graph.from_edges(4, [(0, 1)]),
                               complete(10)])
def test_theorem13_checks_exact_limit_before_it_branches(g, boost_tripwire):
    # the Turan branch (the first two graphs) runs no boost, and the dense
    # one fails before the boost would check the limit itself
    with pytest.raises(PreconditionError, match="exact_limit must be >= 1"):
        theorem13_pipeline(g, 0.1, 0)


def test_theorem13_edgeless_goes_turan():
    res = theorem13_pipeline(Graph.empty(12), 0.1)
    assert res.vertices == frozenset(range(12))
    assert res.guarantee.startswith("Thm1.3-turan")


def test_theorem13_clique_goes_dense():
    res = theorem13_pipeline(complete(100), 0.1)
    assert res.guarantee.startswith("Thm1.3-dense")
    assert res.ratio == 1


def test_theorem13_sparse_tree_goes_turan():
    tree = Graph.from_edges(100, [(i, i + 1) for i in range(99)])
    res = theorem13_pipeline(tree, 0.1)
    assert res.guarantee.startswith("Thm1.3-turan")
    d = degree_stats(tree).avg_deg
    assert len(res.vertices) * (d + 1) >= 100


def test_theorem13_branch_contract_always_holds():
    for seed in range(5):
        g = sample_gnp_uniform(25, 0.2, 700 + seed)
        res = theorem13_pipeline(g, 0.1)
        if res.guarantee.startswith("Thm1.3-turan"):
            sub, _ = induced(g, res.vertices)
            assert sub.m == 0
        else:
            assert float(res.ratio) <= 1.1 + 1e-9


@pytest.mark.parametrize("pipeline", [theorem12_pipeline, theorem13_pipeline])
@pytest.mark.parametrize("eps", [0, -1, 6, 7, 1e308, 1e-170, 1e-155,
                                 math.nan, math.inf])
def test_pipelines_share_one_epsilon_gate(pipeline, eps):
    # eps0 = eps^2/36 must lie in (0, 1): eps = 6 made ln(1/eps0) = 0,
    # 1e308 overflowed eps0, 1e-170 underflows it to 0, and 1e-155 makes it
    # subnormal, so that 2/eps0 overflows a float
    with pytest.raises(PreconditionError, match=r"epsilon must lie in \(0, 6\)"):
        pipeline(complete(5), eps)


def test_theorem13_turan_branch_renames_the_turan_check():
    tree = Graph.from_edges(100, [(i, i + 1) for i in range(99)])
    res = theorem13_pipeline(tree, 0.1)
    turan = turan_independent_set(tree)
    assert res.vertices == turan.vertices and res.stats == turan.stats
    assert [c.bound_id for c in res.bounds] == ["Thm1.3-turan-size"]
    assert res.bounds[0].threshold == turan.bounds[0].threshold


def test_turan_and_matching_return_their_checked_ledger():
    from nearreg import matching_lower_bound

    g = sample_gnp_uniform(30, 0.3, 11)
    turan = turan_independent_set(g)
    assert turan.guarantee == "Turan-greedy" and turan.edges is None
    assert [c.bound_id for c in turan.bounds] == ["Turan-size"]
    assert turan.stats.max_deg == 0 and turan.bounds[0].passed
    matching = matching_lower_bound(g)
    assert matching.guarantee == "Matching-lower-bound"
    assert [c.bound_id for c in matching.bounds] == ["Matching-size"]
    assert matching.bounds[0].threshold == -(-g.m // g.n)
    assert matching.stats.max_deg == matching.stats.min_deg == 1
