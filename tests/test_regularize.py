"""Density boost, boundary diagnostic, extraction, and the two pipelines."""

import math
import pathlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    BoostParams,
    BoundViolationError,
    CapExceededError,
    Graph,
    PreconditionError,
    check_edge_boundary,
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
from nearreg.regularize import _density

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
    e = g.count_edges_in(mask)
    return (len(members) >= Fraction(str(eps)) * g.n and len(members) >= 2
            and e >= comb(len(members), 2) * p * (1 + Fraction(str(eps))))


def test_find_dense_subset_on_clique_is_none():
    assert find_dense_subset(complete(8), 0.3, BoostParams(0.3)) is None


def test_find_dense_subset_k4_isolated():
    g = k4_plus_isolated()
    u = find_dense_subset(g, 0.5, BoostParams(0.5))
    # largest qualifying set: the clique plus two spectators still clears
    # the density bar; ties resolve lexicographically
    assert u == frozenset(range(6))
    assert qualifies(g, u, 0.5)


def test_find_dense_subset_requires_an_edge():
    with pytest.raises(PreconditionError):
        find_dense_subset(Graph.empty(5), 0.3, BoostParams(0.3))


def test_find_dense_subset_heuristic_mode():
    g = sample_gnp_uniform(30, 0.4, 17)
    params = BoostParams(0.2, exact_limit=10)  # force the suffix heuristic
    u = find_dense_subset(g, 0.2, params)
    if u is not None:
        assert qualifies(g, u, 0.2)


@pytest.mark.parametrize("seed", range(4))
def test_find_dense_subset_exact_result_qualifies(seed):
    g = sample_gnp_uniform(16, 0.5, 40 + seed)
    u = find_dense_subset(g, 0.3, BoostParams(0.3))
    if u is not None:
        assert qualifies(g, u, 0.3)


def test_density_boost_clique_zero_rounds():
    out = density_boost(complete(7), BoostParams(0.3))
    assert out.rounds == 0 and out.certified and out.density == 1
    assert out.vertices == frozenset(range(7))


def test_density_boost_lands_on_the_clique():
    out = density_boost(k4_plus_isolated(), BoostParams(0.5))
    assert out.vertices == frozenset(range(4))
    assert out.density == 1 and out.certified


@pytest.mark.parametrize("seed", range(5))
def test_density_boost_certified_contract(seed):
    g = sample_gnp_uniform(20, 0.5, seed)
    p0 = _density(g)
    out = density_boost(g, BoostParams(0.3, exact_limit=24))
    assert out.certified
    bound = (2 / 0.3) * math.log(1 / float(p0))
    assert out.rounds < bound
    assert out.subgraph.n >= 0.3 ** bound * g.n
    assert out.density >= p0 * (Fraction(13, 10) ** out.rounds)


def test_boundary_edgeless_is_true():
    assert check_edge_boundary(Graph.empty(10), frozenset({0}), 0.1)


def test_boundary_k10_example():
    assert check_edge_boundary(complete(10), {0, 1}, 0.2)


def test_boundary_star_hub_fails():
    assert not check_edge_boundary(star(10), {0}, 0.1)


def test_boundary_size_mismatch():
    with pytest.raises(PreconditionError):
        check_edge_boundary(complete(10), {0, 1, 2}, 0.2)


def test_lemma25_on_large_clique():
    res = lemma25_extract(complete(100), 0.04)
    assert len(res.vertices) == 96
    assert res.ratio == 1
    assert all(c.passed for c in res.bounds)


def test_lemma25_star_hits_the_cap():
    with pytest.raises(CapExceededError):
        lemma25_extract(star(10), 0.1)


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
    g = sample_gnp_uniform(20, 0.5, seed)
    out = density_boost(g, BoostParams(0.3))
    res = lemma25_extract(out.subgraph, 0.3)
    n, p = out.subgraph.n, float(out.density)
    se = math.sqrt(0.3)
    s = res.stats
    assert len(res.vertices) >= (1 - 0.3 - 2 * se) * n - 1e-9
    assert s.max_deg <= (1 + 3 * se) * n * p + 1e-9
    assert s.min_deg >= (1 - 2 * se) * n * p
    assert float(res.ratio) <= 1 + 6 * se


def _expected_joint_edges(g, members, x):
    """Exact E[e(U cup X)] for a uniform x-subset X of the complement."""
    mask = 0
    for v in members:
        mask |= 1 << v
    comp = g.full_mask() & ~mask
    e1 = g.count_edges_in(mask)
    e2 = g.count_edges_between(mask, comp)
    e3 = g.count_edges_in(comp)
    rest = g.n - len(members)
    return (Fraction(e1) + Fraction(x, rest) * e2
            + Fraction(x * (x - 1), rest * (rest - 1)) * e3)


@pytest.mark.parametrize("seed", range(5))
def test_boundary_restates_the_dense_subset_condition(seed):
    # On a certified boost output, a failing boundary check would force some
    # set to span more edges than the no-dense-subset condition allows; the
    # expectation argument is checked exactly here.
    import random

    eps = 0.3
    g = sample_gnp_uniform(20, 0.5, 300 + seed)
    out = density_boost(g, BoostParams(eps))
    sub = out.subgraph
    n = sub.n
    u_size = int(Fraction(str(eps)) * n)
    if u_size < 1 or n - u_size < 2:
        pytest.skip("output too small for the boundary setup")
    p = _density(sub)
    rng = random.Random(seed)
    for _ in range(20):
        members = frozenset(rng.sample(range(n), u_size))
        if check_edge_boundary(sub, members, eps):
            continue
        x = int(Fraction(str(math.sqrt(eps))) * (n - u_size))
        t = u_size + x
        if t < Fraction(str(eps)) * n:
            continue
        expected = _expected_joint_edges(sub, members, x)
        cap = comb(t, 2) * p * (1 + Fraction(str(eps)))
        assert expected <= cap, "boundary failure contradicts certification"


def test_turan_examples():
    assert turan_independent_set(complete(6)) == frozenset({0})
    assert turan_independent_set(Graph.empty(5)) == frozenset(range(5))
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert turan_independent_set(c5) == frozenset({0, 2})


@pytest.mark.parametrize("seed", range(5))
def test_turan_bound_on_seeded_samples(seed):
    g = sample_gnp_uniform(40, 0.3, 500 + seed)
    s = turan_independent_set(g)
    d = degree_stats(g).avg_deg
    assert len(s) * (d + 1) >= g.n
    sub, _ = induced(g, s)
    assert sub.m == 0


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
