"""Exact searches and Monte Carlo estimators against independent checks."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    Graph,
    PreconditionError,
    SizeCapError,
    blocks,
    estimate_point_prob,
    estimate_regular_prob,
    exact_f,
    induced,
    point_prob_distribution,
    sample_gnp_bar,
    sample_gnp_uniform,
    star,
)
from nearreg import oracle
from nearreg.instances import p_bar

from conftest import exact_f_n, nearly_regular_check
from test_subset_search import exact_search, reference_exact_f


def complete(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def brute_force_f(g, c):
    best, witness = 0, frozenset()
    for t in range(g.n, 0, -1):
        for combo in combinations(range(g.n), t):
            sub, _ = induced(g, combo)
            if nearly_regular_check(sub, c):
                return t, frozenset(combo)
    return best, witness


def test_exact_f_examples():
    assert exact_f(complete(6), 1).value == 6
    r = exact_f(star(4), 1)
    assert r.value == 3 and r.witness == frozenset({1, 2, 3})
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    r = exact_f(p3, 1)
    assert r.value == 2 and r.witness == frozenset({0, 1})


def test_exact_f_refuses_c_below_one():
    with pytest.raises(PreconditionError) as exc:
        exact_f(complete(3), 0.5)
    assert str(exc.value) == "c must be >= 1"


def test_exact_f_on_the_graph_with_no_vertices():
    assert exact_f(Graph.empty(0), 2) == oracle.OracleResult(0, frozenset(), 0)


@pytest.mark.parametrize("estimate, message", [
    (lambda: estimate_point_prob([0.5, 0.5], 1, 0, 0), "trials must be >= 1"),
    (lambda: estimate_regular_prob(10, 4, 0, 0), "trials must be >= 1"),
    (lambda: estimate_regular_prob(10, 0, 10, 0), "need 1 <= k <= n"),
    (lambda: estimate_regular_prob(10, 11, 10, 0), "need 1 <= k <= n"),
], ids=["point-trials", "regular-trials", "regular-k-0", "regular-k-above-n"])
def test_estimates_check_their_arguments(estimate, message):
    with pytest.raises(PreconditionError) as exc:
        estimate()
    assert str(exc.value) == message


def test_exact_f_witness_is_lexicographically_least():
    # the path 0-1-2-3 at c = 1: no 3-set is regular and all six 2-sets
    # are, so the least of them is the witness
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    r = exact_f(g, 1)
    assert (r.value, r.witness) == (2, frozenset({0, 1}))


@pytest.mark.parametrize("seed", range(6))
def test_exact_f_matches_brute_force(seed):
    g = sample_gnp_uniform(9, 0.4, 600 + seed)
    for c in (1, 1.5, 2):
        value, witness = brute_force_f(g, c)
        r = exact_f(g, c)
        assert r.value == value
        assert r.witness == witness  # same size and lex-least
        sub, _ = induced(g, r.witness)
        assert nearly_regular_check(sub, c)


@pytest.mark.parametrize("n", [14, 15, 16])
@pytest.mark.parametrize("seed", [1, 2])
def test_exact_f_matches_brute_force_on_gnp_bar(n, seed):
    # the skewed model the gnpbar-scan experiment searches, at c = 1
    g = sample_gnp_bar(n, seed)
    r = exact_f(g, 1)
    assert (r.value, r.witness) == brute_force_f(g, 1)


@pytest.mark.parametrize("seed", range(4))
def test_exact_f_monotone_in_c(seed):
    g = sample_gnp_uniform(12, 0.5, 800 + seed)
    values = [exact_f(g, c).value for c in (1, 1.5, 2, 5)]
    assert values == sorted(values)


def test_exact_f_caps():
    with pytest.raises(SizeCapError, match="size cap 24"):
        exact_f(Graph.empty(oracle.VERTEX_CAP + 1), 1)
    with pytest.raises(SizeCapError):
        exact_f(Graph.empty(70), 1)
    assert exact_f(Graph.empty(oracle.VERTEX_CAP), 1).value == 24


def test_exact_f_search_node_counts():
    # the node counts of the all-sizes search, ``explored``, pinned
    cases = [(sample_gnp_uniform(12, 0.5, 800), 1, 6, 648),
             (sample_gnp_uniform(12, 0.5, 801), 1.5, 9, 248),
             (blocks(2), 2, 7, 469),
             (sample_gnp_bar(14, 3), 1, 9, 323)]
    for g, c, value, explored in cases:
        r = exact_f(g, c)
        assert (r.value, r.explored) == (value, explored)


def test_exact_f_scan_nodes_fall_below_half_of_the_per_size_search():
    # the benchmark's exact scan, gnp-bar(18) at seeds 0..9 and c = 1: one
    # search per size from the top took 106,236 nodes in all
    total = sum(exact_f(sample_gnp_bar(18, s), 1).explored for s in range(10))
    assert total == 42039
    assert 2 * total < 106236


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@given(small_graphs(), st.sampled_from([1, Fraction(5, 4), Fraction(3, 2),
                                        2, 3]))
@settings(max_examples=300, deadline=None)
def test_exact_f_answers_as_the_per_size_search(g, c):
    assert exact_search(g, c)[:2] == reference_exact_f(g, c)[:2]


def test_exact_f_n_hand_values():
    assert exact_f_n(1, 1) == 1
    assert exact_f_n(2, 1) == 2
    assert exact_f_n(3, 1) == 2


def test_exact_f_n_cap():
    with pytest.raises(SizeCapError):
        exact_f_n(8, 1)


def test_p4_certifies_f4_at_most_2():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert exact_f(p4, 1).value == 2


def test_point_prob_distribution_simple():
    dist = point_prob_distribution([0.5, 0.5])
    assert np.allclose(dist, [0.25, 0.5, 0.25])
    dist = point_prob_distribution([0.25] * 10)
    assert abs(dist.sum() - 1) < 1e-12


def test_estimate_point_prob_exact_half():
    assert point_prob_distribution([0.5, 0.5])[1] == 0.5
    r = estimate_point_prob([0.5, 0.5], 1, 50_000, 3)
    assert abs(r - 0.5) < 4 / math.sqrt(50_000)


def test_estimate_point_prob_s_out_of_range():
    assert estimate_point_prob([0.5] * 4, 9, 10, 1) == 0.0


@pytest.mark.parametrize("rows, cells", [(7, oracle.MC_CHUNK_CELLS),
                                         (oracle.MC_CHUNK, 40)])
def test_estimates_do_not_depend_on_the_chunk_size(rows, cells, monkeypatch):
    rhos = [0.1 + 0.02 * i for i in range(30)]
    args = [(rhos, 6, 1000, 5), (20, 6, 1000, 8)]
    before = (estimate_point_prob(*args[0]), estimate_regular_prob(*args[1]))
    monkeypatch.setattr(oracle, "MC_CHUNK", rows)
    monkeypatch.setattr(oracle, "MC_CHUNK_CELLS", cells)
    assert (estimate_point_prob(*args[0]),
            estimate_regular_prob(*args[1])) == before


def test_monte_carlo_chunks_stay_small_for_wide_rows(monkeypatch):
    shapes = []

    class Recording(np.random.Generator):
        def random(self, size=None, *args, **kwargs):
            shapes.append(size)
            return super().random(size, *args, **kwargs)

    monkeypatch.setattr(oracle.np.random, "Generator", Recording)
    estimate_point_prob([0.5] * 10_000, 5_000, 300, 1)  # 2**20 // 10_000
    assert shapes == [(104, 10_000)] * 2 + [(92, 10_000)]
    shapes.clear()
    estimate_regular_prob(20, 6, 40_000, 1)  # 15 draws a row
    assert shapes == [(oracle.MC_CHUNK, 15), (40_000 - oracle.MC_CHUNK, 15)]


def test_estimate_point_prob_converges_to_dp():
    rng = np.random.Generator(np.random.PCG64(5))
    rhos = list(1 / 16 + rng.random(40) * 0.5)
    dist = point_prob_distribution(rhos)
    s = int(np.argmax(dist))
    r = estimate_point_prob(rhos, s, 100_000, 6)
    assert abs(r - float(dist[s])) < 4 / math.sqrt(100_000)


def incidence_regular_prob(n, k, trials, seed):
    """`estimate_regular_prob` as a pairs-by-vertices incidence product:
    the same draws, the degrees by a matrix product."""
    ps = [float(p) for p in p_bar(n, k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    probs = np.array([ps[i] * ps[j] for i, j in pairs])
    incidence = np.zeros((len(pairs), k), dtype=np.int8)
    for idx, (i, j) in enumerate(pairs):
        incidence[idx, i] = 1
        incidence[idx, j] = 1
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = min(oracle.MC_CHUNK, max(1, oracle.MC_CHUNK_CELLS // len(pairs)))
    hits = 0
    remaining = trials
    while remaining > 0:
        chunk = min(rows, remaining)
        draws = rng.random((chunk, len(pairs))) < probs
        degrees = draws.astype(np.int16) @ incidence
        hits += int(np.count_nonzero(
            (degrees == degrees[:, :1]).all(axis=1)))
        remaining -= chunk
    return hits / trials


@pytest.mark.parametrize("n, k, trials, seed", [
    (20, 3, 5000, 1),
    (20, 6, 40_000, 2),       # one full chunk of 2**15 rows and a rest
    (12, 12, 3000, 3),        # k = n
    (40, 17, 7777, 4),
    (5, 5, 1, 5),
    (10**6, 6, 1000, 6),      # the weights of 6 vertices among a million
])
def test_regular_prob_matches_the_incidence_product(n, k, trials, seed):
    assert estimate_regular_prob(n, k, trials, seed) == \
        incidence_regular_prob(n, k, trials, seed)


def int64_regular(draws, k):
    """Which rows of ``draws``, one column per pair i < j in row-major
    order, draw a regular graph on k vertices, each degree summed in int64."""
    first, second = np.triu_indices(k, 1)
    degrees = np.stack([
        draws[:, (first == v) | (second == v)].sum(axis=1, dtype=np.int64)
        for v in range(k)], axis=1)
    return (degrees == degrees[:, :1]).all(axis=1)


@pytest.mark.parametrize("k, trials", [(3, 20_000), (6, 20_000), (257, 300),
                                      (258, 100)])
def test_regular_prob_hits_are_those_of_int64_degrees(k, trials,
                                                      monkeypatch):
    # the kernel sums each degree as bytes into the least type that holds
    # k - 1: uint8, and uint16 from k = 257, where 256 no longer fits; from
    # k = 258 a clique on all but one vertex has degrees 256 and 0, which
    # a uint8 sum would see as equal
    seen, mc_fraction = [], oracle._mc_fraction

    def noting_the_kernel(probs, trials, seed, hit):
        seen.append((probs, hit))
        return mc_fraction(probs, trials, seed, hit)

    monkeypatch.setattr(oracle, "_mc_fraction", noting_the_kernel)
    estimate = estimate_regular_prob(k + 3, k, trials, 7)
    ((probs, hit),) = seen
    assert estimate == mc_fraction(probs, trials, 7,
                                   lambda draws: int64_regular(draws, k))
    # the complete graph (every degree k - 1), one edge short of it, the
    # empty graph, and a clique on every vertex but the last
    complete = np.ones((1, len(probs)), bool)
    short = complete.copy()
    short[0, -1] = False
    clique = complete & (np.triu_indices(k, 1)[1] != k - 1)
    rows = np.vstack([complete, short, ~complete, clique])
    assert hit(rows).tolist() == int64_regular(rows, k).tolist() \
        == [True, False, True, False]


def test_regular_prob_memory_grows_with_the_pairs_not_pairs_times_k():
    # C(300, 2) draws a row: an incidence matrix would hold 13 million cells
    tracemalloc.start()
    try:
        estimate_regular_prob(300, 300, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_regular_prob_at_large_n_builds_only_k_weights():
    # all n weights of a million vertices took 145 MB as Fractions
    tracemalloc.start()
    try:
        estimate = estimate_regular_prob(10**6, 6, 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < estimate < 1
    assert peak < 4 * 2**20


def test_regular_prob_tiny_k():
    assert estimate_regular_prob(20, 1, 10, 0) == 1.0
    assert estimate_regular_prob(20, 2, 10, 0) == 1.0


def test_regular_prob_k3_matches_exact():
    # On 3 vertices only the empty and the complete graph are regular.
    n = 20
    ps = [float(p) for p in p_bar(n)[:3]]
    q = [ps[0] * ps[1], ps[0] * ps[2], ps[1] * ps[2]]
    exact = math.prod(1 - x for x in q) + math.prod(q)
    trials = 200_000
    est = estimate_regular_prob(n, 3, trials, 21)
    assert abs(est - exact) < 4 * math.sqrt(exact * (1 - exact) / trials)


def test_regular_prob_decreases_in_k():
    vals = [estimate_regular_prob(20, k, 100_000, 31) for k in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("seed", range(4))
def test_oracle_dominates_constructive_outputs(seed):
    from nearreg import proposition11_pipeline, turan_independent_set

    g = sample_gnp_uniform(12, 0.5, 950 + seed)
    turan = turan_independent_set(g).vertices
    for c in (1, 1.5, 2, 5):
        assert len(turan) <= exact_f(g, c).value
    res = proposition11_pipeline(g, 5)
    assert len(res.vertices) <= exact_f(g, 5).value
