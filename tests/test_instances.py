"""Instance generators: block cliques, skewed and uniform random models."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from nearreg import (
    PreconditionError,
    blocks,
    blocks_padded,
    complete_bipartite,
    degree_stats,
    sample_gnp_bar,
    sample_gnp_uniform,
    serialize_edge_list,
    star,
)
from nearreg import instances
from nearreg.instances import (
    EDGE_CAP,
    blocks_edge_count,
    blocks_minimal_s,
    p_bar,
)

from conftest import has_edge


def test_blocks_s1():
    g = blocks(1)
    assert (g.n, g.m) == (4, 1)
    assert sorted(g.edges()) == [(2, 3)]


def test_blocks_s2():
    g = blocks(2)
    assert (g.n, g.m) == (12, 8)
    assert sorted(g.edges())[:2] == [(4, 5), (6, 7)]


@pytest.mark.parametrize("s", range(5))
def test_blocks_edge_count_formula(s):
    g = blocks(s)
    assert g.m == sum((1 << (s - i)) * comb(1 << i, 2) for i in range(s + 1))
    assert g.m == blocks_edge_count(s)


def test_blocks_edge_cap_admits_s_up_to_ten():
    # s = 10 has 1,042,432 edges, s = 11 four times as many
    assert blocks_edge_count(10) <= EDGE_CAP < blocks_edge_count(11)
    with pytest.raises(PreconditionError, match="above the cap"):
        blocks(11)
    with pytest.raises(PreconditionError, match="s = 16 has 4294377472"):
        blocks_padded(10**6)


@pytest.mark.parametrize("s", range(4))
def test_blocks_degree_law(s):
    g = blocks(s)
    part = 1 << s
    for i in range(s + 1):
        for v in range(i * part, (i + 1) * part):
            assert g.degree(v) == (1 << i) - 1


def test_blocks_components_are_cliques():
    g = blocks(3)
    seen = set()
    for v in range(g.n):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for u in g.neighbors(w):
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        seen |= comp
        members = sorted(comp)
        for a in members:
            for b in members:
                if a < b:
                    assert has_edge(g, a, b)


def test_blocks_padded_exact_fit():
    assert serialize_edge_list(blocks_padded(4)) == serialize_edge_list(blocks(1))


def test_blocks_padded_drops_highest_ids():
    g = blocks_padded(10)
    full = blocks(2)
    assert g.n == 10
    assert sorted(g.edges()) == sorted(e for e in full.edges()
                                       if e[0] < 10 and e[1] < 10)


def test_blocks_padded_single_vertex():
    g = blocks_padded(1)
    assert (g.n, g.m) == (1, 0)


@pytest.mark.parametrize("n", list(range(1, 40)) + [100, 200])
def test_blocks_padded_never_pads_past_3n(n):
    s = blocks_minimal_s(n)
    assert n <= (s + 1) << s <= 3 * n


def test_pair_probabilities_strictly_inside_interval():
    for n in (2, 3, 10, 50, 200):
        ps = p_bar(n)
        assert Fraction(1, 16) < ps[0] * ps[1]
        assert ps[-2] * ps[-1] < Fraction(9, 16)
        assert ps[-1] == Fraction(3, 4)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_p_bar_of_k_is_the_first_k_weights(n):
    for k in range(n + 1):
        assert p_bar(n, k) == p_bar(n)[:k]


def test_gnp_bar_two_vertices_pair_probability():
    ps = p_bar(2)
    assert ps[0] * ps[1] == Fraction(3, 8)


def test_gnp_bar_deterministic_and_seed_sensitive():
    a = sample_gnp_bar(30, 11)
    b = sample_gnp_bar(30, 11)
    c = sample_gnp_bar(30, 12)
    assert sorted(a.edges()) == sorted(b.edges())
    assert sorted(a.edges()) != sorted(c.edges())


def expected_gnp_bar_edges(n):
    """Exact expected edge count of the skewed model: the sum of p_i * p_j
    over pairs i < j, as ((sum p)^2 - sum p^2) / 2."""
    ps = p_bar(n)
    total = sum(ps)
    squares = sum(p * p for p in ps)
    return (total * total - squares) / 2


def test_gnp_bar_expected_edges_formula():
    n = 9
    ps = p_bar(n)
    direct = sum(ps[i] * ps[j] for i in range(n) for j in range(i + 1, n))
    assert expected_gnp_bar_edges(n) == direct


def test_gnp_bar_edge_count_matches_expectation():
    # Monte Carlo mean over many samples against the exact expectation
    n, runs = 50, 1000
    expected = float(expected_gnp_bar_edges(n))
    var = float(sum(p * (1 - p) for i, pi in enumerate(p_bar(n))
                    for p in [pi * pj for pj in p_bar(n)[i + 1:]]))
    counts = [sample_gnp_bar(n, 500_000 + i).m for i in range(runs)]
    mean = sum(counts) / runs
    stderr = (var / runs) ** 0.5
    assert abs(mean - expected) <= 3 * stderr


def test_gnp_bar_seed_overlap_near_expectation():
    # Independent seeds share each pair with probability (p_i p_j)^2
    n = 40
    ps = p_bar(n)
    expected = float(sum((ps[i] * ps[j]) ** 2
                         for i in range(n) for j in range(i + 1, n)))
    a = set(sample_gnp_bar(n, 1).edges())
    b = set(sample_gnp_bar(n, 2).edges())
    overlap = len(a & b)
    spread = 5 * expected ** 0.5  # generous: one sample pair, sanity only
    assert abs(overlap - expected) <= max(spread, 15)


def _sample_pairs_one_shot(n, probs, seed):
    """All C(n, 2) uniforms in one draw, against the pair probabilities in
    lexicographic pair order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random(comb(n, 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(pairs[k] for k in np.flatnonzero(draws < probs))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 300])
def test_row_by_row_sampling_matches_one_shot_draws(n):
    ps = np.array([float(p) for p in p_bar(n)])
    bar_probs = np.array([ps[i] * ps[j]
                          for i in range(n) for j in range(i + 1, n)])
    for seed in (0, 7, 2**40 + 3):
        for p in (0, 0.003, 0.23, 1):
            assert sorted(sample_gnp_uniform(n, p, seed).edges()) == \
                _sample_pairs_one_shot(n, np.full(comb(n, 2), float(p)), seed)
        if n >= 2:
            assert sorted(sample_gnp_bar(n, seed).edges()) == \
                _sample_pairs_one_shot(n, bar_probs, seed)


def test_uniform_extremes():
    assert sample_gnp_uniform(10, 0, 3).m == 0
    assert sample_gnp_uniform(10, 1, 3).m == comb(10, 2)


def test_complete_bipartite_counts():
    g = complete_bipartite(2, 5)
    assert g.m == 6
    assert degree_stats(g).avg_deg == Fraction(12, 5)


def test_star_shape():
    g = star(4)
    s = degree_stats(g)
    assert (s.max_deg, s.min_deg) == (3, 1)
    with pytest.raises(PreconditionError):
        star(1)



def test_star_and_complete_bipartite_refuse_above_the_edge_cap(monkeypatch):
    # at a cap of 10 edges the last graph under it is built and the next
    # refused, so the refusal comes before the edge list; only then are
    # the huge sizes probed, at the real cap, where nothing is built
    monkeypatch.setattr(instances, "EDGE_CAP", 10)
    assert star(11).m == 10
    assert complete_bipartite(2, 7).m == 10
    with pytest.raises(PreconditionError,
                       match="^star with n = 12 has 11 edges, above the cap"
                             " 10$"):
        star(12)
    with pytest.raises(PreconditionError,
                       match="^complete-bipartite with k = 3, n = 7 has 12 "
                             "edges, above the cap 10$"):
        complete_bipartite(3, 7)
    monkeypatch.undo()
    for build, args in ((star, (EDGE_CAP + 2,)),
                        (star, (10**20,)),
                        (complete_bipartite, (1 << 10, (1 << 11) + 1)),
                        (complete_bipartite, (10**10, 2 * 10**10))):
        with pytest.raises(PreconditionError, match="above the cap"):
            build(*args)
