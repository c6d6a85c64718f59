"""Core graph type, statistics, induced views, and the edge-list format."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    EdgeListError,
    Graph,
    degree_stats,
    induced,
    nearly_regular_check,
    parse_edge_list,
    serialize_edge_list,
)
from nearreg.graph import Surd, check, subgraph_ratio


def complete(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_degree_stats_examples():
    st4 = degree_stats(complete(4))
    assert (st4.max_deg, st4.min_deg) == (3, 3)
    assert st4.avg_deg == 3 and st4.density == 1

    st5 = degree_stats(cycle(5))
    assert (st5.max_deg, st5.min_deg) == (2, 2)
    assert st5.avg_deg == 2 and st5.density == Fraction(1, 2)

    st3 = degree_stats(path(3))
    assert (st3.max_deg, st3.min_deg) == (2, 1)
    assert st3.avg_deg == Fraction(4, 3) and st3.density == Fraction(2, 3)


def test_degree_stats_degenerate():
    st0 = degree_stats(Graph.empty(0))
    assert (st0.max_deg, st0.min_deg, st0.avg_deg, st0.density) == (0, 0, 0, 0)
    assert degree_stats(Graph.empty(1)).density == 0


def test_invariant_min_avg_max():
    g = parse_edge_list("5 4\n0 1\n0 2\n0 3\n3 4")
    s = degree_stats(g)
    assert s.min_deg <= s.avg_deg <= s.max_deg


def test_induced_examples():
    k3, id_map = induced(complete(4), {0, 1, 2})
    assert k3.n == 3 and k3.m == 3 and id_map == (0, 1, 2)

    empty, _ = induced(complete(4), set())
    assert empty.n == 0 and empty.m == 0

    k2, id_map = induced(cycle(5), {2, 3})
    assert k2.m == 1 and id_map == (2, 3)


def test_induced_rejects_bad_ids():
    with pytest.raises(ValueError):
        induced(complete(3), {0, 7})


def test_induced_max_degree_never_grows():
    g = parse_edge_list("6 6\n0 1\n0 2\n0 3\n1 2\n2 5\n4 5")
    top = degree_stats(g).max_deg
    for members in ({0, 1, 2}, {3, 4, 5}, {0, 5}, set(range(6))):
        sub, _ = induced(g, members)
        assert degree_stats(sub).max_deg <= top


def test_nearly_regular_check_examples():
    assert nearly_regular_check(cycle(5), 1)
    assert not nearly_regular_check(path(3), 1.9)
    assert nearly_regular_check(path(3), 2)
    assert nearly_regular_check(Graph.empty(10), 1)


def test_nearly_regular_check_rejects_c_below_one():
    with pytest.raises(ValueError):
        nearly_regular_check(cycle(5), 0.5)


@given(st.floats(min_value=1, max_value=50, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_nearly_regular_monotone_in_c(c):
    g = parse_edge_list("6 7\n0 1\n0 2\n0 3\n0 4\n1 2\n3 4\n4 5")
    if nearly_regular_check(g, c):
        assert nearly_regular_check(g, c + 1)


def test_ratio_conventions():
    assert subgraph_ratio(0, 0) == 1
    assert subgraph_ratio(4, 2) == 2
    with pytest.raises(ValueError):
        subgraph_ratio(3, 0)


@pytest.mark.parametrize("threshold", [
    Fraction(6),
    Surd(Fraction(4), Fraction(4), Fraction(1, 4)),    # 4 + 4 * (1/2)
    Surd(Fraction(7), Fraction(-2), Fraction(1, 4)),   # 7 - 2 * (1/2)
])
def test_check_equality_passes_and_the_next_integer_fails(threshold):
    assert check("t", 6, "<=", threshold).passed
    assert check("t", 6, ">=", threshold).passed
    assert not check("t", 7, "<=", threshold).passed
    assert not check("t", 5, ">=", threshold).passed


def test_check_at_a_fractional_threshold():
    third = Fraction(1, 3)
    assert check("t", third, "<=", third).passed
    assert check("t", third, ">=", third).passed
    assert not check("t", third + Fraction(1, 10**30), "<=", third).passed
    assert not check("t", third - Fraction(1, 10**30), ">=", third).passed


def test_check_an_irrational_threshold_exactly():
    root2 = Surd(Fraction(0), Fraction(1), Fraction(2))
    below = Fraction(14142135623730950, 10**16)
    above = Fraction(14142135623730951, 10**16)
    assert check("t", below, "<=", root2).passed
    assert not check("t", below, ">=", root2).passed
    assert check("t", above, ">=", root2).passed
    assert not check("t", above, "<=", root2).passed
    assert not check("t", math.inf, "<=", root2).passed


def test_check_kinds_and_json():
    lower = check("t", 3, ">=", Fraction(5, 2))
    upper = check("t", Fraction(3, 2), "<=", Fraction(2))
    assert (lower.kind, upper.kind) == ("lower", "upper")
    assert lower.to_json() == {"id": "t", "kind": "lower", "threshold": 2.5,
                               "achieved": 3, "pass": True}
    assert upper.to_json()["achieved"] == 1.5
    with pytest.raises(ValueError):
        check("t", 1, "<", 2)


def test_check_accepts_floats_only_for_log_thresholds():
    assert check("Prop2.2-size", 3, ">=", 3.0).passed
    with pytest.raises(TypeError):
        check("Prop2.1-size", 3, ">=", 3.0)


def test_surd_ceiling_is_exact():
    # (225/7) * (1 - 2 * (1/9)) = 25, which evaluates to 25.000000000000004
    # in floats.
    t = Surd(Fraction(225, 7), Fraction(-450, 7), Fraction(1, 81))
    assert math.ceil(t) == 25
    six = Surd(Fraction(15, 2), Fraction(-15), Fraction(1, 100))
    assert math.ceil(six) == 6
    assert math.ceil(Surd(Fraction(0), Fraction(1), Fraction(2))) == 2
    assert math.ceil(Surd(Fraction(0), Fraction(-1), Fraction(2))) == -1


def test_parse_examples():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    single = parse_edge_list("1 0")
    assert (single.n, single.m) == (1, 0)


@pytest.mark.parametrize("text", [
    "2 1\n0 0",            # self-loop
    "2 1\n1 0",            # u >= v
    "3 2\n0 1\n0 1",       # duplicate
    "2 1\n0 5",            # out of range
    "2 2\n0 1",            # count mismatch
    "x y\n",               # bad header
    "",                    # empty
])
def test_parse_rejects(text):
    with pytest.raises(EdgeListError):
        parse_edge_list(text)


def test_serialize_round_trip_fixed():
    text = "4 3\n1 2\n2 3\n0 3\n"
    canonical = "4 3\n0 3\n1 2\n2 3\n"
    assert serialize_edge_list(parse_edge_list(text)) == canonical


edge_sets = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .map(lambda e: (min(e), max(e)))
            .filter(lambda e: e[0] != e[1]),
            max_size=20,
        ),
    )
)


@given(edge_sets)
@settings(max_examples=80, deadline=None)
def test_serialize_parse_identity(case):
    n, edges = case
    g = Graph.from_edges(n, sorted(edges))
    back = parse_edge_list(serialize_edge_list(g))
    assert back.n == g.n and back.m == g.m
    assert sorted(back.edges()) == sorted(g.edges())
    assert serialize_edge_list(back) == serialize_edge_list(g)


def test_edge_count_matches_half_degree_sum():
    g = parse_edge_list("5 5\n0 1\n0 2\n1 2\n2 3\n3 4")
    assert sum(g.degrees()) == 2 * g.m
