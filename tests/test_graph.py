"""Core graph type, statistics, induced views, and the edge-list format."""

import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    DegreeStats,
    EdgeListError,
    ExtractionResult,
    Graph,
    PreconditionError,
    degree_stats,
    induced,
    parse_edge_list,
    serialize_edge_list,
)
from nearreg.cli import _ledger, _result
from nearreg.graph import Surd, as_fraction, check, ledger_ratio

from conftest import nearly_regular_check


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
    assert ledger_ratio(0, 0) == 1
    assert ledger_ratio(4, 2) == 2
    assert ledger_ratio(3, 0) == math.inf
    isolated = DegreeStats(3, 0, Fraction(3, 2), Fraction(1, 2))
    res = ExtractionResult(frozenset({0, 1, 2, 3}), None, isolated, "t")
    assert res.ratio == math.inf


def test_edge_result_keeps_the_pairs_it_is_given():
    # a path 0-1-2 and an edge 4-5: vertex 3 is uncovered
    edges = frozenset({(0, 1), (1, 2), (4, 5)})
    res = ExtractionResult.from_edge_subgraph(edges, "t")
    assert res.edges is edges
    assert res.vertices == frozenset({0, 1, 2, 4, 5})
    assert res.stats == DegreeStats.of([1, 2, 1, 1, 1])
    listed = ExtractionResult.from_edge_subgraph([(0, 1), (1, 2)], "t")
    assert listed.edges == frozenset({(0, 1), (1, 2)})


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
    entries = _ledger([lower, upper])
    assert entries[0] == {"id": "t", "kind": "lower", "threshold": 2.5,
                          "achieved": 3, "pass": True}
    assert entries[1]["achieved"] == 1.5
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
    # the float rounds 1 + 10^-20 * sqrt(2) down to 1.0, so the ceiling
    # is corrected upward
    tiny = Surd(Fraction(1), Fraction(1, 10**20), Fraction(2))
    assert float(tiny) == 1.0 and math.ceil(tiny) == 2


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


@given(edge_sets, st.data())
@settings(max_examples=80, deadline=None)
def test_adjacency_and_induced_match_networkx(case, data):
    nx = pytest.importorskip("networkx")
    n, edges = case
    g = Graph.from_edges(n, list(edges))
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    lists = g.neighbor_lists()
    assert lists == [sorted(ref[v]) for v in range(n)]
    assert lists == [g.neighbors(v) for v in range(n)]
    assert g.degrees() == [ref.degree(v) for v in range(n)]
    assert g.degrees() == [g.degree(v) for v in range(n)]
    assert list(g.edges()) == sorted(tuple(sorted(e)) for e in ref.edges())
    members = data.draw(st.sets(st.integers(0, n - 1)))
    sub, id_map = induced(g, members)
    assert id_map == tuple(sorted(members))
    new_id = {v: i for i, v in enumerate(id_map)}
    assert sub.neighbor_lists() == [sorted(new_id[w] for w in ref[v]
                                           if w in new_id) for v in id_map]
    assert sub.m == ref.subgraph(members).number_of_edges()


def test_edge_count_matches_half_degree_sum():
    g = parse_edge_list("5 5\n0 1\n0 2\n1 2\n2 3\n3 4")
    assert sum(g.degrees()) == 2 * g.m


class _FailingIndices:
    def tolist(self):
        raise MemoryError


@pytest.mark.parametrize("enabled", [True, False])
def test_neighbor_lists_leave_the_collector_as_they_found_it(enabled):
    # the lists are built with the cyclic collector paused, so 10^4 new
    # lists start no collection, and its state comes back as it was, after
    # a failure too
    g = parse_edge_list("5 4\n0 1\n0 4\n1 2\n3 4")
    path = Graph.from_edges(10**4, [(v, v + 1) for v in range(10**4 - 1)])
    failing = Graph(g.n, g.indptr, _FailingIndices(), g.m)
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(note)
    try:
        lists = g.neighbor_lists()
        assert gc.isenabled() is enabled
        assert len(path.neighbor_lists()) == 10**4
        assert starts == [] and gc.isenabled() is enabled
        with pytest.raises(MemoryError):
            failing.neighbor_lists()
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(note)
        (gc.enable if was else gc.disable)()
    assert lists == [[1, 4], [0, 2], [1], [4], [0, 3]]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_as_fraction_refuses_non_finite_floats(x):
    with pytest.raises(PreconditionError, match="finite"):
        as_fraction(x)


def test_degree_stats_of_a_degree_sequence():
    assert DegreeStats.of([]) == DegreeStats(0, 0, Fraction(0), Fraction(0))
    assert DegreeStats.of([0]) == degree_stats(Graph.empty(1))
    for g in (complete(4), cycle(5), path(3)):
        stats = DegreeStats.of(g.degrees())
        assert stats.avg_deg * g.n == 2 * g.m
        assert stats.density == Fraction(g.m, g.n * (g.n - 1) // 2)
        assert (stats.max_deg, stats.min_deg) == (max(g.degrees()),
                                                  min(g.degrees()))


def test_result_of_an_induced_subgraph_reads_its_ratio_off_its_stats():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                             (0, 3)])
    sub, id_map = induced(g, [0, 1, 2, 3, 4])
    res = ExtractionResult(frozenset(id_map), None, degree_stats(sub), "t")
    assert res.stats == degree_stats(sub) and sub.m == 5
    assert res.stats.avg_deg * len(res.vertices) / 2 == sub.m
    assert res.ratio == 3
    assert _result(res)[0]["ratio_exact"] == "3"
