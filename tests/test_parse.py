"""The edge-list parser and `Graph.from_edges`, against line-by-line
references: the same graphs and the same error messages.

The references below are the parser and the graph builder as they were
when the parse walked the lines in Python (``splitlines``, ``strip``,
``split``, ``int``) and ``from_edges`` set one bit per edge endpoint. The
parse now tokenises the bytes with numpy and checks every edge at once;
on ASCII text of digits, blanks and line breaks it must agree with them
exactly. Spellings that ``int()`` took and the wire format now refuses
(``+1``, ``1_0``, ``-1``, non-ASCII digits) are tested on their own.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg import (
    EdgeListError,
    Graph,
    parse_edge_list,
    proposition11_pipeline,
    serialize_edge_list,
    turan_independent_set,
)

from conftest import bitmask_rows


# --- reference: the line-by-line parse and the per-edge builder ----------

def reference_from_edges(n, edges):
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [0] * n
    m = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"vertex id out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise EdgeListError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        m += 1
    return n, tuple(adj), m


def rows_view(g):
    """A graph in the reference's form: (n, bitmask rows, m)."""
    return g.n, tuple(bitmask_rows(g)), g.m


def reference_parse(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise EdgeListError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise EdgeListError("negative counts in header")
    if len(lines) - 1 != m:
        raise EdgeListError(f"header claims {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"malformed edge line {ln!r}") from exc
        if u == v:
            raise EdgeListError(f"self-loop {ln!r}")
        if not u < v:
            raise EdgeListError(f"edge line {ln!r} must satisfy u < v")
        edges.append((u, v))
    return reference_from_edges(n, edges)


def outcome(build, *args):
    try:
        g = build(*args)
    except EdgeListError as exc:
        return "error", str(exc)
    return ("graph", *(g if isinstance(g, tuple) else rows_view(g)))


def int_array(edges, dtype=np.int64):
    """``edges`` as an (m, 2) array of ``dtype``, or of Python ints where an
    id does not fit (numpy would make 0 next to 2**63 a float)."""
    try:
        return np.array(edges, dtype=dtype).reshape(-1, 2)
    except OverflowError:
        return np.array(edges, dtype=object).reshape(-1, 2)


# The parse takes a str or bytes, the builder Python pairs or an array: the
# explicit cases below run on both forms.
TEXT = {"python": str, "numpy": lambda text: text.encode("utf-8")}
EDGES = {"python": list, "numpy": int_array}


def assert_parses_alike(text):
    want = outcome(reference_parse, text)
    assert outcome(parse_edge_list, text) == want
    assert outcome(parse_edge_list, text.encode("ascii")) == want


# --- differential: texts of digits, blanks and line breaks ---------------

BLANKS = st.sampled_from([" ", "  ", "\t", " \t "])
BREAKS = st.sampled_from(["\n", "\r\n", "\x0c"])


def numbers(hi):
    # leading zeros are part of the format, and may make a token longer
    # than any int64 value has digits
    return st.integers(0, hi).flatmap(
        lambda x: st.sampled_from([str(x), "0" + str(x), "0" * 19 + str(x)]))


@st.composite
def line_texts(draw):
    """Edge lists near the valid ones: a header, then lines of mostly two
    small ids, with blank lines, stray blanks, and now and then a count,
    id or token that is off."""
    n = draw(st.integers(0, 9))
    rows = [draw(st.lists(numbers(12), min_size=1, max_size=3))
            for _ in range(draw(st.integers(0, 8)))]
    m = len(rows) if draw(st.booleans()) else draw(st.integers(0, 9))
    head = [str(n), str(m)] if draw(st.integers(0, 5)) else draw(
        st.lists(numbers(12), min_size=1, max_size=3))
    out = []
    for tokens in [head] + rows:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(["", " ", "\t"])) + draw(BREAKS))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(
            st.sampled_from(["", " ", "\t "]))
        out.append(lead + draw(BLANKS).join(tokens) + trail + draw(BREAKS))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n\x0c")  # no final line break
    return "".join(out)


@st.composite
def raw_texts(draw):
    """Any interleaving of short numbers with blanks and line breaks (a
    separator after each number, so ids stay small)."""
    pieces = draw(st.lists(
        st.tuples(numbers(20), st.lists(
            st.sampled_from([" ", "\t", "\n", "\r\n", "\x0c"]),
            min_size=1, max_size=3)),
        max_size=12))
    lead = draw(st.sampled_from(["", "\n", " ", "\r\n\r\n"]))
    return lead + "".join(x + "".join(sep) for x, sep in pieces)


@given(line_texts())
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_on_edge_lists(text):
    assert_parses_alike(text)


@given(raw_texts())
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_on_raw_texts(text):
    assert_parses_alike(text)


edge_lists = st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)),
             max_size=14)))


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_from_edges_matches_reference(case):
    n, edges = case
    want = outcome(reference_from_edges, n, edges)
    array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert outcome(Graph.from_edges, n, edges) == want
    assert outcome(Graph.from_edges, n, array) == want


# --- explicit errors and their precedence --------------------------------

@pytest.mark.parametrize("text, message", [
    ("", "empty input"),
    (" \n\t\r\n\x0c", "empty input"),
    ("3\n", "bad header '3': expected 'n m'"),
    ("\n 3 1 2 \n", "bad header '3 1 2': expected 'n m'"),
    ("3 2\n0 1\n", "header claims 2 edges, found 1"),
    ("3 1\n0 1\n1 2\n", "header claims 1 edges, found 2"),
    ("3 1\n 0 1 2\n", "malformed edge line '0 1 2'"),
    ("3 1\n1\t1\n", "self-loop '1\\t1'"),
    ("3 1\n2 1\n", "edge line '2 1' must satisfy u < v"),
    ("3 1\n0 3\n", "vertex id out of range: (0, 3) with n=3"),
    ("3 2\n0 1\n00 01\n", "duplicate edge (0, 1)"),
    # line checks run over all lines before any range or duplicate check
    ("3 3\n0 5\n0 1\n1 1\n", "self-loop '1 1'"),
    ("3 3\n0 1\n0 1\n2\n", "malformed edge line '2'"),
    # the first bad line wins, whatever its kind
    ("3 2\n1 1\n0\n", "self-loop '1 1'"),
    ("3 2\n0\n1 1\n", "malformed edge line '0'"),
    ("3 2\n2 0\n1 1\n", "edge line '2 0' must satisfy u < v"),
    # the first bad edge wins, a duplicate before an id out of range
    ("4 3\n0 1\n0 1\n0 9\n", "duplicate edge (0, 1)"),
    ("4 3\n0 1\n0 9\n0 1\n", "vertex id out of range: (0, 9) with n=4"),
    ("3 2\n0 1\n0 00000000000000000000001\n", "duplicate edge (0, 1)"),
    ("3 1\n0 00000000000000000000003\n",
     "vertex id out of range: (0, 3) with n=3"),
    # ids beyond 64 bits stay exact
    ("3 1\n0 123456789012345678901234567890\n",
     "vertex id out of range: (0, 123456789012345678901234567890) with n=3"),
    ("3 1\n99999999999999999999 99999999999999999999\n",
     "self-loop '99999999999999999999 99999999999999999999'"),
])
@pytest.mark.parametrize("name", TEXT)
def test_parse_error_messages(text, message, name):
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(TEXT[name](text))
    assert str(info.value) == message
    assert outcome(reference_parse, text) == ("error", message)


@pytest.mark.parametrize("text, line, byte", [
    ("3 1\n+0 1\n", 2, "0x2b"),
    ("3 1\n0 1_0\n", 2, "0x5f"),
    ("3 1\n-1 1\n", 2, "0x2d"),
    ("3 1\n0 ٣\n", 2, "0xd9"),   # ARABIC-INDIC DIGIT THREE
    ("+3 1\n0 1\n", 1, "0x2b"),
    ("3 1\r\n\r\n0 1.\n", 3, "0x2e"),
    ("3 1\x0c0 x\n", 2, "0x78"),
])
@pytest.mark.parametrize("name", TEXT)
def test_parse_refuses_other_bytes_naming_the_line(text, line, byte, name):
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(TEXT[name](text))
    assert str(info.value).startswith(f"line {line}: byte {byte} ")


def test_parse_refuses_bytes_that_are_not_utf8():
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(b"3 1\n0 \xff1\n")
    assert str(info.value) == (
        "line 2: byte 0xff is not an ASCII digit, blank or line break: "
        "'0 \ufffd1'")


@pytest.mark.parametrize("name", TEXT)
def test_parse_reads_zero_padded_tokens_longer_than_int64(name):
    n = 700
    pad = "0" * 20
    text = (f"{pad}{n} {pad}{n - 1}\n"
            + "".join(f"{v} {v + 1}\n" for v in range(n - 2))
            + f"{pad}0 {pad}{n - 1}\n")
    got = parse_edge_list(TEXT[name](text))
    assert rows_view(got) == reference_parse(text)


def test_parse_reads_blanks_and_breaks_of_the_format():
    text = "\x1f4\t2\x1f\x1c\x1d0 3\x1e\x0b1\x1f2 \r"
    assert sorted(parse_edge_list(text).edges()) == [(0, 3), (1, 2)]
    assert_parses_alike(text)


# --- from_edges on its own -----------------------------------------------

@pytest.mark.parametrize("name", EDGES)
def test_from_edges_takes_arrays_lists_sets_and_both_orientations(name):
    want = reference_from_edges(70, [(0, 1), (3, 1), (69, 2)])
    forms = {"python": ([(0, 1), (3, 1), (69, 2)], {(1, 0), (1, 3), (2, 69)},
                        ((u, v) for u, v in [(1, 0), (1, 3), (69, 2)])),
             "numpy": (np.array([[0, 1], [3, 1], [69, 2]], dtype=np.int32),
                       np.array([[1, 0], [1, 3], [69, 2]], dtype=np.int64))}
    for edges in forms[name]:
        assert rows_view(Graph.from_edges(70, edges)) == want


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint32, np.uint64])
@pytest.mark.parametrize("name", EDGES)
def test_from_edges_takes_every_integer_dtype(dtype, name):
    # ids whose keys (row << bits of n | column) overflow 32 bits, as an
    # array of the dtype or as the Python ints that array holds
    def form(edges):
        array = int_array(edges, dtype)
        return array if name == "numpy" else array.tolist()

    n = np.iinfo(dtype).max if np.iinfo(dtype).bits == 16 else 100_000
    pairs = [(0, v) for v in range(1, 600)] + [(n - 2, n - 1)]
    assert rows_view(Graph.from_edges(n, form(pairs))) == \
        reference_from_edges(n, pairs)
    with pytest.raises(EdgeListError, match=r"^duplicate edge \(1, 0\)$"):
        Graph.from_edges(n, form(pairs + [(1, 0)]))


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 0)], "duplicate edge (1, 0)"),
    ([(2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (7, 7)], "vertex id out of range: (7, 7) with n=3"),
    ([(-1, 2)], "vertex id out of range: (-1, 2) with n=3"),
    ([(0, 2**70)], f"vertex id out of range: (0, {2**70}) with n=3"),
    ([(0, 1), (0, 1), (0, 2**70)], "duplicate edge (0, 1)"),
    ([(0, 2**63)], f"vertex id out of range: (0, {2**63}) with n=3"),
])
@pytest.mark.parametrize("name", EDGES)
def test_from_edges_error_messages(edges, message, name):
    with pytest.raises(EdgeListError) as info:
        Graph.from_edges(3, EDGES[name](edges))
    assert str(info.value) == message
    assert outcome(reference_from_edges, 3, edges) == ("error", message)


@pytest.mark.parametrize("name", EDGES)
def test_from_edges_refuses_ids_that_are_not_integers(name):
    edges = [(0, 1.5)]
    with pytest.raises(TypeError):
        Graph.from_edges(3, np.array(edges) if name == "numpy" else edges)


@pytest.mark.parametrize("name", EDGES)
def test_from_edges_refuses_a_negative_vertex_count(name):
    with pytest.raises(ValueError) as info:
        Graph.from_edges(-1, EDGES[name]([]))
    assert type(info.value) is ValueError
    assert str(info.value) == "vertex count must be nonnegative"


def test_from_edges_builds_the_neighbour_arrays_of_a_star_and_a_path():
    n = 3000
    star = Graph.from_edges(n, [(v, 0) for v in range(n - 1, 0, -1)])
    assert star.indptr.tolist() == [0, *range(n - 1, 2 * n - 1)]
    assert star.indices.tolist() == [*range(1, n), *[0] * (n - 1)]
    assert star.neighbors(0) == list(range(1, n))
    assert not star.indices.flags.writeable
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    assert rows_view(path) == \
        reference_from_edges(n, [(v, v + 1) for v in range(n - 1)])


def test_serialize_keeps_lexicographic_order():
    g = Graph.from_edges(5, [(3, 4), (0, 4), (1, 2), (0, 1)])
    assert serialize_edge_list(g) == "5 4\n0 1\n0 4\n1 2\n3 4\n"


# --- memory: nothing of size n * n / 8 -----------------------------------

def peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_of_a_huge_edgeless_graph_is_linear_in_n():
    # n * n / 8 would be 125 GB; indptr is 8 MB
    assert peak_bytes(lambda: parse_edge_list("1000000 0")) < 40 * 2**20


def test_parse_of_a_large_star_is_linear_in_n():
    n = 10**5
    text = f"{n} {n - 1}\n" + "".join(f"0 {v}\n" for v in range(1, n))
    # n * n / 8 would be 1.25 GB; indptr and indices are 2.4 MB
    assert peak_bytes(lambda: parse_edge_list(text)) < 64 * 2**20


def test_a_long_path_is_parsed_and_peeled_in_linear_memory():
    n = 20000
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))

    def parse_and_extract():
        g = parse_edge_list(text)
        proposition11_pipeline(g, 3)
        turan_independent_set(g)

    # n-bit rows would take n * n / 16 bytes, 24 MiB
    assert peak_bytes(parse_and_extract) < 8 * 2**20
