"""The report writer: `cli._json_text` gives exactly the text of
``json.dumps(value, indent=2, sort_keys=True)``, for drawn values, for every
pinned JSON file, and for the values JSON has no form for (the same
TypeError)."""

import enum
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearreg.cli import _json_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


INTS = st.integers() | st.integers(min_value=-2**80, max_value=2**80)
FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1])
TEXT = st.text() | st.text(st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\U0001F600", "é", "a"]))
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT


def _rows(cell):
    """Lists of lists or tuples of ``cell``, all of one width (zero too)."""
    def of_width(w):
        row = st.lists(cell, min_size=w, max_size=w)
        return st.lists(row | row.map(tuple))
    return st.integers(0, 4).flatmap(of_width)


LEAVES = (
    SCALARS
    | st.lists(INTS)
    | st.lists(INTS).map(tuple)
    | _rows(INTS)
    | st.lists(st.lists(INTS, max_size=3))          # mixed widths
    | st.lists(INTS | st.booleans())                # int beside True
    | _rows(INTS | st.booleans())
    | st.just([[], []])
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_text_is_that_of_json_dumps(value):
    assert _json_text(value) == _dumps(value)


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [
    [[], []], [[1, 2], [3]], [[1, 2], (3, 4)], [[True, 1]], [1, True],
    [[1.0, 2]], [(7,)], [[2**70, -1]], {"a": (), "b": {}, "c": []},
    [math.nan, math.inf, -math.inf, -0.0, 5e-324],
    np.float64(1.5), [np.float64(math.nan)], _Level.LOW, [_Level.LOW],
    "quote \" backslash \\ control \x01 astral \U0001F600",
])
def test_edge_cases_are_those_of_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    np.int64(3), np.bool_(True), np.float32(1.5), {1, 2}, frozenset(),
    [np.int64(3)], [[1, np.int64(2)]], {"rows": [(1, 2), (3, np.int32(4))]},
    {1: "mixed", "a": "keys"}, object(),
])
def test_what_json_cannot_hold_raises_type_error(value):
    with pytest.raises(TypeError) as dumps_error:
        _dumps(value)
    with pytest.raises(TypeError) as writer_error:
        _json_text(value)
    assert str(writer_error.value) == str(dumps_error.value)


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1, 2)])
def test_a_key_other_than_a_string_is_refused(key):
    """``json.dumps`` writes such a key as a string; a report has none."""
    with pytest.raises(TypeError):
        _json_text({key: 0})


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.json")),
    ids=lambda p: str(p.relative_to(FIXTURES)))
def test_fixture_re_encodes(path):
    """Every pinned file re-encodes as ``json.dumps`` writes it; the ones
    nearreg wrote (reports, outcomes, gen sidecars) to their own bytes."""
    text = path.read_text(encoding="utf-8")
    value = json.loads(text)
    assert _json_text(value) == _dumps(value)
    if path.parent.name in ("reports", "gen"):
        assert _json_text(value) + "\n" == text
