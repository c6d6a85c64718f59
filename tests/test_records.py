"""The package's records: plain data built positionally, read by field name,
compared by value and never assigned to."""

import copy
import subprocess
import sys

import pytest

from nearreg.edge_regular import Bipartition, CascadeState
from nearreg.graph import (
    BoundCheck,
    DegreeStats,
    ExtractionResult,
    Graph,
    Surd,
)
from nearreg.oracle import OracleResult
from nearreg.peeling import PeelTrace
from nearreg.regularize import BoostOutcome

from conftest import child_env

# every record, with its fields in their positional order
RECORDS = {
    DegreeStats: ("max_deg", "min_deg", "avg_deg", "density"),
    BoundCheck: ("bound_id", "threshold", "achieved", "passed", "kind"),
    ExtractionResult: ("vertices", "edges", "stats", "guarantee", "bounds"),
    Bipartition: ("side_a", "side_b", "graph"),
    CascadeState: ("sets", "matchings", "residual_edges"),
    OracleResult: ("value", "witness", "explored"),
    PeelTrace: ("steps", "thresholds"),
    BoostOutcome: ("subgraph", "density", "certified", "rounds", "vertices",
                   "bounds"),
    Graph: ("n", "indptr", "indices", "m"),
    Surd: ("a", "b", "e"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_is_built_positionally_in_its_field_order(record):
    fields = RECORDS[record]
    values = list(range(10, 10 + len(fields)))
    rec = record(*values)
    assert [getattr(rec, name) for name in fields] == values
    with pytest.raises(TypeError):
        record(*values, 99)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_compares_equal_by_value(record):
    values = list(range(10, 10 + len(RECORDS[record])))
    assert record(*values) == record(*values) == copy.deepcopy(record(*values))
    for i in range(len(values)):
        other = values[:i] + [-1] + values[i + 1:]
        assert record(*values) != record(*other)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_refuses_assignment(record):
    fields = RECORDS[record]
    rec = record(*range(len(fields)))
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert [getattr(rec, name) for name in fields] == list(range(len(fields)))


def test_records_with_defaults():
    assert BoundCheck("id", 1, 2, True).kind == "lower"
    assert ExtractionResult(frozenset(), None, None, "g").bounds == ()
    assert BoostOutcome(None, 0, True, 0, frozenset()).bounds == ()


def test_graph_is_unhashable_and_surd_hashes_by_value():
    with pytest.raises(TypeError):
        hash(Graph.empty(3))
    assert hash(Surd(1, 2, 3)) == hash(Surd(1, 2, 3))
    assert len({Surd(1, 2, 3), Surd(1, 2, 3), Surd(1, 2, 4)}) == 2


def test_graph_and_surd_are_not_tuples():
    # a tuple would have a length, iterate, order, and be written as a
    # list by the report writer
    for rec in (Graph.empty(2), Surd(1, 2, 3)):
        assert not isinstance(rec, tuple)
        with pytest.raises(TypeError):
            len(rec)
        with pytest.raises(TypeError):
            iter(rec)
        with pytest.raises(TypeError):
            rec < rec  # noqa: B015


def test_importing_the_cli_does_not_import_dataclasses():
    # the records are built without generated code: dataclasses is dropped
    # first, in case the interpreter's start-up imported it
    code = ("import sys; sys.modules.pop('dataclasses', None); "
            "import nearreg.cli; print('dataclasses' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
