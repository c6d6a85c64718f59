"""Pinned reports: every `extract` algorithm on a few small fixed graphs
gives the stored report (apart from `wall_time_s`), exit code and stderr,
each `experiment` at one small fixed size gives its stored report, and
each `gen` kind at one small size gives its stored edge list and sidecar.

The fixtures live in `fixtures/reports/`: the input graphs as edge lists,
one report per call that writes one (`experiment.<name>.json` for the
experiments), and `outcomes.json` with the exit code and stderr of every
`extract` call; the `gen` outputs live in `fixtures/gen/` as `<kind>.el`
and `<kind>.el.json`. A change that means to alter them rewrites them
all with `PYTHONPATH=src python tests/test_reports.py` and says why.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import tempfile

import pytest

from nearreg.cli import EXTRACT_KINDS, main

REPORTS = pathlib.Path(__file__).parent / "fixtures" / "reports"
GEN_PINS = pathlib.Path(__file__).parent / "fixtures" / "gen"
GRAPHS = ("empty-0", "k4-plus-2", "star-9", "path-12",
          "gnp-uniform-40-0.2-s3", "gnp-bar-30-s1", "k-3-5",
          "gnp-uniform-300-0.23-s1")
EXPERIMENTS = {
    "point-prob": ["--t", "30", "--trials", "2000", "--seed", "1"],
    "regular-prob": ["--n", "20", "--k", "6", "--trials", "2000",
                     "--seed", "1"],
    "gnpbar-scan": ["--n", "12", "--samples", "2", "--seed", "1"],
}
GEN = {
    "blocks": ["--s", "2"],
    "blocks-padded": ["--n", "20"],
    "gnp-bar": ["--n", "30", "--seed", "1"],
    "gnp-uniform": ["--n", "40", "--p", "0.2", "--seed", "3"],
    "complete-bipartite": ["--k", "3", "--n", "8"],
    "star": ["--n", "9"],
}
WALL_TIME = re.compile(r'"wall_time_s": [0-9.e-]+')


def _call(argv):
    """One in-process `nearreg` call in the current directory, writing its
    report to a relative name; returns (exit code, stderr, report text with
    its wall time zeroed, or None when no report was written)."""
    out = pathlib.Path("report.json")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out.name])
    report = (WALL_TIME.sub('"wall_time_s": 0', out.read_text())
              if out.exists() else None)
    return code, err.getvalue(), report


def _extract(algorithm, graph):
    shutil.copy(REPORTS / f"{graph}.el", f"{graph}.el")
    return _call(["extract", algorithm, f"{graph}.el"])


def _experiment(name):
    return _call(["experiment", name, *EXPERIMENTS[name]])


def _gen(kind):
    """One in-process `nearreg gen` call in the current directory; returns
    its exit code, stderr, edge list and sidecar."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen", kind, *GEN[kind], "--out", "g.el"])
    return (code, err.getvalue(), pathlib.Path("g.el").read_text(),
            pathlib.Path("g.el.json").read_text())


@pytest.fixture(scope="module")
def outcomes():
    return json.loads((REPORTS / "outcomes.json").read_text())


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("algorithm", EXTRACT_KINDS)
def test_extract_report_is_pinned(algorithm, graph, outcomes, tmp_path,
                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err, report = _extract(algorithm, graph)
    assert [code, err] == outcomes[f"{graph} {algorithm}"]
    pinned = REPORTS / f"{graph}.{algorithm}.json"
    assert report == (pinned.read_text() if pinned.exists() else None)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_report_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err, report = _experiment(name)
    assert [code, err] == [0, ""]
    assert report == (REPORTS / f"experiment.{name}.json").read_text()


@pytest.mark.parametrize("kind", GEN)
def test_gen_output_is_pinned(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err, edges, sidecar = _gen(kind)
    assert [code, err] == [0, ""]
    assert edges == (GEN_PINS / f"{kind}.el").read_text()
    assert sidecar == (GEN_PINS / f"{kind}.el.json").read_text()


def _rewrite():
    """Rewrite every pinned report, outcomes.json and every pinned `gen`
    output from the current code."""
    for old in REPORTS.glob("*.*.json"):
        old.unlink()
    table = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for graph in GRAPHS:
            for algorithm in EXTRACT_KINDS:
                code, err, report = _extract(algorithm, graph)
                table[f"{graph} {algorithm}"] = [code, err]
                if report is not None:
                    (REPORTS / f"{graph}.{algorithm}.json").write_text(report)
        for name in EXPERIMENTS:
            _, _, report = _experiment(name)
            (REPORTS / f"experiment.{name}.json").write_text(report)
        GEN_PINS.mkdir(exist_ok=True)
        for kind in GEN:
            _, _, edges, sidecar = _gen(kind)
            (GEN_PINS / f"{kind}.el").write_text(edges)
            (GEN_PINS / f"{kind}.el.json").write_text(sidecar)
    (REPORTS / "outcomes.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _rewrite()
