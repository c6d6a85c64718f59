"""Pinned reports: every `extract` algorithm on a few small fixed graphs
gives the stored report (apart from `wall_time_s`), exit code and stderr,
each `experiment` at one small fixed size gives its stored report, to a
file and to stdout, and each `gen` kind at a small size gives its stored
edge list and sidecar.

The fixtures live in `fixtures/reports/`: the input graphs as edge lists,
one report per call that writes one (`experiment.<name>.json` for the
experiments), and `outcomes.json` with the exit code and stderr of every
`extract` call. The `gen` sidecars live in `fixtures/gen/` as
`<name>.el.json`, one per row of `GEN`; each edge list is kept once,
in `fixtures/reports/` when it is an input graph there, and as
`fixtures/gen/<name>.el` otherwise. A change that means to alter them
rewrites them all with `PYTHONPATH=src python tests/test_reports.py` and
says why.
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
# each pinned `gen` call's argv, and the edge list it writes
GEN = {
    "blocks": (["blocks", "--s", "2"], GEN_PINS / "blocks.el"),
    "blocks-padded": (["blocks-padded", "--n", "20"],
                      GEN_PINS / "blocks-padded.el"),
    "gnp-bar": (["gnp-bar", "--n", "30", "--seed", "1"],
                REPORTS / "gnp-bar-30-s1.el"),
    "gnp-uniform": (["gnp-uniform", "--n", "40", "--p", "0.2", "--seed", "3"],
                    REPORTS / "gnp-uniform-40-0.2-s3.el"),
    "complete-bipartite": (["complete-bipartite", "--k", "3", "--n", "8"],
                           REPORTS / "k-3-5.el"),
    "star": (["star", "--n", "9"], REPORTS / "star-9.el"),
    # the dense pinned graph stays what the generator writes
    "gnp-uniform-300": (["gnp-uniform", "--n", "300", "--p", "0.23",
                         "--seed", "1"],
                        REPORTS / "gnp-uniform-300-0.23-s1.el"),
}
WALL_TIME = re.compile(r'"wall_time_s": [0-9.e-]+')
# the --out a pinned experiment report echoes in its command line
OUT_OPTION = ',\n    "--out",\n    "report.json"'


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


def _gen(argv):
    """One in-process `nearreg gen` call in the current directory; returns
    its exit code, stderr, edge list and sidecar."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen", *argv, "--out", "g.el"])
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
    pinned = (REPORTS / f"experiment.{name}.json").read_text()
    assert report == pinned
    # the same report on stdout, whose command line lacks the --out
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["experiment", name, *EXPERIMENTS[name]])
    assert [code, err.getvalue()] == [0, ""]
    assert WALL_TIME.sub('"wall_time_s": 0', out.getvalue()) == \
        pinned.replace(OUT_OPTION, "")


@pytest.mark.parametrize("name", GEN)
def test_gen_output_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, pinned = GEN[name]
    code, err, edges, sidecar = _gen(argv)
    assert [code, err] == [0, ""]
    assert edges == pinned.read_text()
    assert sidecar == (GEN_PINS / f"{name}.el.json").read_text()


def _rewrite():
    """Rewrite every pinned `gen` output, then every pinned report and
    outcomes.json, from the current code: the extract pins read the
    rewritten input graphs."""
    for old in REPORTS.glob("*.*.json"):
        old.unlink()
    table = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for name, (argv, pinned) in GEN.items():
            _, _, edges, sidecar = _gen(argv)
            pinned.write_text(edges)
            (GEN_PINS / f"{name}.el.json").write_text(sidecar)
        for graph in GRAPHS:
            for algorithm in EXTRACT_KINDS:
                code, err, report = _extract(algorithm, graph)
                table[f"{graph} {algorithm}"] = [code, err]
                if report is not None:
                    (REPORTS / f"{graph}.{algorithm}.json").write_text(report)
        for name in EXPERIMENTS:
            _, _, report = _experiment(name)
            (REPORTS / f"experiment.{name}.json").write_text(report)
    (REPORTS / "outcomes.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _rewrite()
