"""The command line end to end: `extract` on a 10⁶-vertex path in child
processes, each of which reports its own peak memory, and in-process runs
whose results are checked against what the inputs allow (the scan's
witnesses through networkx, the boost on complete bipartite graphs, and
`regular-prob` on 10⁸ vertices)."""

import json
import re
import subprocess
import sys
import textwrap
import time

import pytest

from nearreg.cli import main

from conftest import child_env

PATH_N = 10**6

# `python -m nearreg.cli`, run by runpy with one at-exit hook registered
# first. Hooks run last in, first out, so after main's own the child prints
# the high-water mark of its resident memory as its last line of stderr.
# The parent's RUSAGE_CHILDREN is no gauge of it: Linux carries the
# high-water mark of the process that forks and execs into the child's.
CHILD = textwrap.dedent("""
    import atexit, runpy, sys

    def print_peak():
        with open("/proc/self/status") as fh:
            (kib,) = [line.split()[1] for line in fh
                      if line.startswith("VmHWM:")]
        print("peak_kib", kib, file=sys.stderr)

    atexit.register(print_peak)
    runpy.run_module("nearreg.cli", run_name="__main__", alter_sys=True)
""")


def run_child(argv, cwd):
    """One `nearreg` call in a child process; returns its exit code, its
    stderr without the peak line, and its peak resident memory in MB."""
    run = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd,
                         capture_output=True, text=True, env=child_env())
    tail = re.fullmatch(r"(.*)peak_kib (\d+)\n", run.stderr, re.S)
    assert tail, run.stderr
    return run.returncode, tail[1], int(tail[2]) / 1024


@pytest.fixture(scope="module")
def path_dir(tmp_path_factory):
    """A directory holding the path on `PATH_N` vertices as `path.el`: its
    n-bit rows would need 62 GB, its CSR arrays 16 MB."""
    workdir = tmp_path_factory.mktemp("path")
    (workdir / "path.el").write_text(
        f"{PATH_N} {PATH_N - 1}\n"
        + "".join(f"{v} {v + 1}\n" for v in range(PATH_N - 1)))
    return workdir


def extract_path(algorithm, workdir):
    """`nearreg extract <algorithm> path.el` in a child process, which must
    exit 0 with nothing on stderr; returns the report's text and the
    child's peak memory in MB."""
    out = workdir / f"{algorithm}.json"
    code, err, peak_mb = run_child(
        ["extract", algorithm, "path.el", "--out", out.name], workdir)
    assert (code, err) == (0, "")
    return out.read_text(), peak_mb


def assert_written_by_json_dumps(text):
    # the report writer at scale: its bytes are those of json.dumps
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


# The threshold peels of `prop11` and `lemma25` read the CSR rows of the
# vertices they delete and build no neighbour lists: about 325 and 300 MB,
# where the lists took them past 400 MB.
CORE_PEAK_MB = 380


def test_prop11_on_the_path(path_dir):
    text, peak_mb = extract_path("prop11", path_dir)
    assert_written_by_json_dumps(text)
    assert peak_mb < CORE_PEAK_MB


def test_turan_on_the_path_takes_the_even_ids(path_dir):
    # the greedy takes 0, drops 1, takes 2, ...: the early stop at scale
    text, _ = extract_path("turan", path_dir)
    assert json.loads(text)["result"]["vertices"] == list(range(0, PATH_N, 2))
    assert_written_by_json_dumps(text)


def test_lemma25_on_the_path(path_dir):
    # Lemma 2.5's top cut is `induced` of the other vertices at scale
    _, peak_mb = extract_path("lemma25", path_dir)
    assert peak_mb < CORE_PEAK_MB


def test_matching_on_the_path_is_perfect(path_dir):
    # one augmenting-path search at each of a million vertices; the
    # matching is written as ascending (low, high) pairs
    text, _ = extract_path("matching", path_dir)
    assert json.loads(text)["result"]["edges"] == \
        [[v, v + 1] for v in range(0, PATH_N, 2)]


def test_thm41_on_the_path_in_bounded_memory(path_dir):
    # the cascade holds its residual graph once, in the rows of both
    # sides: about 485 MB; a second side-B copy passes 700 MB
    text, peak_mb = extract_path("thm41", path_dir)
    result = json.loads(text)["result"]
    assert (result["guarantee"], result["edges"], result["cascade"]["rounds"],
            result["cascade"]["set_sizes"]) == \
        ("Thm4.1-case1 no-guarantee", [[0, 1]], 1, [[1, 1]])
    assert peak_mb < 640


def run_main(argv, capsys):
    """One in-process call, which must exit 0 with nothing on stderr;
    returns its stdout."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("argv", [
    ["gnpbar-scan", "--n", "8", "--samples", "1"],
    ["regular-prob", "--n", "20", "--k", "6", "--trials", "20000"],
    ["point-prob", "--t", "50", "--trials", "20000"],
])
def test_experiment_at_its_default_seed(argv, capsys):
    assert json.loads(run_main(["experiment", *argv], capsys))["result"]


def test_gnpbar_scan_witnesses_at_the_cap(tmp_path, monkeypatch, capsys):
    # each row's witness, checked with networkx on the graph gen writes at
    # the row's seed, is ascending and induces a regular graph of the
    # row's size; 24 vertices is the scan's cap
    import networkx as nx

    monkeypatch.chdir(tmp_path)
    rows = json.loads(run_main(["experiment", "gnpbar-scan", "--n", "24",
                                "--samples", "2", "--seed", "0"],
                               capsys))["result"]["rows"]
    assert [row["seed"] for row in rows] == [0, 1]
    for row in rows:
        run_main(["gen", "gnp-bar", "--n", "24", "--seed", str(row["seed"]),
                  "--out", "bar.el"], capsys)
        header, *lines = (tmp_path / "bar.el").read_text().splitlines()
        n, m = map(int, header.split())
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(tuple(map(int, line.split())) for line in lines)
        witness = row["witness"]
        assert (row["m"], g.number_of_edges()) == (m, m), row
        assert witness == sorted(set(witness)), row
        assert len(witness) == row["largest_regular"], row
        assert len({d for _, d in g.subgraph(witness).degree()}) == 1, row


@pytest.mark.parametrize("k, rounds", [(11, 3), (8, 4)])
def test_boost_on_complete_bipartite(k, rounds, tmp_path, monkeypatch,
                                     capsys):
    # K_11,11 and K_8,14 are within the default --exact-limit 24, so every
    # boost round runs the exhaustive dense-subset search; on K_11,11 the
    # first round misses at the top size and takes the peel-seeded probes,
    # on K_8,14 every round misses at the top size and searches upward
    # from the peel's cut
    monkeypatch.chdir(tmp_path)
    run_main(["gen", "complete-bipartite", "--k", str(k), "--n", "22",
              "--out", "kb.el"], capsys)
    result = json.loads(run_main(["extract", "boost", "kb.el"],
                                 capsys))["result"]
    assert (result["vertices"], result["rounds"], result["certified"]) == \
        ([0, k], rounds, True)


def test_regular_prob_builds_the_weights_of_its_k_vertices_only(capsys):
    # not all n of them, so 10⁸ vertices take well under 20 s
    start = time.perf_counter()
    run_main(["experiment", "regular-prob", "--n", "100000000", "--k", "6",
              "--trials", "1000"], capsys)
    assert time.perf_counter() - start < 20
