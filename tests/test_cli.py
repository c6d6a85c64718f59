"""CLI wiring: generation, extraction reports, experiments, exit codes,
and byte-level determinism."""

import gc
import json
import math
import pathlib
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from nearreg import cli, errors, oracle, regularize
from nearreg.cli import main
from nearreg.graph import Surd, check

from conftest import child_env


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_blocks(tmp_path, capsys):
    out = tmp_path / "b2.el"
    code, _, _ = run_cli(["gen", "blocks", "--s", "2", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "12 8"
    sidecar = json.loads((tmp_path / "b2.el.json").read_text())
    assert sidecar["params"] == {"kind": "blocks", "s": 2}
    assert sidecar["m"] == 8


def test_gen_gnp_bar_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    assert run_cli(["gen", "gnp-bar", "--n", "50", "--seed", "7",
                    "--out", str(a)], capsys)[0] == 0
    assert run_cli(["gen", "gnp-bar", "--n", "50", "--seed", "7",
                    "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_star_needs_two_vertices(tmp_path, capsys):
    code, _, err = run_cli(["gen", "star", "--n", "1",
                            "--out", str(tmp_path / "s.el")], capsys)
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("argv, missing", [
    (["blocks"], "s"),
    (["blocks-padded", "--s", "2"], "n"),
    # a missing --seed would otherwise seed from OS entropy
    (["gnp-bar", "--n", "10"], "seed"),
    (["gnp-uniform", "--n", "10", "--seed", "1"], "p"),
    (["complete-bipartite", "--n", "8"], "k"),
    (["complete-bipartite", "--k", "3"], "n"),
    (["star", "--k", "3"], "n"),
    # a missing option is refused before a negative seed
    (["gnp-uniform", "--n", "10", "--seed", "-1"], "p"),
])
def test_gen_refuses_a_missing_option(argv, missing, tmp_path, capsys):
    out = tmp_path / "g.el"
    code, stdout, err = run_cli(["gen", *argv, "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"precondition: gen {argv[0]} needs --{missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["blocks", "--s", "-1"],
    ["blocks", "--s", "21"],
    ["blocks-padded", "--n", "0"],
    ["gnp-bar", "--n", "1", "--seed", "0"],
    ["gnp-uniform", "--n", "0", "--p", "0.5", "--seed", "0"],
    ["gnp-uniform", "--n", "5", "--p", "1.5", "--seed", "0"],
    ["gnp-uniform", "--n", "5", "--p", "nan", "--seed", "0"],
    ["complete-bipartite", "--k", "0", "--n", "8"],
    ["complete-bipartite", "--k", "8", "--n", "8"],
    ["star", "--n", "1"],
    ["gnp-uniform", "--n", "5", "--p", "-0.5", "--seed", "0"],
    # above the edge cap: about 10^12 edges, and s = 16 with 4.3e9
    ["blocks", "--s", "20"],
    ["blocks-padded", "--n", "1000000"],
    # one edge above the cap, and far above it
    ["star", "--n", "1048578"],
    ["star", "--n", "99999999999999999999"],
    ["complete-bipartite", "--k", "1024", "--n", "2049"],
    ["complete-bipartite", "--k", "99999999999", "--n", "199999999999"],
])
def test_gen_refuses_options_out_of_range(argv, tmp_path, capsys):
    out = tmp_path / "g.el"
    code, stdout, err = run_cli(["gen", *argv, "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("precondition: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["star", "--n", "4", "--seed", "5", "--p", "0.3", "--k", "2"], "k"),
    (["blocks", "--s", "2", "--n", "9"], "n"),
    (["blocks-padded", "--n", "9", "--seed", "1"], "seed"),
    (["gnp-bar", "--n", "10", "--seed", "1", "--p", "0.5"], "p"),
    (["gnp-uniform", "--n", "10", "--p", "0.5", "--seed", "1", "--s", "3"],
     "s"),
    (["complete-bipartite", "--k", "3", "--n", "8", "--seed", "0"], "seed"),
    # an option the kind does not take is refused before its value is read
    (["blocks", "--s", "2", "--seed", "-1"], "seed"),
])
def test_gen_refuses_an_option_its_kind_does_not_take(argv, option,
                                                       tmp_path, capsys):
    out = tmp_path / "g.el"
    code, stdout, err = run_cli(["gen", *argv, "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"precondition: gen {argv[0]} does not take --{option}\n"
    assert not out.exists()


@pytest.mark.parametrize("k, m", [(1, 7), (5, 15), (7, 7)])
def test_gen_complete_bipartite_takes_k_up_to_n_minus_one(k, m, tmp_path,
                                                          capsys):
    out = tmp_path / "kb.el"
    code, _, err = run_cli(["gen", "complete-bipartite", "--k", str(k),
                            "--n", "8", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    assert out.read_text().splitlines()[0] == f"8 {m}"


def test_gen_refuses_an_unknown_kind(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "mystery", "--n", "5", "--out", str(tmp_path / "g.el")])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.startswith("usage: nearreg gen")
    assert "invalid choice: 'mystery'" in err


K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_extract_turan_on_edgeless(tmp_path, capsys):
    path = write_graph(tmp_path, "e.el", "10 0\n")
    code, out, _ = run_cli(["extract", "turan", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["vertices"] == list(range(10))
    assert all(b["pass"] for b in report["bounds"])


def test_extract_thm41_k44(tmp_path, capsys):
    edges = [(a, b) for a in range(4) for b in range(4, 8)]
    text = "8 16\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
    path = write_graph(tmp_path, "k44.el", text)
    code, out, _ = run_cli(["extract", "thm41", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert "no-guarantee" in report["result"]["guarantee"]
    assert report["result"]["ratio"] <= 5
    assert len(report["result"]["edges"]) >= 1


@pytest.mark.parametrize("algorithm", ["matching", "thm41"])
def test_extract_on_long_path(tmp_path, capsys, algorithm):
    n = 2000
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    path = write_graph(tmp_path, "path.el", text)
    code, out, _ = run_cli(["extract", algorithm, path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["bounds"] and all(b["pass"] for b in report["bounds"])


def test_extract_lemma25_keeps_a_graph_at_its_exact_threshold(capsys):
    # Minimum degree 6 equals the exact peel threshold at eps = 0.01.
    path = pathlib.Path(__file__).parent / "fixtures" / "lemma25_c29.el"
    code, out, _ = run_cli(["extract", "lemma25", str(path),
                            "--epsilon", "0.01"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["vertices"] == list(range(29))
    assert [b["id"] for b in report["bounds"]] == [
        "Lem2.5-size", "Lem2.5-maxdeg", "Lem2.5-mindeg", "Lem2.5-ratio"]
    assert all(b["pass"] for b in report["bounds"])


def test_extract_prop21_precondition_exit(tmp_path, capsys):
    text = "10 9\n" + "".join(f"0 {v}\n" for v in range(1, 10))
    path = write_graph(tmp_path, "star.el", text)
    code, _, err = run_cli(["extract", "prop21", path,
                            "--k", "2", "--alpha", "0.4"], capsys)
    assert code == 2 and "precondition" in err


@pytest.mark.parametrize("argv, message", [
    (["extract", "prop21", "G", "--k", "1"], "k must be > 1"),
    (["extract", "prop22", "G", "--k", "1"], "k must be > 1"),
    (["experiment", "regular-prob", "--k", "0"], "need 1 <= k <= n"),
    (["experiment", "point-prob", "--trials", "0"], "trials must be >= 1"),
])
def test_out_of_range_parameters_exit_2_with_no_report(argv, message,
                                                       tmp_path, capsys):
    path = write_graph(tmp_path, "k4.el", K4)
    out = tmp_path / "report.json"
    code, stdout, err = run_cli([path if a == "G" else a for a in argv]
                                + ["--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"precondition: {message}\n"
    assert not out.exists()


def test_extract_missing_file_is_io_error(capsys):
    code, _, _ = run_cli(["extract", "turan", "/nonexistent/g.el"], capsys)
    assert code == 4


def test_extract_malformed_file(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.el", "2 1\n0 0\n")
    report = tmp_path / "report.json"
    code, out, err = run_cli(["extract", "turan", path, "--out", str(report)],
                             capsys)
    assert (code, out, err) == (4, "", "bad edge list: self-loop '0 0'\n")
    assert not report.exists()


def test_extract_file_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_bytes(b"3 1\n0 \xff1\n")
    code, _, err = run_cli(["extract", "turan", str(path)], capsys)
    assert code == 4
    assert err.startswith("bad edge list: line 2: byte 0xff ")


@pytest.mark.parametrize("caller_froze", [False, True])
def test_main_leaves_the_collector_as_it_found_it(caller_froze, tmp_path,
                                                  capsys, monkeypatch):
    # main freezes the imports' objects out of the cyclic collector while a
    # command runs, and thaws them on every way out; a caller's own freeze
    # is neither added to nor undone
    seen, load = [], cli._load_graph

    def load_noting_the_freeze(path):
        seen.append(gc.get_freeze_count())
        return load(path)

    monkeypatch.setattr(cli, "_load_graph", load_noting_the_freeze)
    good = write_graph(tmp_path, "g.el", "3 1\n0 1\n")
    bad = write_graph(tmp_path, "bad.el", "2 1\n0 0\n")
    if caller_froze:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert run_cli(["extract", "turan", good], capsys)[0] == 0
        assert gc.get_freeze_count() == before
        assert run_cli(["extract", "turan", bad], capsys)[0] == 4
        assert gc.get_freeze_count() == before
    finally:
        if caller_froze:
            gc.unfreeze()
    assert len(seen) == 2 and all(count > 0 for count in seen)
    if caller_froze:
        assert seen == [before, before]


# A child process that registers its own at-exit hook, then calls main
# twice: to a file, and to stdout. Hooks run last in, first out, so its hook
# runs after the freeze main registered and reports the freeze it sees.
AT_EXIT_CHILD = textwrap.dedent("""
    import atexit, gc, sys
    from nearreg.cli import main

    atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count(),
                                  file=sys.stderr))
    n = 3000
    with open("path.el", "w") as fh:
        fh.write(f"{n} {n - 1}\\n" + "".join(f"{v} {v + 1}\\n"
                                            for v in range(n - 1)))
    assert main(["extract", "turan", "path.el", "--out", "report.json"]) == 0
    assert gc.get_freeze_count() == 0
    assert main(["extract", "turan", "path.el"]) == 0
    assert gc.get_freeze_count() == 0
""")


def test_main_freezes_the_heap_again_at_exit(tmp_path):
    # the interpreter's collections at exit then skip the import heap; the
    # report main wrote to a pipe, block-buffered and longer than its
    # buffer, is still flushed whole
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    run = subprocess.run([sys.executable, "-c", AT_EXIT_CHILD], cwd=tmp_path,
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    frozen = re.fullmatch(r"frozen at exit: (\d+)\n", run.stderr)
    assert frozen and int(frozen[1]) > 0, run.stderr
    # the two reports differ in their wall time and in the --out the
    # command line echoes
    scrub = re.compile(r'"wall_time_s": [0-9.e-]+')
    written = (tmp_path / "report.json").read_text()
    out_option = ',\n    "--out",\n    "report.json"'
    assert written.count(out_option) == 1 and len(run.stdout) > 8192
    assert scrub.sub("T", run.stdout) == \
        scrub.sub("T", written.replace(out_option, ""))


def test_extract_report_determinism(tmp_path, capsys):
    g = "6 7\n0 1\n0 2\n0 3\n1 2\n2 3\n2 5\n4 5\n"
    path = write_graph(tmp_path, "g.el", g)
    argv = ["extract", "prop11", path, "--c", "3"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    scrub = re.compile(r'"wall_time_s": [0-9.e-]+')
    assert scrub.sub("T", first) == scrub.sub("T", second)
    assert first != ""


def test_experiment_point_prob(capsys):
    code, out, _ = run_cli(["experiment", "point-prob", "--t", "50",
                            "--trials", "5000", "--seed", "2"], capsys)
    assert code == 0
    body = json.loads(out)["result"]
    assert body["within_calibration_cap"] is True
    assert body["mc_dp_gap"] <= body["gap_bound"]


def test_experiment_regular_prob(capsys):
    code, out, _ = run_cli(["experiment", "regular-prob", "--n", "20",
                            "--k", "4", "--trials", "2000", "--seed", "3"],
                           capsys)
    assert code == 0
    body = json.loads(out)["result"]
    assert 0 < body["estimate"] < 1


@pytest.mark.parametrize("argv, se", [
    (["--n", "20", "--k", "6", "--trials", "1"], 0.5),
    (["--n", "40", "--k", "40", "--trials", "200"], 1 / 201),
])
def test_regular_prob_error_at_an_estimate_of_0_or_1(argv, se, capsys):
    code, out, _ = run_cli(["experiment", "regular-prob", *argv], capsys)
    assert code == 0
    body = json.loads(out)["result"]
    assert body["estimate"] in (0.0, 1.0)
    assert body["standard_error"] == pytest.approx(se, rel=1e-12)


def test_experiment_gnpbar_scan_and_cap(capsys):
    code, out, _ = run_cli(["experiment", "gnpbar-scan", "--n", "10",
                            "--samples", "3", "--seed", "5"], capsys)
    assert code == 0
    body = json.loads(out)["result"]
    assert len(body["rows"]) == 3
    assert body["median"] >= 1
    code, _, _ = run_cli(["experiment", "gnpbar-scan", "--n", "40",
                          "--samples", "1", "--seed", "5"], capsys)
    assert code == 3


def test_experiment_gnpbar_scan_counts_its_search_nodes(capsys):
    argv = ["experiment", "gnpbar-scan", "--n", "12", "--samples", "3",
            "--seed", "2"]
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        runs.append([row["explored"] for row in rows])
    assert len(runs[0]) == 3
    assert all(isinstance(x, int) and x > 0 for x in runs[0])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ["experiment", "point-prob", "--t", "0"],
    ["experiment", "gnpbar-scan", "--samples", "0"],
])
def test_experiment_rejects_empty_runs(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "precondition" in err


def test_experiment_gnpbar_scan_refuses_instances_above_the_cap(tmp_path,
                                                                 capsys):
    report = tmp_path / "scan.json"
    code, out, err = run_cli(["experiment", "gnpbar-scan", "--n", "25",
                              "--out", str(report)], capsys)
    assert code == 3 and out == ""
    assert err == "size cap: scan instances of 25 vertices exceed the cap 24\n"
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["experiment", "point-prob", "--t", "10", "--c0-cap", "3"],
    ["experiment", "regular-prob", "--trials", "10", "--c1-cap", "16"],
    ["experiment", "gnpbar-scan", "--n", "8", "--size-cap", "24"],
])
def test_experiment_refuses_the_removed_cap_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: nearreg experiment")
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.mark.parametrize("argv", [
    ["extract", "turan", "g.el", "--seed", "1"],
    ["extract", "turan", "g.el", "--format", "text"],
    ["experiment", "point-prob", "--t", "10", "--format", "text"],
    ["gen", "star", "--n", "9", "--out", "s.el", "--format", "json"],
])
def test_removed_options_are_refused_with_the_command_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(f"usage: nearreg {argv[0]} ")
    assert err.endswith(f"nearreg {argv[0]}: error: unrecognized arguments: "
                        f"{argv[-2]} {argv[-1]}\n")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["extract", "--help"]])
def test_help_prints_a_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: nearreg")


def report_fields(out: str) -> dict:
    """A report without the fields that differ between equivalent command
    lines: the echoed command and the wall time."""
    report = json.loads(out)
    del report["command"], report["wall_time_s"]
    return report


@pytest.mark.parametrize("argv", [
    ["extract", "prop11", "G", "--c=3"],
    ["extract", "--c", "3", "prop11", "G"],
    ["extract", "prop11", "--c", "3", "G"],
])
def test_equivalent_command_lines_give_the_same_report(argv, tmp_path,
                                                        capsys):
    path = write_graph(tmp_path, "k4.el", K4)
    code, out, _ = run_cli(["extract", "prop11", path, "--c", "3"], capsys)
    assert code == 0
    code, other, _ = run_cli([path if a == "G" else a for a in argv], capsys)
    assert code == 0
    assert report_fields(other) == report_fields(out)


def test_a_repeated_option_keeps_its_last_value(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.el", K4)
    code, out, _ = run_cli(["extract", "prop11", path, "--c", "4",
                            "--c=3"], capsys)
    assert code == 0
    assert json.loads(out)["params"] == {"c": 3.0}


@pytest.mark.parametrize("argv, prog, message", [
    (["gen", "star", "--n", "x", "--out", "s.el"], "nearreg gen",
     "argument --n: invalid int value: 'x'"),
    (["extract", "turan"], "nearreg extract",
     "the following arguments are required: graph"),
    (["gen", "star", "--n", "5"], "nearreg gen",
     "the following arguments are required: --out"),
    (["extract", "turan", "g.el", "--out"], "nearreg extract",
     "argument --out: expected one argument"),
    ([], "nearreg", "the following arguments are required: command"),
])
def test_usage_errors_name_the_command_and_the_fault(argv, prog, message,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith(f"\n{prog}: error: {message}\n")


def test_an_unknown_command_is_refused_with_the_top_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mystery", "turan", "g.el"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: nearreg ")
    last = err.splitlines()[-1]
    assert last.startswith("nearreg: error: ")
    assert "invalid choice: 'mystery'" in last


@pytest.mark.parametrize("argv, message", [
    # a value that starts with "-" is the option's value, also where it
    # does not look like a negative number
    (["extract", "prop11", "G", "--c", "-inf"],
     "expected a finite number, got -inf"),
    (["gen", "gnp-uniform", "--n", "5", "--p", "-1e-3", "--seed", "0",
      "--out", "O"], "p must lie in [0, 1]"),
])
def test_a_value_starting_with_a_dash_reaches_the_checks(argv, message,
                                                         tmp_path, capsys):
    path = write_graph(tmp_path, "k4.el", K4)
    out = tmp_path / "x.el"
    argv = [{"G": path, "O": str(out)}.get(a, a) for a in argv]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert err == f"precondition: {message}\n"
    assert not out.exists()


def test_an_option_is_named_in_full(tmp_path, capsys):
    # no prefix of an option's name stands for it
    path = write_graph(tmp_path, "k4.el", K4)
    with pytest.raises(SystemExit) as exc:
        main(["extract", "boost", path, "--eps", "0.3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: nearreg extract ")
    assert err.endswith("nearreg extract: error: unrecognized arguments: "
                        "--eps 0.3\n")


# A child process that runs one extract call and names the modules of
# argparse's import chain it finds loaded.
PARSER_IMPORTS_CHILD = textwrap.dedent("""
    import sys
    from nearreg.cli import main

    with open("k4.el", "w") as fh:
        fh.write("4 6\\n0 1\\n0 2\\n0 3\\n1 2\\n1 3\\n2 3\\n")
    assert main(["extract", "turan", "k4.el", "--out", "report.json"]) == 0
    print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
""")


def test_a_command_imports_no_argument_parser(tmp_path):
    # argparse's first use imports gettext and locale, a fixed cost of
    # every call that reads its command line through it
    run = subprocess.run([sys.executable, "-c", PARSER_IMPORTS_CHILD],
                         cwd=tmp_path, capture_output=True, text=True,
                         env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_calibration_figures_come_from_the_constants(capsys):
    code, out, _ = run_cli(["experiment", "point-prob", "--t", "25",
                            "--trials", "100"], capsys)
    assert code == 0
    body = json.loads(out)["result"]
    assert body["calibration_cap"] == oracle.C0_CAP / 5
    assert body["mc_dp_gap"] == abs(body["mc_estimate"] - body["max_exact"])
    code, out, _ = run_cli(["experiment", "regular-prob", "--n", "20",
                            "--k", "4", "--trials", "10"], capsys)
    assert code == 0
    body = json.loads(out)["result"]
    assert body["calibration_reference"] == 20 * (oracle.C1_CAP / 4) ** 2


def test_exact_limit_default_is_the_library_default():
    assert cli.OPTIONS["extract"]["exact_limit"] == \
        (int, regularize.DEFAULT_EXACT_LIMIT)


def test_extract_boost_above_the_search_cap_is_refused(tmp_path, capsys):
    # 70 vertices under --exact-limit 100: the first round is exhaustive,
    # and the search refuses graphs above 64 vertices
    path = str(tmp_path / "g.el")
    assert run_cli(["gen", "gnp-uniform", "--n", "70", "--p", "0.1",
                    "--seed", "3", "--out", path], capsys)[0] == 0
    report = tmp_path / "report.json"
    code, out, err = run_cli(["extract", "boost", path, "--exact-limit",
                              "100", "--out", str(report)], capsys)
    assert code == 3 and out == ""
    assert err == "size cap: exact search is capped at 64 vertices\n"
    assert not report.exists()


def test_extract_lemma25_refuses_eps_from_a_quarter(tmp_path, capsys):
    # a triangle and three isolated vertices: at eps = 0.3 the peel
    # threshold is negative, so nothing would be peeled
    path = write_graph(tmp_path, "t.el", "6 3\n0 1\n0 2\n1 2\n")
    code, out, err = run_cli(["extract", "lemma25", path,
                              "--epsilon", "0.3"], capsys)
    assert code == 2 and out == ""
    assert "precondition" in err


def test_extract_lemma25_refuses_a_peel_that_leaves_no_vertex(tmp_path,
                                                              capsys):
    path = write_graph(tmp_path, "s9.el",
                       "9 8\n" + "".join(f"0 {v}\n" for v in range(1, 9)))
    out = tmp_path / "l25.json"
    code, stdout, err = run_cli(["extract", "lemma25", path, "--epsilon",
                                 "0.2", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == "precondition: the peel left no vertex\n"
    assert not out.exists()


# the name in `cli` of the extractor each algorithm runs
EXTRACTORS = {
    "prop21": "prop21_refine", "prop22": "prop22_reduce",
    "prop11": "proposition11_pipeline", "boost": "density_boost",
    "lemma25": "lemma25_extract", "thm12": "theorem12_pipeline",
    "thm13": "theorem13_pipeline", "thm41": "theorem41",
    "turan": "turan_independent_set", "matching": "matching_lower_bound",
}


def test_every_algorithm_names_its_extractor():
    assert sorted(cli.EXTRACT_KINDS) == sorted(EXTRACTORS)


# the options each extract algorithm and experiment takes: the parameters of
# the construction or experiment it runs
TAKES = {
    "extract": {
        "prop21": ("k", "alpha"), "prop22": ("k",), "prop11": ("c",),
        "boost": ("epsilon", "exact_limit"), "lemma25": ("epsilon",),
        "thm12": ("epsilon", "exact_limit"),
        "thm13": ("epsilon", "exact_limit"),
        "thm41": (), "turan": (), "matching": (),
    },
    "experiment": {
        "point-prob": ("t", "trials", "seed"),
        "regular-prob": ("n", "k", "trials", "seed"),
        "gnpbar-scan": ("n", "samples", "seed"),
    },
}
KIND_TABLES = {"gen": cli.GEN_KINDS, "extract": cli.EXTRACT_KINDS,
               "experiment": cli.EXPERIMENT_KINDS}


def test_every_kind_takes_the_parameters_of_what_it_runs():
    for command, kinds in TAKES.items():
        assert {kind: entry[1] for kind, entry in
                KIND_TABLES[command].items()} == kinds


def test_every_option_a_kind_takes_is_in_the_option_table():
    # a name missing from OPTIONS would exit 5 with a KeyError
    for command, kinds in KIND_TABLES.items():
        for kind, entry in kinds.items():
            assert set(entry[1]) <= set(cli.OPTIONS[command]), (command, kind)


@pytest.mark.parametrize("command, kind, option", [
    (command, kind, option)
    for command, kinds in TAKES.items()
    for kind, names in kinds.items()
    for option in cli.OPTIONS[command] if option not in names])
def test_a_kind_refuses_an_option_it_does_not_take(command, kind, option,
                                                   tmp_path, capsys):
    flag = "--" + option.replace("_", "-")
    graph = [write_graph(tmp_path, "k4.el", K4)] if command == "extract" \
        else []
    out = tmp_path / "report.json"
    code, stdout, err = run_cli([command, kind, *graph, flag, "1",
                                 "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"precondition: {command} {kind} does not take {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("algorithm", sorted(EXTRACTORS))
def test_a_rebound_extractor_is_the_one_extract_runs(algorithm, tmp_path,
                                                     capsys, monkeypatch):
    # a tracer rebinds the extractors' names in `cli` after import, so the
    # extract command must look each one up when it runs
    name = EXTRACTORS[algorithm]
    extractor, calls = getattr(cli, name), []

    def wrapper(g, *params):
        calls.append((g.n, g.m, params))
        return extractor(g, *params)

    monkeypatch.setattr(cli, name, wrapper)
    path = write_graph(tmp_path, "k4.el", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(["extract", algorithm, path], capsys)
    assert [call[:2] for call in calls] == [(4, 6)]
    if code == 0:
        assert sorted(json.loads(out)["params"].values()) == \
            sorted(calls[0][2])


def test_unexpected_exception_is_internal_error(tmp_path, capsys,
                                                monkeypatch):
    def boom(g):
        raise RuntimeError("boom")

    monkeypatch.setattr("nearreg.cli.matching_lower_bound", boom)
    path = write_graph(tmp_path, "k2.el", "2 1\n0 1\n")
    code, out, err = run_cli(["extract", "matching", path], capsys)
    assert code == 5 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("error, exit_code, label", [
    (errors.BoundViolationError, 1, "guarantee failed"),
    (errors.PreconditionError, 2, "precondition"),
    (errors.CapExceededError, 2, "precondition"),
    (errors.SizeCapError, 3, "size cap"),
    (errors.EdgeListError, 4, "bad edge list"),
    (RuntimeError, 5, "internal error: RuntimeError"),
])
def test_each_error_type_ends_with_its_exit_code_and_label(
        tmp_path, capsys, monkeypatch, error, exit_code, label):
    def boom(g):
        raise error("boom")

    monkeypatch.setattr("nearreg.cli.matching_lower_bound", boom)
    path = write_graph(tmp_path, "k2.el", "2 1\n0 1\n")
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["extract", "matching", path, "--out", str(target)], capsys)
    assert (code, out, err) == (exit_code, "", f"{label}: boom\n")
    assert not target.exists()


def test_every_package_error_declares_an_exit_code():
    # a new type without one would fall through to the internal error, 5
    types = [t for t in vars(errors).values() if isinstance(t, type)
             and issubclass(t, errors.NearRegError)
             and t is not errors.NearRegError]
    assert len(types) == 5
    for t in types:
        assert t.exit_code in range(1, 5) and t.label, t.__name__


def test_experiment_determinism(capsys):
    argv = ["experiment", "point-prob", "--t", "30", "--trials", "2000",
            "--seed", "9"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    scrub = re.compile(r'"wall_time_s": [0-9.e-]+')
    assert scrub.sub("T", first) == scrub.sub("T", second)


def test_out_file(tmp_path, capsys):
    path = write_graph(tmp_path, "e.el", "4 0\n")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["extract", "turan", path, "--out", str(target)],
                           capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["schema"] == "nearreg-report/1"


@pytest.mark.parametrize("argv", [
    ["extract", "prop21", "G", "--k", "nan"],
    ["extract", "prop21", "G", "--k", "inf"],
    ["extract", "prop22", "G", "--k", "nan"],
    ["extract", "prop22", "G", "--k", "inf"],
    ["extract", "prop21", "G", "--alpha", "nan"],
    ["extract", "prop11", "G", "--c", "nan"],
    ["extract", "prop11", "G", "--c", "inf"],
    ["extract", "lemma25", "G", "--epsilon", "nan"],
    ["extract", "lemma25", "G", "--epsilon", "inf"],
    ["extract", "boost", "G", "--epsilon", "nan"],
    ["extract", "thm13", "G", "--epsilon", "inf"],
])
def test_non_finite_numbers_are_preconditions(argv, tmp_path, capsys):
    path = write_graph(tmp_path, "k4.el", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = run_cli([path if a == "G" else a for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("precondition:")


@pytest.mark.parametrize("argv", [
    ["prop21", "--k", "1e308"],
    ["prop21", "--alpha", "1e-320"],
    ["prop22", "--k", "1e308"],
])
def test_thresholds_beyond_floats_are_reported_infinite(argv, tmp_path,
                                                        capsys):
    path = write_graph(tmp_path, "k4.el", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = run_cli(["extract", argv[0], path, *argv[1:]], capsys)
    assert code == 0 and err == ""
    bounds = json.loads(out)["bounds"]
    assert math.inf in [b["threshold"] for b in bounds]
    assert all(b["pass"] for b in bounds)


def test_check_json_writes_thresholds_beyond_floats_as_infinite():
    def threshold(entry):
        return cli._ledger([entry])[0]["threshold"]

    huge = Fraction(10 ** 400)
    assert threshold(check("t", 4, "<=", huge)) == math.inf
    low = check("t", 4, ">=", -huge)
    assert (threshold(low), low.passed) == (-math.inf, True)
    assert not check("t", 4, ">=", huge + Fraction(1, 3)).passed
    surd = Surd(-huge, Fraction(1), Fraction(2))
    assert threshold(check("t", 0, ">=", surd)) == -math.inf


@pytest.mark.parametrize("algorithm", ["thm12", "thm13"])
@pytest.mark.parametrize("eps", ["6", "7", "1e308"])
def test_extract_pipelines_refuse_epsilon_from_six(algorithm, eps, tmp_path,
                                                    capsys):
    path = write_graph(tmp_path, "k4.el", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, err = run_cli(["extract", algorithm, path, "--epsilon", eps],
                             capsys)
    assert code == 2 and out == ""
    assert "epsilon must lie in (0, 6)" in err


def test_extract_thm12_refuses_epsilon_three_naming_epsilon(tmp_path,
                                                           capsys):
    # K_5,5: eps^2/36 = 1/4 is outside the extraction's (0, 1/4), so the
    # refusal names epsilon's own range, not the inner eps
    edges = "".join(f"{a} {b}\n" for a in range(5) for b in range(5, 10))
    path = write_graph(tmp_path, "k55.el", f"10 25\n{edges}")
    code, out, err = run_cli(["extract", "thm12", path, "--epsilon", "3"],
                             capsys)
    assert code == 2 and out == ""
    assert "epsilon must lie in (0, 3)" in err and "eps must" not in err


@pytest.mark.parametrize("argv, expected", [
    (["prop11", "--c", "2.0000000000000004"], 0),
    (["thm12", "--epsilon", "1e-155"], 2),
    (["thm13", "--epsilon", "1e-155"], 2),
])
def test_extreme_parameters_exit_cleanly(argv, expected, tmp_path, capsys):
    # c = 2 + 2^-52 gives k1 = 1 + 2^-54, which is 1.0 as a float, and the
    # reduce's size bound took log2(0); eps = 1e-155 makes eps^2/36
    # subnormal, and dividing by it overflowed a float. Both exited 5.
    path, report = str(tmp_path / "uniform.el"), tmp_path / "report.json"
    assert run_cli(["gen", "gnp-uniform", "--n", "40", "--p", "0.2",
                    "--seed", "3", "--out", path], capsys)[0] == 0
    code, out, err = run_cli(["extract", argv[0], path, *argv[1:],
                              "--out", str(report)], capsys)
    assert code == expected and out == ""
    if expected == 0:
        assert err == ""
        assert all(b["pass"] for b in json.loads(report.read_text())["bounds"])
    else:
        assert err.startswith("precondition: epsilon must lie in (0, 6)")
        assert err.count("\n") == 1 and not report.exists()


@pytest.mark.parametrize("kind", ["gnp-uniform", "gnp-bar"])
def test_gen_refuses_a_negative_seed(kind, tmp_path, capsys):
    own = ["--p", "0.5"] if kind == "gnp-uniform" else []
    out = tmp_path / "g.el"
    code, stdout, err = run_cli(["gen", kind, "--n", "10", *own,
                                 "--seed", "-1", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == "precondition: --seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["point-prob", "--t", "5", "--trials", "10", "--seed", "-1"],
    ["regular-prob", "--n", "20", "--k", "6", "--trials", "10",
     "--seed", "-1"],
    ["gnpbar-scan", "--n", "5", "--samples", "1", "--seed", "-3"],
])
def test_experiment_refuses_a_negative_seed(argv, capsys):
    code, out, err = run_cli(["experiment", *argv], capsys)
    assert code == 2 and out == ""
    assert err == "precondition: --seed must be >= 0\n"


def test_extract_header_too_large_for_memory_is_a_size_cap(tmp_path, capsys):
    # the vertex count alone asks for far more offsets than any memory
    # holds, so the allocation fails at once; beyond 2^63 / 8 offsets no
    # numpy array can hold them, and beyond int64 no key either
    for n in (10**15, 2**63, 10**20):
        path = write_graph(tmp_path, "big.el", f"{n} 0\n")
        code, out, err = run_cli(["extract", "prop11", path], capsys)
        assert code == 3 and out == ""
        assert err == "size cap: the input is too large to hold in memory\n"
