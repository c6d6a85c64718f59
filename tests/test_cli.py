"""CLI wiring: generation, extraction reports, experiments, exit codes,
and byte-level determinism."""

import json
import pathlib
import re

import pytest

from nearreg.cli import main


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


def test_extract_missing_file_is_io_error(capsys):
    code, _, _ = run_cli(["extract", "turan", "/nonexistent/g.el"], capsys)
    assert code == 4


def test_extract_malformed_file(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.el", "2 1\n0 0\n")
    code, _, _ = run_cli(["extract", "turan", path], capsys)
    assert code == 4


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


@pytest.mark.parametrize("argv", [
    ["experiment", "point-prob", "--t", "0"],
    ["experiment", "gnpbar-scan", "--samples", "0"],
])
def test_experiment_rejects_empty_runs(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "precondition" in err


def test_unexpected_exception_is_internal_error(tmp_path, capsys,
                                                monkeypatch):
    def boom(g):
        raise RuntimeError("boom")

    monkeypatch.setattr("nearreg.cli.matching_lower_bound", boom)
    path = write_graph(tmp_path, "k2.el", "2 1\n0 1\n")
    code, out, err = run_cli(["extract", "matching", path], capsys)
    assert code == 5 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_experiment_determinism(capsys):
    argv = ["experiment", "point-prob", "--t", "30", "--trials", "2000",
            "--seed", "9"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    scrub = re.compile(r'"wall_time_s": [0-9.e-]+')
    assert scrub.sub("T", first) == scrub.sub("T", second)


def test_text_format(tmp_path, capsys):
    path = write_graph(tmp_path, "e.el", "4 0\n")
    code, out, _ = run_cli(["extract", "turan", path, "--format", "text"],
                           capsys)
    assert code == 0
    assert out.startswith("algorithm:")


def test_out_file(tmp_path, capsys):
    path = write_graph(tmp_path, "e.el", "4 0\n")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["extract", "turan", path, "--out", str(target)],
                           capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["schema"] == "nearreg-report/1"
