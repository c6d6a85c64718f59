#!/usr/bin/env python3
"""Fast self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at toy size through the checker (untraced, and one
traced run), feeds the checker corrupted reports that it must flag, checks
that BENCHMARK.json lists exactly the metrics and workloads the code
produces, and checks that the benchmark refuses to run without the program.
Prints one line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_toy_workloads():
    for name in sorted(workloads.PLANS):
        code, res = bench("--workload", name, "--seed", "3", "--seconds",
                          "1", "--trace", "0", "--toy")
        assert code == 0 and res["correct"], (name, res)
        assert all(m["value"] > 0 for k, m in res["metrics"].items()
                   if k != "fail_ratio"), (name, res["metrics"])
    code, res = bench("--workload", "dense", "--seed", "3", "--seconds", "1",
                      "--trace", "1", "--toy")
    assert code == 0 and res["correct"], res


def _report(workdir, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "nearreg.cli", *argv, "--out",
                    "r.json"], cwd=workdir, env=env, check=True, timeout=60)
    with open(os.path.join(workdir, "r.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_corrupted_reports():
    with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
        # a 4-cycle 0-1-2-3 with a pendant path 3-4-5: small but not regular
        run.write_edge_list(os.path.join(d, "g.txt"), 6,
                            [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)])
        turan_argv = ["extract", "turan", "g.txt", "--out", "r.json"]
        good = _report(d, turan_argv[:-2])
        assert checker.check_report(turan_argv, good, d) == []
        bad = copy.deepcopy(good)
        members = set(bad["result"]["vertices"])
        extra = next(v for v in range(6) if v not in members)
        bad["result"]["vertices"] = sorted(members | {extra})
        assert any("not independent" in p
                   for p in checker.check_report(turan_argv, bad, d)), bad

        prop_argv = ["extract", "prop11", "g.txt", "--c", "3", "--out",
                     "r.json"]
        good = _report(d, prop_argv[:-2])
        assert checker.check_report(prop_argv, good, d) == []
        run.write_edge_list(os.path.join(d, "g.txt"), 6,
                            [(0, v) for v in range(1, 6)])
        # the star K_{1,5} has ratio 5 > c; stats and ratio stay truthful
        bad = copy.deepcopy(good)
        bad["input"].update(n=6, m=5, max_deg=5, min_deg=1,
                            avg_deg_exact="5/3", density_exact="1/3")
        bad["result"].update(
            vertices=list(range(6)), ratio_exact="5",
            stats=dict(bad["result"]["stats"], max_deg=5, min_deg=1,
                       avg_deg_exact="5/3", density_exact="1/3"))
        problems = checker.check_report(prop_argv, bad, d)
        assert problems == ["prop11 ratio 5 exceeds c=3"], problems

        bad["bounds"][0]["pass"] = False
        assert any("failed" in p
                   for p in checker.check_report(prop_argv, bad, d))


def check_benchmark_json():
    # every workload has a plan, and every per-layer metric says what it
    # should move (BENCHMARK.json has no key for that)
    assert {w["name"] for w in run.SPEC["workloads"]} == set(workloads.PLANS)
    assert [m["name"] for m in run.SPEC["per_layer"]] == \
        [m.name for m in layers.LAYER_METRICS]


def check_refuses_without_program():
    with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res = bench("--workload", "exact", "--seed", "1", "--seconds",
                          "1", "--trace", "0", cwd=d)
        assert code != 0 and res is None, (code, res)


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    failed = 0
    for check in (check_benchmark_json, check_corrupted_reports,
                  check_refuses_without_program, check_toy_workloads):
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
