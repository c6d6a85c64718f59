"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is pinned here; nothing defers to later calibration.
"""

import io
import json
import math
import pathlib
import re
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

import nearreg as nr
from nearreg.cli import main as cli_main
from nearreg.regularize import _density

from conftest import bitmask_rows, nearly_regular_check

SAMPLE_N = 100


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} | {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def contract_samples():
    """200 seeded G(100, p) samples, p in {0.2, 0.5}, with their stats."""
    samples = []
    for i in range(100):
        for p in (0.2, 0.5):
            g = nr.sample_gnp_uniform(SAMPLE_N, p, 1_000 + 2 * i + int(p * 10))
            samples.append((g, nr.degree_stats(g)))
    return samples


def test_c01_prop21_contract_suite(contract_samples):
    combos = [(k, a) for k in (2, 3) for a in (0.3, 0.4)]
    runs = failures = 0
    start = time.perf_counter()
    for g, stats in contract_samples:
        d = stats.avg_deg
        for k, alpha in combos:
            if stats.max_deg > k * d:
                continue
            res = nr.prop21_refine(g, k, alpha)
            runs += 1
            kf, af = Fraction(k), Fraction(str(alpha))
            ok = (res.ratio <= kf / af
                  and len(res.vertices) >= (1 - 2 * af) / (kf - 2 * af) * g.n
                  and res.stats.avg_deg * len(res.vertices) / 2
                  >= (kf - 2 * kf * af) / (2 * kf - 4 * af) * g.n * d)
            failures += not ok
    elapsed = time.perf_counter() - start
    report("C1", failures == 0 and elapsed < 1.0,
           f"{runs} refine runs, {failures} failures, {elapsed:.2f}s (< 1 s)")


def test_c02_prop22_contract_suite(contract_samples):
    runs = failures = 0
    for g, _ in contract_samples:
        for k in (2, 4, 8):
            sub, _trace, _checks = nr.prop22_reduce(g, k)
            runs += 1
            s = nr.degree_stats(sub)
            ok = (s.max_deg <= k * s.avg_deg
                  and sub.n >= g.n ** (1 + math.log2(1 - 1 / k)) - 1e-9)
            failures += not ok
    report("C2", failures == 0, f"{runs} reduce runs, {failures} failures")


def test_c03_density_boost_certified_bounds():
    eps = 0.3
    failures = 0
    for seed in range(10):
        g = nr.sample_gnp_uniform(20, 0.5, seed)
        p0 = float(_density(g))
        out = nr.density_boost(g, eps, exact_limit=24)
        bound = (2 / eps) * math.log(1 / p0)
        ok = (out.certified and out.rounds < bound
              and out.subgraph.n >= eps ** bound * 20)
        failures += not ok
    report("C3", failures == 0, f"10 certified boosts, {failures} failures")


def _lemma25_bounds_hold(sub, eps, res) -> bool:
    n, p = sub.n, float(_density(sub))
    se = math.sqrt(eps)
    s = res.stats
    return (len(res.vertices) >= (1 - eps - 2 * se) * n - 1e-9
            and s.max_deg <= (1 + 3 * se) * n * p + 1e-9
            and s.min_deg >= (1 - 2 * se) * n * p - 1e-9
            and float(res.ratio) <= 1 + 6 * se + 1e-9)


def test_c04_lemma25_theorem12_composition():
    failures = 0
    details = []
    k100 = nr.Graph.from_edges(
        100, [(a, b) for a in range(100) for b in range(a + 1, 100)])
    for eps in (0.3, 0.5):
        res = nr.theorem12_pipeline(k100, eps)
        eps0 = eps * eps / 36
        inner = nr.lemma25_extract(k100, eps0)
        ok = (_lemma25_bounds_hold(k100, eps0, inner)
              and float(res.ratio) <= 1 + eps)
        failures += not ok
        details.append(f"K100@{eps}:{'ok' if ok else 'BAD'}")
    for seed in range(5):
        g = nr.sample_gnp_uniform(20, 0.5, seed)
        # Lemma 2.5 needs eps < 1/4; at eps >= 1/4 it is refused
        out = nr.density_boost(g, 0.2)
        if not out.certified:
            failures += 1
            continue
        res = nr.lemma25_extract(out.subgraph, 0.2)
        ok = _lemma25_bounds_hold(out.subgraph, 0.2, res)
        failures += not ok
    try:
        nr.lemma25_extract(nr.star(10), 0.1)
        failures += 1
        details.append("star:no-error")
    except nr.CapExceededError:
        details.append("star:cap-exceeded")
    report("C4", failures == 0,
           f"{failures} failures ({', '.join(details)}, 5 boost outputs)")


def test_c05_theorem41_contract():
    failures = 0
    worst = 0.0
    case1 = 0
    for seed in range(50):
        g = nr.sample_gnp_uniform(200, 0.5, 7_000 + seed)
        d = float(nr.degree_stats(g).avg_deg)
        t0 = time.perf_counter()
        res, _ = nr.theorem41(g)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = (float(res.ratio) <= 5
              and len(res.edges) >= math.ceil(d * d / 4096)
              and dt < 5.0)
        if "case1" in res.guarantee:
            case1 += 1
            ok = ok and res.stats.max_deg == res.stats.min_deg == 1
        failures += not ok
    report("C5", failures == 0,
           f"50 graphs, {failures} failures, {case1} case-1 outputs, "
           f"worst {worst:.2f}s (< 5 s)")


def test_c06_oracle_dominance():
    failures = skipped = produced = 0
    for seed in range(500):
        n = 6 + seed % 9  # sizes 6..14
        p = (0.3, 0.5, 0.7)[seed % 3]
        g = nr.sample_gnp_uniform(n, p, 20_000 + seed)
        oracle = {c: nr.exact_f(g, c).value for c in (1, 1.5, 2, 5)}
        outputs = []
        turan = nr.turan_independent_set(g).vertices
        outputs.extend((c, turan) for c in (1, 1.5, 2, 5))
        try:
            outputs.append((5, nr.proposition11_pipeline(g, 5).vertices))
        except nr.PreconditionError:
            skipped += 1
        for c, eps in ((1.5, 0.5), (2, 1.0)):
            if g.m == 0:
                continue
            try:
                outputs.append(
                    (c, nr.theorem12_pipeline(g, eps).vertices))
            except (nr.CapExceededError, nr.BoundViolationError):
                skipped += 1
        try:
            stats = nr.degree_stats(g)
            if stats.max_deg <= 2 * stats.avg_deg:
                outputs.append((5, nr.prop21_refine(g, 2, 0.4).vertices))
        except nr.PreconditionError:
            skipped += 1
        for c, vertices in outputs:
            produced += 1
            sub, _ = nr.induced(g, vertices)
            if not nearly_regular_check(sub, c):
                failures += 1
            if len(vertices) > oracle[c]:
                failures += 1
    report("C6", failures == 0,
           f"500 graphs, {produced} outputs checked, {failures} failures, "
           f"{skipped} runs skipped on documented errors")


def test_c07_blocks_exhaustive_verification():
    g = nr.blocks(2)  # n = 12, s = 2
    s_param, k_param = 2, 2
    best = 0
    violations = 0
    rows = bitmask_rows(g)
    for code in range(1 << g.n):
        members = [v for v in range(g.n) if code >> v & 1]
        if not members:
            continue
        degs = [(rows[v] & code).bit_count() for v in members]
        mx, mn = max(degs), min(degs)
        if mx > k_param * mn:
            continue
        best = max(best, len(members))
        bound = Fraction(2 * (k_param * mn + 1), mn + 1) * \
            Fraction(g.n, s_param + 1)
        if len(members) > bound:
            violations += 1
    oracle = nr.exact_f(g, 2).value
    ok = violations == 0 and oracle == best
    report("C7", ok,
           f"enumerated 2^{g.n} subsets, max 2-nearly-regular = {best}, "
           f"oracle = {oracle}, {violations} bound violations")


def test_c08_small_order_minima():
    fixtures = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "exact_f_n.json")
        .read_text())
    frozen = {int(k): v for k, v in fixtures["values"].items()}
    start = time.perf_counter()
    values = {n: nr.exact_f_n(n, 1) for n in range(2, 7)}
    elapsed = time.perf_counter() - start
    hand = values[2] == 2 and values[3] == 2
    matches = values == frozen
    report("C8", hand and matches and elapsed < 120,
           f"f(n,1) for n=2..6 = {[values[n] for n in range(2, 7)]} "
           f"(fixture match: {matches}), {elapsed:.1f}s (< 120 s)")


def test_c09_point_probability_calibration():
    t, cap = 100, 3.0
    rng = np.random.Generator(np.random.PCG64(90))
    failures = 0
    vectors = [1 / 16 + (9 / 16 - 1 / 16) * rng.random(t) for _ in range(50)]
    for rhos in vectors:
        dist = nr.point_prob_distribution(list(rhos))
        if dist.max() > cap / math.sqrt(t):
            failures += 1
    trials = 100_000
    mc_gap_bound = 4 / math.sqrt(trials)
    for idx in range(3):
        rhos = list(vectors[idx])
        dist = nr.point_prob_distribution(rhos)
        s = int(np.argmax(dist))
        est = nr.estimate_point_prob(rhos, s, trials, 91 + idx)
        if abs(est - float(dist[s])) > mc_gap_bound:
            failures += 1
    report("C9", failures == 0,
           f"50 exact vectors vs cap {cap}/sqrt(t), 3 MC cross-checks "
           f"within {mc_gap_bound:.4f}, {failures} failures")


def test_c10_regular_probability_decreases():
    trials = 1_000_000
    estimates = {}
    for k in (3, 4, 5, 6):
        est = nr.estimate_regular_prob(20, k, trials, 100 + k)
        se = math.sqrt(est * (1 - est) / trials)
        estimates[k] = (est, se)
    ok = True
    gaps = []
    for a, b in ((3, 4), (4, 5), (5, 6)):
        (ea, sa), (eb, sb) = estimates[a], estimates[b]
        gap = ea - eb
        need = 3 * math.sqrt(sa * sa + sb * sb)
        gaps.append(f"{a}->{b}: {gap:.4f} > {need:.4f}")
        ok = ok and gap > need
    report("C10", ok,
           "; ".join(f"k={k}: {e:.4f}+-{s:.4f}"
                     for k, (e, s) in estimates.items())
           + " | " + "; ".join(gaps))


def test_c11_edge_version_extremal_checks():
    failures = 0
    ceilings = []
    for k in (3, 5):
        res, _ = nr.theorem41(nr.complete_bipartite(k, 50))
        ceilings.append(len(res.edges))
        failures += len(res.edges) > 5 * k * k
    short = 0
    for seed in range(200):
        n = 10 + seed % 31
        p = (0.2, 0.4, 0.6)[seed % 3]
        g = nr.sample_gnp_uniform(n, p, 30_000 + seed)
        edges = nr.matching_lower_bound(g).edges
        if len(edges) < -(-g.m // g.n):
            short += 1
    failures += short
    report("C11", failures == 0,
           f"bipartite ceilings {ceilings}, "
           f"200 matching runs with {short} short")


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, f"cli {argv} exited {code}"
    return buf.getvalue()


def test_c12_cli_determinism(tmp_path):
    scrub = re.compile(r'"wall_time_s": [0-9.e-]+')
    a, b = str(tmp_path / "a.el"), str(tmp_path / "b.el")
    _run_cli(["gen", "gnp-bar", "--n", "50", "--seed", "7", "--out", a])
    _run_cli(["gen", "gnp-bar", "--n", "50", "--seed", "7", "--out", b])
    same_files = (pathlib.Path(a).read_text()
                  == pathlib.Path(b).read_text())
    extract_pair = [
        scrub.sub("T", _run_cli(["extract", "thm41", a]))
        for _ in range(2)
    ]
    experiment_pair = [
        scrub.sub("T", _run_cli(["experiment", "point-prob", "--t", "60",
                                 "--trials", "20000", "--seed", "4"]))
        for _ in range(2)
    ]
    scan_pair = [
        scrub.sub("T", _run_cli(["experiment", "gnpbar-scan", "--n", "12",
                                 "--samples", "4", "--seed", "9"]))
        for _ in range(2)
    ]
    schema = json.loads(_run_cli(["extract", "thm41", a]))["schema"]
    ok = (same_files and extract_pair[0] == extract_pair[1]
          and experiment_pair[0] == experiment_pair[1]
          and scan_pair[0] == scan_pair[1]
          and schema == "nearreg-report/1")
    report("C12", ok, "gen files identical; extract/experiment/scan reports "
           "identical modulo wall time")
