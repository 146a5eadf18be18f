"""Acceptance gate: the thirteen release criteria, one test each.

Every test prints a single `[acceptance] criterion k: PASS/FAIL` line
(visible even under output capture) and then asserts.  Tolerances are
pinned here and must not be loosened; a red criterion is a finding.
"""

import math
import time

import numpy as np
import pytest

from ramabel import (
    check_property_catalog,
    conjecture_d_mean,
    cq_int,
    cq_orthogonality,
    lambda1_series,
    odd_gap_mean,
    pair_autocorrelation,
    pair_constant,
    pnt_mean,
    polynomial_cq_mean,
    required_Q,
    series_constant,
    series_wk,
    sigma_rf,
    tail_bound,
    twin_constant,
)
from ramabel.cli import main as cli_main
from ramabel.ramanujan import cq_int, direct_oracle


def announce(capsys, k, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\n[acceptance] criterion {k}: {status}{suffix}", flush=True)


def test_criterion_01_twin_constant(capsys):
    start = time.monotonic()
    got = twin_constant(10**6).value
    elapsed = time.monotonic() - start
    ok = abs(got - 0.6601618158) <= 1e-6 and elapsed < 5.0
    announce(capsys, 1, ok, f"value={got:.10f}, {elapsed:.2f}s")
    assert abs(got - 0.6601618158) <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_oracle_equivalence(capsys):
    start = time.monotonic()
    ns = np.arange(-500, 501)
    mismatches = sum(
        not np.array_equal(
            cq_int(q, ns), direct_oracle(q, ns)
        )
        for q in range(1, 201)
    )
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10.0
    announce(capsys, 2, ok, f"200x1001 grid, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_03_property_suite(capsys, tables):
    report = check_property_catalog(tables, q_max=50, n_max=200)
    failed = [c.name for c in report.checks if not c.passed]
    announce(capsys, 3, not failed, f"{len(report.checks)} identities")
    assert failed == []


def test_criterion_04_exact_orthogonality(capsys):
    bad = []
    for r in range(1, 31):
        for s in range(1, 31):
            for m in range(-10, 11):
                rep = cq_orthogonality(r, s, m, 100)
                want = cq_int(r, m) if r == s else 0
                if rep.exact_mean != want:
                    bad.append((r, s, m))
    announce(capsys, 4, not bad, "r,s<=30, |m|<=10, exact arithmetic")
    assert bad == []


def test_criterion_05_tail_bound(capsys):
    xs = [float(n) for n in range(1, 14)] + [
        0.5, 1.25, 2.75, 3.1, 4.9, 7.3, 9.8, 11.5, 16.2, 21.7, 33.3, 47.1,
    ]
    assert len(xs) == 25
    worst = -math.inf
    for z in (0.5, 0.9, 0.99):
        ref_Q = required_Q(z, 1e-14)
        for x in xs:
            ref = lambda1_series(z, ref_Q, x)
            for Q in (10, 50, 200):
                got = lambda1_series(z, Q, x)
                worst = max(worst, abs(got - ref) - (tail_bound(z, Q) + 1e-12))
    ok = worst <= 0.0
    announce(capsys, 5, ok, f"worst slack {worst:.3g}")
    assert worst <= 0.0


def test_criterion_06_pnt_mean(capsys):
    start = time.monotonic()
    rep = pnt_mean(10**7)
    elapsed = time.monotonic() - start
    gap = abs(rep.empirical - 1.0)
    ok = gap <= 0.01 and elapsed < 30.0
    announce(capsys, 6, ok, f"gap={gap:.2e}, {elapsed:.1f}s incl. sieve")
    assert gap <= 0.01
    assert elapsed < 30.0


def test_criterion_07_pair_correlation(capsys):
    reports = {h: pair_autocorrelation(h, 10**6) for h in (2, 6)}

    def rel_gap(rep):
        return abs(rep.empirical - rep.predicted) / abs(rep.predicted)

    rel_ok = all(rel_gap(rep) <= 0.10 for rep in reports.values())
    # Convergence check.  The paper promises a limit, not a monotone fall of
    # |mean(N) - C_h|, and the signed gap at h=2 changes sign near N=10^4, so
    # comparing two single points says nothing.  Instead compare envelopes:
    # env(N) is the worst gap over the ten checkpoints N/10, ..., N of the
    # report's trace, and it must shrink strictly decade by decade.
    def envelope(rep):
        return max(abs(mean_i - rep.predicted) for _, mean_i in rep.trace)

    details = []
    trace_ok = True
    for h, rep in reports.items():
        env = {N: envelope(pair_autocorrelation(h, N)) for N in (10**4, 10**5)}
        env[10**6] = envelope(rep)
        trace_ok = trace_ok and env[10**6] < env[10**5] < env[10**4]
        details.append(
            f"h={h}: rel={rel_gap(rep):.4f}, env 1e4={env[10**4]:.4f} "
            f"-> 1e5={env[10**5]:.4f} -> 1e6={env[10**6]:.4f}"
        )
    ok = rel_ok and trace_ok
    announce(capsys, 7, ok, "; ".join(details))
    assert rel_ok
    assert trace_ok, "; ".join(details)


def test_criterion_08_odd_gaps(capsys):
    vals = {h: odd_gap_mean(h, 10**6).empirical for h in (1, 3)}
    ok = all(abs(v) <= 0.01 for v in vals.values())
    announce(capsys, 8, ok, ", ".join(f"h={h}: {v:.2e}" for h, v in vals.items()))
    assert ok


def test_criterion_09_conjecture_d(capsys):
    sg = conjecture_d_mean(1, 2, 1, 10**6)
    twin_target = 2 * twin_constant(10**6).value
    sg_rel = abs(sg.empirical - twin_target) / twin_target
    twin_as_d = conjecture_d_mean(1, 1, 2, 10**6)
    gap2 = pair_autocorrelation(2, 10**6)
    identical = (
        twin_as_d.empirical == gap2.empirical
        and [v for _, v in twin_as_d.trace] == [v for _, v in gap2.trace]
    )
    ok = sg_rel <= 0.10 and identical
    announce(capsys, 9, ok, f"(1,2,1) rel={sg_rel:.4f}; (1,1,2) bit-identical={identical}")
    assert sg_rel <= 0.10
    assert identical


def test_criterion_10_series_vs_product(capsys, tables):
    worst = 0.0
    for h in (2, 4, 6, 8, 10, 12):
        diff = abs(series_constant(h, 10**6).value - pair_constant(h, 10**6).value)
        worst = max(worst, diff)
    ok = worst <= 1e-6
    # finding, not assertion: the direct q-sum route at the table bound
    wk = series_wk(2, tables.bound)
    wk_diff = abs(wk.value - pair_constant(2, 10**6).value)
    announce(
        capsys, 10, ok,
        f"worst |series-product|={worst:.2e}; "
        f"series_wk(2) off by {wk_diff:.3f} at Q={tables.bound} (finding)",
    )
    assert worst <= 1e-6


def test_criterion_11_polynomial_means(capsys, tables):
    polys = ([1, 0, 1], [2, 0, 0, 1], [1, 3, 2])  # n^2+1, n^3+2, 2n^2+3n+1
    N = 10**5
    exact_ok = True
    bound_ok = True
    for q in range(1, 31):
        for poly in polys:
            rep = polynomial_cq_mean(q, poly, N)
            brute = sum(
                cq_int(q, sum(c * r**k for k, c in enumerate(poly)) % q)
                for r in range(q)
            )
            exact_ok = exact_ok and rep.exact_mean * q == brute
            bound_ok = bound_ok and (
                abs(rep.empirical - float(rep.exact_mean)) <= tables.phi[q] * q / N
            )
    ok = exact_ok and bound_ok
    announce(capsys, 11, ok, "q<=30, three polynomials")
    assert exact_ok
    assert bound_ok


def test_criterion_12_sigma_expansion(capsys):
    worst = 0.0
    for n in range(1, 51):
        exact = sum(d for d in range(1, n + 1) if n % d == 0)
        got = sigma_rf(n, 10**5)
        worst = max(worst, abs(got - exact) / exact)
    ok = worst <= 0.05
    announce(capsys, 12, ok, f"worst rel err {worst:.2e}")
    assert worst <= 0.05


def test_criterion_13_determinism(capsys, tmp_path):
    def run(*argv):
        assert cli_main(["--out", str(tmp_path), *argv]) == 0

    checks = []
    for args in (
        ("csum", "--q", "12", "--n", "8"),
        ("autocorr", "--gap", "2", "--n", "50000"),
        ("pnt", "--n", "50000"),
        ("singular", "--form", "pair", "--params", "6"),
    ):
        run(*args)
        first = (tmp_path / f"{args[0]}.csv").read_bytes()
        run(*args)
        checks.append((tmp_path / f"{args[0]}.csv").read_bytes() == first)
    run("--threads", "1", "autocorr", "--gap", "6", "--n", "100000")
    one = (tmp_path / "autocorr.csv").read_bytes()
    run("--threads", "8", "autocorr", "--gap", "6", "--n", "100000")
    checks.append((tmp_path / "autocorr.csv").read_bytes() == one)
    ok = all(checks)
    announce(capsys, 13, ok, "rerun + thread-count byte identity")
    assert ok
