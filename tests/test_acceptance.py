"""End-to-end acceptance gate.

Each test covers one numbered claim about the package at desk scale and
prints a single ``criterion N: PASS/FAIL`` line (run with ``pytest -s`` to
see the lines for passing tests as well).  Every tolerance below is asserted
exactly as stated; nothing is loosened to make a test pass.  Criterion 6's
median-remainder band is asserted at its stated value and fails; the failure
message documents the measured rate and why the band cannot be met.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from expclt import (
    RngStream,
    deterministic,
    diagonal_uniform,
    precompute_kernel,
    sample_xi,
    sigma_commuting_oracle,
    sigma_full,
    sigma_projected,
    two_point,
)
from expclt import engine
from expclt.covariance import sigma_projected_at
from expclt.dynamics import (
    diff_moment_curve,
    dnk_norm_bound,
    doob_check,
    lemma_speed_curve,
    lindeberg_max_norm,
    lindeberg_threshold,
    max_dnk_norm,
    riemann_cov_error,
)
from expclt.experiment import load_config, run
from expclt.stats import KS_CRITICAL_01, fit_slope, summarize

from conftest import A0_DENSE, A1_DENSE, A0_NILP, A1_NILP


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def _dense():
    return two_point(A0_DENSE, A1_DENSE, 0.5)


E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def test_criterion_1_scalar_law():
    # d=1 two-point {0, 1}, p=1/2: the limit variance has the independent
    # delta-method closed form (e^{E a})^2 Var(a) = e/4
    t0 = time.perf_counter()
    e = two_point(np.array([[0.0]]), np.array([[1.0]]), 0.5)
    n, reps = 4096, 20000
    kern = precompute_kernel(e, n)
    out = engine.simulate_paths(e, kern, [1.0], [1.0], RngStream(3).child("clt", n), reps)
    sigma2 = np.e / 4
    s = summarize(out["proj_xi"], sigma2)
    rel_var = abs(s.variance - sigma2) / sigma2
    threshold = KS_CRITICAL_01 / math.sqrt(reps)
    elapsed = time.perf_counter() - t0
    ok = rel_var <= 0.05 and s.ks_distance < threshold and elapsed < 5.0
    _report(1, ok, f"var err {rel_var:.4f} (tol 0.05), "
                   f"KS {s.ks_distance:.5f} < {threshold:.5f}, {elapsed:.1f}s (< 5s)")
    assert rel_var <= 0.05
    assert s.ks_distance < threshold
    assert elapsed < 5.0


def test_criterion_2_matrix_law_finite_n():
    # d=3 non-commuting two-point pair with ||A^i|| = 0.9 <= 1; the mean is
    # 2-step nilpotent, so both probe variances have hand closed forms:
    # with u(s) = x = e1 and w(s)_2 = (1 +- 0.8 s)/sqrt(2),
    # sigma^2 = 0.405 * ((1 +- 0.8)^3 - (1 - 0.8 + ...)^3) / 2.4
    t0 = time.perf_counter()
    e = two_point(A0_NILP, A1_NILP, 0.5)
    n, reps = 1024, 5000
    inv_r2 = 1.0 / math.sqrt(2.0)
    pairs = (
        (E1, np.array([0.0, inv_r2, inv_r2]), 0.405 * (1.8**3 - 1.0) / 2.4),
        (E1, np.array([0.0, inv_r2, -inv_r2]), 0.405 * (1.0 - 0.2**3) / 2.4),
    )
    kern = precompute_kernel(e, n)
    root = RngStream(7)
    threshold = KS_CRITICAL_01 / math.sqrt(reps)
    worst_var, worst_ks = 0.0, 0.0
    for j, (x, y, ref) in enumerate(pairs):
        sigma2 = sigma_projected(e, x, y)
        assert sigma2 == pytest.approx(ref, rel=1e-12)  # quadrature vs closed form
        out = engine.simulate_paths(e, kern, x, y, root.child("matrix-clt", j, n), reps)
        s = summarize(out["proj_xi"], sigma2)
        worst_var = max(worst_var, abs(s.variance - sigma2) / sigma2)
        worst_ks = max(worst_ks, s.ks_distance)
    elapsed = time.perf_counter() - t0
    ok = worst_var <= 0.07 and worst_ks < threshold and elapsed < 30.0
    _report(2, ok, f"2 probe pairs: worst var err {worst_var:.4f} (tol 0.07), "
                   f"worst KS {worst_ks:.5f} < {threshold:.5f}, {elapsed:.1f}s (< 30s)")
    assert worst_var <= 0.07
    assert worst_ks < threshold
    assert elapsed < 30.0


def test_criterion_3_mean_exponential_rates():
    t0 = time.perf_counter()
    e = two_point(np.array([[0.0]]), np.array([[2.0]]), 0.5)
    grid = [16 * 2**i for i in range(9)]  # 16 .. 4096
    pts = lemma_speed_curve(e, grid)
    outer = fit_slope([(p.n, p.norm_outer) for p in pts]).slope
    inner = fit_slope([(p.n, p.norm_inner) for p in pts]).slope
    kmax = fit_slope([(p.n, p.k_max_norm) for p in pts]).slope
    elapsed = time.perf_counter() - t0
    ok = (abs(outer + 1.0) <= 0.1 and abs(inner + 2.0) <= 0.1
          and abs(kmax + 1.0) <= 0.1 and elapsed < 5.0)
    _report(3, ok, f"slopes outer {outer:.3f} (-1+-0.1), inner {inner:.3f} "
                   f"(-2+-0.1), max-k {kmax:.3f} (-1+-0.1), {elapsed:.1f}s (< 5s)")
    assert abs(outer + 1.0) <= 0.1
    assert abs(inner + 2.0) <= 0.1
    assert abs(kmax + 1.0) <= 0.1
    assert elapsed < 5.0


def test_criterion_4_covariance_routes():
    rng = np.random.default_rng(17)
    worst_pair = 0.0
    for _ in range(6):
        d = int(rng.integers(2, 9))
        a0 = rng.uniform(-1.0, 1.0, (d, d)) / d
        a1 = rng.uniform(-1.0, 1.0, (d, d)) / d
        e = two_point(a0, a1, float(rng.uniform(0.2, 0.8)))
        op = sigma_full(e)
        for _ in range(20):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            a = sigma_projected(e, x, y)
            b = op.project(x, y)
            worst_pair = max(worst_pair, abs(a - b) / max(abs(a), abs(b), 1e-300))
    assert worst_pair <= 1e-10

    diag = diagonal_uniform(4, -0.3, 0.8)
    fo = sigma_full(diag).full
    oo = sigma_commuting_oracle(diag).full
    oracle_rel = np.linalg.norm(fo - oo) / np.linalg.norm(oo)
    assert oracle_rel <= 1e-10

    dense = _dense()
    a64 = sigma_projected_at(dense, E1, E2, 64)
    a128 = sigma_projected_at(dense, E1, E2, 128)
    doubling = abs(a128 - a64) / abs(a128)
    assert doubling < 1e-12

    neg = 0
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        if sigma_projected_at(dense, x, y, 32) < 0.0:
            neg += 1
    assert neg == 0

    base = sigma_projected(dense, E1, E2)
    worst_shift = 0.0
    for c in (-1.0, 0.5):
        got = sigma_projected(dense.shifted(c), E1, E2)
        worst_shift = max(worst_shift, abs(got - np.exp(2 * c) * base) / got)
    assert worst_shift <= 1e-10

    _report(4, True, f"route delta {worst_pair:.1e} (tol 1e-10), diag oracle "
                     f"{oracle_rel:.1e}, doubling {doubling:.1e} (< 1e-12), "
                     f"0 negative of 100, shift err {worst_shift:.1e}")


def test_criterion_5_martingale_structure():
    e = _dense()
    n, reps = 256, 2000
    kern = precompute_kernel(e, n)
    root = RngStream(7)
    rows = engine._draw_rows(e, root.child("structure", n), n, 0, reps)
    worst_ratio = 0.0
    for k in (1, n // 2, n):
        table = np.stack(
            [kern.p_powers[k - 1] @ dl @ kern.p_powers[n - k] @ E1
             for dl in e._deltas]) / math.sqrt(n)
        dk = table[rows[:, k - 1]]  # sampled d_{n,k} x, one row per replicate
        mean = dk.mean(axis=0)
        se = dk.std(axis=0, ddof=1) / math.sqrt(reps)
        worst_ratio = max(worst_ratio, float(np.max(np.abs(mean) / (4.0 * se))))
        # the exact per-draw maximum dominates every sampled draw
        assert max_dnk_norm(e, n, k, kern) <= dnk_norm_bound(e, n)
    assert worst_ratio <= 1.0

    eps = 0.1
    thr = lindeberg_threshold(e, eps)
    n_check = 2048
    assert n_check > thr
    lmax = lindeberg_max_norm(e, n_check, precompute_kernel(e, n_check))
    assert lmax <= eps  # the event is empty for every k and every draw

    errs = [(m, riemann_cov_error(e, m, E1, E2)) for m in (16, 32, 64, 128, 256, 512)]
    slope = fit_slope(errs).slope
    assert abs(slope + 1.0) <= 0.2

    _report(5, True, f"mean-zero worst |mean|/4se {worst_ratio:.2f} (< 1), "
                     f"Lindeberg max {lmax:.4f} <= {eps} past n {thr:.0f}, "
                     f"Riemann slope {slope:.3f} (-1+-0.2)")


@pytest.fixture(scope="module")
def rate_curves():
    """Shared Monte Carlo for criterion 6: four decay curves on one grid."""
    t0 = time.perf_counter()
    e = _dense()
    grid = (64, 128, 256, 512, 1024, 2048, 4096)
    reps = 240
    root = RngStream(7)
    med_rn, mean_mk, mean_mk2 = [], [], []
    for m in grid:
        kern = precompute_kernel(e, m)
        out = engine.simulate_paths(e, kern, E1, E1, root.child("rates", m), reps,
                                    want_s_prime=True)
        med_rn.append((m, float(np.median(out["r_norm"]))))
        mean_mk.append((m, float(np.mean(out["mk_norm"]))))
        mean_mk2.append((m, float(np.mean(out["mk_norm"] ** 2))))
    diff_pts = diff_moment_curve(e, grid, E1, reps, root.child("diff"))
    return {
        "rn": fit_slope(med_rn),
        "mk": fit_slope(mean_mk).slope,
        "mk2": fit_slope(mean_mk2).slope,
        "diff2": fit_slope([(p.n, p.mean_sq) for p in diff_pts]).slope,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_6_moment_rate_bands(rate_curves):
    c = rate_curves
    ok = (abs(c["diff2"] + 2.0) <= 0.3 and abs(c["mk2"] + 1.0) <= 0.25
          and abs(c["mk"] + 0.5) <= 0.2 and c["elapsed"] < 60.0)
    _report("6 (moment bands)", ok,
            f"diff^2 slope {c['diff2']:.3f} (-2+-0.3), |M_n|^2 {c['mk2']:.3f} "
            f"(-1+-0.25), |M_n| {c['mk']:.3f} (-0.5+-0.2), "
            f"{c['elapsed']:.1f}s (< 60s)")
    assert abs(c["diff2"] + 2.0) <= 0.3
    assert abs(c["mk2"] + 1.0) <= 0.25
    assert abs(c["mk"] + 0.5) <= 0.2
    assert c["elapsed"] < 60.0


def test_criterion_6_median_remainder_band(rate_curves):
    # Stated band: median ||R_n x|| log-log slope -0.5 +- 0.2.
    fit = rate_curves["rn"]
    ok = abs(fit.slope + 0.5) <= 0.2
    _report("6 (remainder band)", ok,
            f"median |R_n x| slope {fit.slope:.3f} vs stated band [-0.7, -0.3]")
    if not ok:
        pytest.fail(
            f"median ||R_n x|| slope measured {fit.slope:.3f} "
            f"(r^2 = {fit.r_squared:.4f}), outside the stated band -0.5 +- 0.2. "
            "The band encodes the crude O(n^-1/2) upper bound obtained by the "
            "triangle inequality over n per-step second-order Taylor remainders "
            "of size O(n^-3/2). Those remainders are conditionally centered "
            "given the past, so they accumulate in quadrature rather than "
            "linearly, and the median decays at the faster O(1/n) rate; the "
            "measurement reproduces slope = -1 on every family tried (scalar, "
            "dense d=3, diagonal), so the band cannot be met by a correct "
            "implementation. The upper-bound claim itself holds: the slope is "
            "well below -0.3, as checked one-sidedly by the martingale suite."
        )


def test_criterion_7_doob_oracle():
    t0 = time.perf_counter()
    e = _dense()
    n = 4096
    kern = precompute_kernel(e, n)
    root = RngStream(7)
    worst_res, worst_ratio = 0.0, 0.0
    for k in range(1, 11):
        r = root.child("doob", n, k)
        draws = [e.sample(r) for _ in range(k)]
        chk = doob_check(e, n, k, draws, E1, kern)
        worst_res = max(worst_res, chk.identity_residual)
        worst_ratio = max(worst_ratio, chk.max_subset_bound_ratio)
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_ratio <= 1.0 and elapsed < 2.0
    _report(7, ok, f"k 1..10: worst residual {worst_res:.1e} (tol 1e-10), "
                   f"worst subset bound ratio {worst_ratio:.3f} (<= 1), "
                   f"{elapsed:.1f}s (< 2s)")
    assert worst_res <= 1e-10
    assert worst_ratio <= 1.0
    assert elapsed < 2.0


def test_criterion_8_degenerate_case(tmp_path):
    mat = [[0.3, 0.1], [0.0, -0.2]]
    e = deterministic(np.array(mat))
    n = 1024
    t = sample_xi(e, n, [1.0, 1.0], RngStream(0))
    bound = math.sqrt(n) * math.exp(e.rho) * 1e-11
    xi_norm = float(np.linalg.norm(t.xi_x))
    assert xi_norm <= bound

    op = sigma_full(e)
    assert np.all(op.full == 0.0)  # Sigma = 0 exactly, not approximately

    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps({
        "ensemble": {"family": "deterministic", "dim": 2, "matrix": mat},
        "n_grid": [64, 256], "replicates": 200, "master_seed": 1,
        "suites": ["clt"], "output_dir": str(tmp_path / "out"),
    }))
    report = run(load_config(str(cfg_path)), workers=1)
    csv_text = open(report.csv_paths["clt"]).read()
    marked = "degenerate" in csv_text
    skipped = "skipped" in report.suites["clt"]["details"]["per_n"]["256"]["ks"]
    ok = report.all_passed and marked and skipped
    _report(8, ok, f"|xi x| {xi_norm:.1e} <= {bound:.1e}, Sigma = 0 exactly, "
                   f"KS skipped with marker: {marked and skipped}")
    assert report.all_passed and marked and skipped


def test_criterion_9_worker_determinism(tmp_path):
    base = {
        "ensemble": {"family": "two_point", "dim": 1,
                     "a0": [[0.0]], "a1": [[1.0]], "p": 0.5},
        "n_grid": [64, 128, 256], "replicates": 1000, "master_seed": 12345,
        "suites": ["clt", "lemma_speed", "martingale", "doob", "covariance"],
    }
    blobs = {}
    for w in (1, 4):
        cfg_path = tmp_path / f"c{w}.json"
        cfg_path.write_text(json.dumps(
            dict(base, output_dir=str(tmp_path / f"out{w}"))))
        report = run(load_config(str(cfg_path)), workers=w)
        assert report.all_passed
        blobs[w] = {s: open(p, "rb").read() for s, p in report.csv_paths.items()}
    identical = all(blobs[1][s] == blobs[4][s] for s in blobs[1])
    _report(9, identical,
            f"workers 1 vs 4: {len(blobs[1])} CSVs byte-identical: {identical}")
    assert identical
