import math

import numpy as np
import pytest

from expclt.stats import (
    KS_CRITICAL_01,
    fit_slope,
    ks_test,
    normal_cdf,
    summarize,
)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_tails_saturate(self):
        assert normal_cdf(40.0) == 1.0
        assert normal_cdf(-40.0) == 0.0

    def test_975_quantile(self):
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_symmetry(self):
        for z in (0.3, 1.0, 2.5):
            assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        zs = np.linspace(-5, 5, 101)
        vals = [normal_cdf(z) for z in zs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestKsTest:
    def test_point_mass_at_zero_gives_half(self):
        d, _ = ks_test(np.zeros(1000), 1.0)
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_threshold_formula(self):
        _, thr = ks_test(np.zeros(400), 1.0)
        assert thr == pytest.approx(KS_CRITICAL_01 / 20.0, rel=1e-15)
        assert KS_CRITICAL_01 == 1.628

    def test_sign_symmetry(self):
        x = np.random.default_rng(3).standard_normal(501)
        assert ks_test(x, 1.0)[0] == pytest.approx(ks_test(-x, 1.0)[0], abs=1e-14)

    def test_scale_invariance(self):
        x = np.random.default_rng(4).standard_normal(256)
        # c = 2 and sigma2 = 1: both rescalings are exact in binary fp
        assert ks_test(2.0 * x, 4.0)[0] == ks_test(x, 1.0)[0]

    def test_correct_law_passes_wrong_law_fails(self):
        x = np.random.default_rng(5).standard_normal(20000)
        d_good, thr = ks_test(x, 1.0)
        d_bad, _ = ks_test(x, 4.0)
        assert d_good < thr
        assert d_bad > 10 * thr

    def test_a_tie_free_sample_keeps_the_plain_statistic(self):
        x = np.random.default_rng(6).standard_normal(777)
        f = np.array([normal_cdf(v) for v in np.sort(x)])
        i = np.arange(1, x.size + 1)
        plain = max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size))
        assert ks_test(x, 1.0)[0] == plain

    def test_ties_compare_at_midpoints_and_outer_atoms(self):
        # atoms 0, 1, 2 with empirical CDF 2/6, 5/6, 1: compared below 0 at
        # 0, at the midpoints 0.5 and 1.5, and from 2 on at 2
        d, _ = ks_test([1.0, 0.0, 2.0, 1.0, 1.0, 0.0], 1.0)
        ref = max(normal_cdf(0.0), abs(2 / 6 - normal_cdf(0.5)),
                  abs(5 / 6 - normal_cdf(1.5)), 1.0 - normal_cdf(2.0))
        assert d == pytest.approx(ref, abs=1e-15)

    def test_a_lattice_law_is_judged_at_its_midpoints(self):
        # a standardized Binomial(400, 1/2): atoms 0.1 apart, each about 0.04
        # of mass, so the plain statistic reads half an atom however large the
        # sample, while at the midpoints the lattice law is within the 1% threshold
        k = np.random.default_rng(7).binomial(400, 0.5, 20000)
        x = (k - 200) / 10.0
        d, thr = ks_test(x, 1.0)
        assert d < thr
        f = np.array([normal_cdf(v) for v in np.sort(x)])
        i = np.arange(1, x.size + 1)
        assert max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size)) > thr

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_test([], 1.0)
        with pytest.raises(ValueError):
            ks_test([0.1, 0.2], 0.0)
        with pytest.raises(ValueError):
            ks_test([0.1], -1.0)


class TestSummarize:
    def test_two_point_sample(self):
        s = summarize(np.array([-1.0, 1.0]), 1.0)
        assert s.count == 2
        assert s.mean == 0.0
        assert s.variance == 2.0  # unbiased: (1 + 1)/(2 - 1)
        assert s.skewness == pytest.approx(0.0, abs=1e-15)
        assert s.excess_kurtosis == pytest.approx(-2.0, abs=1e-12)
        assert (s.min, s.max) == (-1.0, 1.0)

    def test_constant_sample(self):
        s = summarize(np.ones(50), 0.0)
        assert s.variance == 0.0
        assert s.skewness == 0.0 and s.excess_kurtosis == 0.0
        assert math.isnan(s.ks_distance)  # degenerate reference law
        assert s.min == s.max == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            summarize([1.0], 1.0)
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], -0.5)

    def _two_pass(self, x):
        n = x.size
        m = x.mean()
        d = x - m
        d2 = d * d
        m2, m3, m4 = d2.sum(), (d2 * d).sum(), (d2 * d2).sum()
        return (m, m2 / (n - 1), math.sqrt(n) * m3 / m2**1.5,
                n * m4 / m2**2 - 3.0)

    def test_moments_match_two_pass_oracle(self):
        x = np.random.default_rng(11).exponential(2.0, size=4000)
        s = summarize(x, 1.0)
        mean, var, skew, kurt = self._two_pass(x)
        assert s.mean == pytest.approx(mean, rel=1e-13)
        assert s.variance == pytest.approx(var, rel=1e-12)
        assert s.skewness == pytest.approx(skew, rel=1e-10)
        assert s.excess_kurtosis == pytest.approx(kurt, rel=1e-10)

    def test_tiny_samples_keep_their_shape(self):
        # below about 1e-81 the squared second moment underflows to 0
        x = np.random.default_rng(14).exponential(2.0, size=4000)
        s = summarize(x * 1e-90, 1e-180)
        _, _, skew, kurt = self._two_pass(x)
        assert s.skewness == pytest.approx(skew, rel=1e-10)
        assert s.excess_kurtosis == pytest.approx(kurt, rel=1e-10)
        # a constant whose mean rounds leaves a subnormal m2 and no shape
        s = summarize(np.full(18, 8.678627694904841e-142), 0.0)
        assert s.skewness == 0.0 and s.excess_kurtosis == 0.0

    def test_chunked_merge_matches_single_chunk(self):
        # 200k samples are far past any chunk a moment pass could split them
        # into; the result must be the direct two-pass computation, bit for bit
        x = np.random.default_rng(12).standard_normal(200_000) * 3.0 + 1.0
        s = summarize(x, 9.0)
        assert (s.mean, s.variance, s.skewness, s.excess_kurtosis) == self._two_pass(x)

    def test_permutation_invariance(self):
        x = np.random.default_rng(13).uniform(-1, 1, size=5000)
        a = summarize(x, 1.0)
        b = summarize(x[::-1].copy(), 1.0)
        assert a.mean == pytest.approx(b.mean, abs=1e-15)
        assert a.variance == pytest.approx(b.variance, rel=1e-13)
        assert a.skewness == pytest.approx(b.skewness, rel=1e-10, abs=1e-12)
        assert a.excess_kurtosis == pytest.approx(b.excess_kurtosis,
                                                  rel=1e-10, abs=1e-12)
        assert a.ks_distance == pytest.approx(b.ks_distance, abs=1e-15)


class TestFitSlope:
    def test_exact_power_law(self):
        grid = [4, 8, 16, 32, 64]
        fit = fit_slope([(n, 3.0 * n**-1.7) for n in grid])
        assert fit.slope == pytest.approx(-1.7, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_power_law(self):
        grid = [2**i for i in range(4, 12)]
        fit = fit_slope([(n, n**-0.5 * (1 + 0.01 * math.sin(n))) for n in grid])
        assert fit.slope == pytest.approx(-0.5, abs=0.02)
        assert fit.r_squared > 0.999

    def test_zero_values_excluded(self):
        # the zero is left out: the other three lie on n^-1 exactly
        fit = fit_slope([(4, 1.0), (8, 0.5), (16, 0.0), (32, 0.125)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_positive_points(self):
        with pytest.raises(ValueError, match="3 positive"):
            fit_slope([(4, 1.0), (8, 0.5)])
        with pytest.raises(ValueError):
            fit_slope([(4, 0.0), (8, 0.0), (16, 0.0), (32, 1.0), (64, 0.5)])

    def test_flat_curve_has_unit_r_squared(self):
        fit = fit_slope([(n, 2.5) for n in (4, 8, 16)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0
