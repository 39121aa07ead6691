import numpy as np
import pytest

from expclt import (
    diagonal_uniform,
    gauss_legendre,
    sigma_commuting_oracle,
    sigma_full,
    sigma_projected,
    two_point,
)
from expclt.covariance import (
    _interval_exp_integral,
    sigma_full_at,
    sigma_projected_at,
    symmetry_defect,
)


class TestScalarClosedForms:
    # For a scalar two-point law with mean b and variance v the integral
    # collapses: Sigma = v * int_0^1 e^{2bs} e^{2b(1-s)} ds = v e^{2b}.

    def test_bernoulli_is_quarter_e(self, scalar01):
        # mean 1/2, variance 1/4 -> Sigma = e/4
        got = sigma_projected(scalar01, [1.0], [1.0])
        assert got == pytest.approx(np.e / 4, rel=1e-13)

    def test_zero_two_is_e_squared(self, scalar02):
        # mean 1, variance 1 -> Sigma = e^2
        got = sigma_projected(scalar02, [1.0], [1.0])
        assert got == pytest.approx(np.e**2, rel=1e-13)

    def test_materialized_route_agrees(self, scalar01):
        op = sigma_full(scalar01)
        assert op.full.shape == (1, 1)
        assert op.project([1.0], [1.0]) == pytest.approx(np.e / 4, rel=1e-13)

    def test_oracle_route_agrees(self, scalar01):
        op = sigma_commuting_oracle(scalar01)
        assert op.nodes == 0 and op.rel_change == 0.0
        assert op.project([1.0], [1.0]) == pytest.approx(np.e / 4, rel=1e-14)


class TestIntervalExpIntegral:
    def test_distinct_arguments(self):
        # int_0^1 e^{2s} ds = (e^2 - 1)/2
        got = _interval_exp_integral(np.array(2.0), np.array(0.0))
        assert float(got) == pytest.approx((np.e**2 - 1) / 2, rel=1e-14)

    def test_equal_arguments(self):
        for a in (0.0, 1.0, -0.3):
            got = float(_interval_exp_integral(np.array(a), np.array(a)))
            assert got == pytest.approx(np.exp(a), rel=1e-15)

    def test_near_degenerate_is_smooth(self):
        # tiny delta must not blow up in the 0/0 form
        got = float(_interval_exp_integral(np.array(1.0 + 1e-10), np.array(1.0)))
        assert got == pytest.approx(np.e * (1.0 + 0.5e-10), rel=1e-13)

    def test_against_quadrature(self):
        rule = gauss_legendre(48)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, size=2)
            ref = rule.integrate(np.exp(a * rule.nodes + b * (1 - rule.nodes)))
            got = float(_interval_exp_integral(np.array(a), np.array(b)))
            assert got == pytest.approx(ref, rel=1e-13)


class TestRouteAgreement:
    def test_projected_vs_full_dense(self, dense3):
        op = sigma_full(dense3)
        rng = np.random.default_rng(31)
        for _ in range(12):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            a = sigma_projected(dense3, x, y)
            b = op.project(x, y)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-14)

    def test_oracle_vs_full_diagonal(self, diag3):
        fo = sigma_full(diag3).full
        oo = sigma_commuting_oracle(diag3).full
        assert np.linalg.norm(fo - oo) <= 1e-12 * np.linalg.norm(oo)

    def test_oracle_vs_full_diagonal_two_point(self):
        e = two_point(np.diag([0.4, -0.2]), np.diag([-0.1, 0.6]), 0.35)
        fo = sigma_full(e).full
        oo = sigma_commuting_oracle(e).full
        assert np.linalg.norm(fo - oo) <= 1e-12 * np.linalg.norm(oo)

    def test_all_three_routes_on_diagonal_probe(self, diag3):
        x = np.array([1.0, -0.5, 0.25])
        y = np.array([0.3, 1.1, -0.7])
        a = sigma_projected(diag3, x, y)
        b = sigma_full(diag3).project(x, y)
        c = sigma_commuting_oracle(diag3).project(x, y)
        assert a == pytest.approx(b, rel=1e-12)
        assert b == pytest.approx(c, rel=1e-12)


class TestGuardsAndShapes:
    def test_oracle_rejects_non_diagonal(self, dense3):
        with pytest.raises(ValueError, match="diagonal"):
            sigma_commuting_oracle(dense3)

    def test_full_rejects_large_dimension(self):
        big = diagonal_uniform(17, 0.0, 1.0)
        with pytest.raises(ValueError, match="sigma_projected"):
            sigma_full_at(big, 8)
        with pytest.raises(ValueError):
            sigma_full(big)

    def test_project_validates_probes(self, dense3):
        op = sigma_full(dense3)
        with pytest.raises(ValueError):
            op.project([1.0, 2.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            op.project([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_full_matrix_is_frozen(self, dense3):
        op = sigma_full(dense3)
        with pytest.raises(ValueError):
            op.full[0, 0] = 1.0


class TestStructuralProperties:
    def test_projected_nonnegative_everywhere(self, dense3):
        # sum-of-squares integrand: exact nonnegativity, not approximate
        rng = np.random.default_rng(77)
        for _ in range(100):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert sigma_projected_at(dense3, x, y, 16) >= 0.0

    def test_shift_scales_by_exp_2c(self, dense3):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        base = sigma_projected(dense3, x, y)
        for c in (-1.0, 0.5):
            shifted = sigma_projected(dense3.shifted(c), x, y)
            assert shifted == pytest.approx(np.exp(2 * c) * base, rel=1e-10)

    def test_node_doubling_has_converged(self, dense3):
        x = np.array([0.2, -1.0, 0.4])
        y = np.array([1.0, 0.3, -0.5])
        a = sigma_projected_at(dense3, x, y, 64)
        b = sigma_projected_at(dense3, x, y, 128)
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_adaptive_metadata(self, dense3):
        op = sigma_full(dense3)
        assert op.nodes >= 16 and op.rel_change <= 1e-12

    def test_deterministic_family_gives_zero(self, point2):
        op = sigma_full(point2)
        assert np.all(op.full == 0.0)
        assert symmetry_defect(op) == 0.0
        assert sigma_projected(point2, [1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_diagonal_oracle_is_symmetric(self, diag3):
        assert symmetry_defect(sigma_commuting_oracle(diag3)) == 0.0

    def test_dense_defect_small_but_reported(self, dense3):
        defect = symmetry_defect(sigma_full(dense3))
        assert np.isfinite(defect) and defect >= 0.0
