import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expclt import (
    Ensemble,
    deterministic,
    diagonal_uniform,
    finite_support,
    gauss_legendre,
    sigma_commuting_oracle,
    sigma_full,
    sigma_projected,
    two_point,
)
from expclt import covariance
from expclt.covariance import _interval_exp_integral, quadrature_nodes, sigma_projected_at
from expclt.linalg import mat_exp


class TestProjectedQuadrature:
    def test_matches_the_per_node_loop(self, moment_law):
        e = moment_law
        x, y = np.linspace(1.0, -0.5, e.dim), np.linspace(0.25, 1.0, e.dim)
        rule = gauss_legendre(24)
        ref = sum(wt * float(e.centered_projection(mat_exp(e.mean() * s).T @ y,
                                                   mat_exp(e.mean() * (1.0 - s)) @ x))
                  for s, wt in zip(rule.nodes, rule.weights))
        got = sigma_projected_at(e, x, y, 24)
        if e.is_point_mass:
            assert got == 0.0
        else:
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_one_moment_call_per_rule(self, dense3, count_calls):
        calls = count_calls(Ensemble, "centered_projection")
        sigma_projected_at(dense3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 64)
        assert len(calls) == 1

    def test_sigma_projected_is_the_rule_of_quadrature_nodes(self, moment_law):
        e = moment_law
        x, y = np.linspace(1.0, -0.5, e.dim), np.linspace(0.25, 1.0, e.dim)
        assert sigma_projected(e, x, y) == sigma_projected_at(e, x, y, quadrature_nodes(e))

    @pytest.mark.parametrize("rho, m", [(0.0, 16), (0.8, 16), (4.0, 16), (4.5, 32), (8.0, 32),
                                        (12.5, 64), (70.5, 256), (100.0, 256), (300.0, 512)])
    def test_node_count_follows_rho(self, rho, m):
        e = deterministic(rho * np.eye(2))
        assert e.rho == rho and quadrature_nodes(e) == m

    @pytest.mark.parametrize("d", [100, 300])
    def test_propagators_are_stacked_in_bounded_blocks(self, d, count_calls):
        # a dense mean: one stacked exponential per block of nodes and side,
        # each at most 65,536 entries or one node
        rng = np.random.default_rng(d)
        a0, a1 = (m * (0.8 / np.linalg.norm(m, 2)) for m in rng.standard_normal((2, d, d)))
        e = two_point(a0, a1, 0.5)
        calls = count_calls(covariance, "mat_exp")
        x, y = np.eye(d)[0], np.eye(d)[1]
        sigma_projected(e, x, y)
        m = quadrature_nodes(e)
        assert all(a.size <= max(65_536, d * d) for (a,) in calls)
        assert sum(len(a) for (a,) in calls) == 2 * m
        assert len(calls) == 2 * -(-m // max(1, 65_536 // (d * d)))


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
        assert op.nodes == 0
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
            ref = rule.weights @ np.exp(a * rule.nodes + b * (1 - rule.nodes))
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
        op = sigma_full(big)
        with pytest.raises(ValueError, match="use project"):
            op.full
        x = np.ones(17)
        assert op.project(x, x) == pytest.approx(17 * np.exp(1.0) / 12, rel=1e-13)

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

    def test_deterministic_family_gives_zero(self, point2):
        op = sigma_full(point2)
        assert np.all(op.full == 0.0)
        assert op.project([1.0, -2.0], [0.5, 1.0]) == 0.0
        assert sigma_projected(point2, [1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_diagonal_oracle_is_symmetric(self, diag3):
        full = sigma_commuting_oracle(diag3).full
        assert np.array_equal(full, full.T)

    def test_dense_defect_small_but_reported(self, dense3):
        # Sigma(x, y) and Sigma(y, x) are different numbers for a dense law
        op = sigma_full(dense3)
        x, y = np.array([1.0, 0.2, -0.4]), np.array([-0.3, 1.0, 0.6])
        a, b = op.project(x, y), op.project(y, x)
        assert a > 0.0 and b > 0.0 and a != pytest.approx(b, rel=1e-6)


# entries on a grid of eighths: no subnormal products, and a spectral norm of 0
# or at least 1/8 before scaling
_GRID = st.integers(-8, 8).map(lambda k: k / 8.0)


def _scaled(rho):
    """Square matrices scaled to spectral norm rho (the zero matrix stays 0)."""
    def scale(a):
        a = np.array(a, dtype=float)
        norm = np.linalg.norm(a, 2)
        return a * (rho / norm) if norm > 0.0 else a
    return scale


@st.composite
def _ensembles(draw):
    d = draw(st.integers(1, 6))
    rho = draw(st.floats(0.0, 10.0))
    family = draw(st.sampled_from(["two_point", "finite_support", "diagonal_uniform"]))
    if family == "diagonal_uniform":
        low, high = sorted(draw(st.lists(st.floats(-rho, rho), min_size=2, max_size=2)))
        return diagonal_uniform(d, low, high)
    entries = st.lists(st.lists(_GRID, min_size=d, max_size=d),
                       min_size=d, max_size=d).map(_scaled(rho))
    if family == "two_point":
        return two_point(draw(entries), draw(entries), draw(st.floats(0.0, 1.0)))
    mats = draw(st.lists(entries, min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(mats), max_size=len(mats)))
    return finite_support(mats, [w / sum(weights) for w in weights])


class TestVanLoan:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_project_agrees_with_quadrature(self, data):
        e = data.draw(_ensembles())
        probe = st.lists(_GRID, min_size=e.dim, max_size=e.dim)
        x, y = data.draw(probe), data.draw(probe)
        a = sigma_projected(e, x, y)
        b = sigma_full(e).project(x, y)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), np.finfo(float).tiny)

    @pytest.mark.parametrize("e", [
        diagonal_uniform(3, -0.5, 1.0),
        diagonal_uniform(7, 2.0, 2.5),
        two_point(np.diag([0.4, -0.2]), np.diag([-0.1, 0.6]), 0.35),
        finite_support([np.diag([0.9, 0.0, -0.3]), np.diag([-0.5, 0.2, 0.1]),
                        np.diag([0.0, -0.8, 0.7])], [0.2, 0.5, 0.3]),
    ], ids=["diag3", "diag7", "two_point2", "finite_support3"])
    def test_oracle_agrees_on_diagonal_laws(self, e):
        op, oracle = sigma_full(e), sigma_commuting_oracle(e)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.standard_normal(e.dim), rng.standard_normal(e.dim)
            assert oracle.project(x, y) == pytest.approx(op.project(x, y), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_full_agrees_with_project(self, d):
        rng = np.random.default_rng(40 + d)
        mats = [rng.uniform(-1.0, 1.0, (d, d)) for _ in range(3)]
        op = sigma_full(finite_support(mats, [0.5, 0.3, 0.2]))
        for _ in range(5):
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            quad = float(np.kron(y, y) @ op.full @ np.kron(x, x))
            assert quad == pytest.approx(op.project(x, y), rel=1e-12)

    @pytest.mark.parametrize("e", [
        diagonal_uniform(3, -0.5, 1.0),
        two_point(np.array([[0.2, -0.7], [0.4, 0.1]]), np.array([[0.0, 0.3], [-0.6, 0.5]]),
                  0.3),
        deterministic(np.array([[0.3, 0.1], [0.0, -0.2]])),
    ], ids=["diagonal_uniform", "two_point", "deterministic"])
    def test_centered_action_is_the_central_moment(self, e):
        x = np.random.default_rng(8).standard_normal((e.dim, e.dim))  # not symmetric
        got = e.centered_action(x).reshape(-1)
        want = e.central_second_moment() @ x.reshape(-1)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
