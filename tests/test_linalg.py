import numpy as np
import pytest

from expclt.linalg import (
    QuadratureRule,
    as_matrix,
    as_vector,
    gauss_legendre,
    mat_exp,
    op_norm,
)


def _exp_taylor_squared(a, squarings=10, terms=60):
    """Independent oracle: scale by 2^-s, 60-term Taylor, square s times."""
    b = a / (2.0**squarings)
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class TestMatExp:
    def test_zero(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_is_exact_elementwise(self):
        d = np.diag([-1.5, 0.0, 2.25])
        assert np.array_equal(mat_exp(d), np.diag(np.exp([-1.5, 0.0, 2.25])))

    def test_against_taylor_oracle_small(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            ref = _exp_taylor_squared(a)
            got = mat_exp(a)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_against_taylor_oracle_large_norm(self):
        # Exercises the scaling-and-squaring branch (norm above the Pade-13
        # threshold).
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) * 3.0
        ref = _exp_taylor_squared(a, squarings=14, terms=80)
        got = mat_exp(a)
        assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_nilpotent_closed_form(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(mat_exp(a), np.array([[1.0, 1.0], [0.0, 1.0]]),
                           rtol=0, atol=1e-15)

    def test_inverse_relation(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        prod = mat_exp(a) @ mat_exp(-a)
        assert np.linalg.norm(prod - np.eye(5)) <= 1e-12

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestValidators:
    def test_as_matrix_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]], name="m")
        assert m.dtype == float and m.shape == (2, 2)

    def test_as_vector_dim_check(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], 3, "x")


class TestOpNorm:
    def test_shift_matrix(self):
        assert op_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_diagonal(self):
        assert op_norm(np.diag([0.5, -3.0, 2.0])) == pytest.approx(3.0)

    def test_matches_numpy_two_norm(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        assert op_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


class TestQuadrature:
    def test_gauss_legendre_polynomial_exactness(self):
        # m-node Gauss-Legendre on [0,1] integrates degree <= 2m-1 exactly.
        for m in (2, 8, 16):
            rule = gauss_legendre(m)
            for k in range(2 * m):
                val = rule.integrate(rule.nodes**k)
                assert val == pytest.approx(1.0 / (k + 1), abs=1e-13)

    def test_exponential_integral(self):
        rule = gauss_legendre(16)
        assert rule.integrate(np.exp(rule.nodes)) == pytest.approx(np.e - 1.0, rel=1e-14)

    def test_nodes_weights_invariants(self):
        rule = gauss_legendre(32)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.0, 0.5]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.25, 0.5]), weights=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(513)
