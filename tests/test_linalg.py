import warnings

import numpy as np
import pytest

from expclt import linalg
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
        with pytest.raises(ValueError, match="square"):
            mat_exp(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            mat_exp(np.zeros(3))
        stack = np.zeros((5, 2, 2))
        stack[3, 1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            mat_exp(stack)
        with pytest.raises(ValueError, match="non-finite"):
            op_norm(stack)


def _mixed_stack(d, rng):
    """Dense matrices with 1-norms below and above the Pade-13 threshold (so
    their squaring counts differ), diagonal ones and a zero matrix."""
    scales = [0.01, 0.5, 3.0, 5.371920351148152, 6.0, 20.0, 90.0]
    dense = rng.standard_normal((len(scales), d, d))
    dense *= (np.array(scales) / np.abs(dense).sum(axis=1).max(axis=1))[:, None, None]
    diagonal = [np.diag(v) for v in rng.uniform(-3.0, 3.0, (3, d))]
    return np.array([*dense[:4], diagonal[0], np.zeros((d, d)), *dense[4:], *diagonal[1:]])


class TestStacks:
    """A stack gives every matrix the bits of a single call."""

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 33])
    def test_mat_exp_stack_is_bit_equal_to_single_calls(self, d):
        stack = _mixed_stack(d, np.random.default_rng(d))
        got = mat_exp(stack)
        assert got.shape == stack.shape
        for a, g in zip(stack, got):
            assert np.array_equal(g, mat_exp(a))

    def test_squaring_counts_differ_within_the_stack(self):
        norms = np.abs(_mixed_stack(3, np.random.default_rng(3))).sum(axis=1).max(axis=1)
        assert np.any(norms == 0.0) and np.any((norms > 0.0) & (norms < 5.37))
        assert len(set(np.ceil(np.log2(norms[norms > 5.372] / 5.371920351148152)))) >= 3

    def test_one_by_one_stack_is_elementwise_exp(self):
        v = np.random.default_rng(1).uniform(-5.0, 5.0, 50)
        got = mat_exp(v[:, None, None])
        assert np.array_equal(got[:, 0, 0], [mat_exp([[a]])[0, 0] for a in v])
        assert np.array_equal(got[:, 0, 0], [np.exp(a) for a in v])

    def test_four_dimensional_stack(self):
        stack = np.random.default_rng(2).standard_normal((2, 3, 4, 4))
        stack[1, 2] = np.diag([1.0, -2.0, 0.5, 0.0])
        got = mat_exp(stack)
        assert got.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], mat_exp(stack[i, j]))
        norms = op_norm(stack)
        assert norms.shape == (2, 3)
        assert all(norms[i, j] == op_norm(stack[i, j]) for i in range(2) for j in range(3))

    def test_blocks_of_a_large_stack_keep_every_bit(self, monkeypatch):
        stack = _mixed_stack(3, np.random.default_rng(6))[:10]
        whole = mat_exp(stack)
        monkeypatch.setattr(linalg, "_EXP_BLOCK", 4 * 9)  # 4 matrices a block
        assert np.array_equal(mat_exp(stack), whole)
        assert np.array_equal(mat_exp(stack.reshape(2, 5, 3, 3)), whole.reshape(2, 5, 3, 3))

    def test_empty_stack(self):
        assert mat_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert op_norm(np.zeros((0, 3, 3))).shape == (0,)

    def test_zero_matrices_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(mat_exp(np.zeros((4, 3, 3))), np.broadcast_to(np.eye(3), (4, 3, 3)))
            mat_exp(_mixed_stack(3, np.random.default_rng(5)))

    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_op_norm_stack_matches_single_calls(self, d):
        stack = _mixed_stack(d, np.random.default_rng(10 + d))
        got = op_norm(stack)
        assert got.shape == (len(stack),)
        assert [float(g) for g in got] == [op_norm(a) for a in stack]
        assert isinstance(op_norm(stack[0]), float)

    def test_one_by_one_norm_is_abs(self):
        v = np.random.default_rng(4).standard_normal(100) * 10.0 ** np.arange(-50, 50)
        assert np.array_equal(op_norm(v[:, None, None]), np.abs(v))
        assert op_norm([[-2.5]]) == 2.5


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
                val = rule.weights @ rule.nodes**k
                assert val == pytest.approx(1.0 / (k + 1), abs=1e-13)

    def test_exponential_integral(self):
        rule = gauss_legendre(16)
        assert rule.weights @ np.exp(rule.nodes) == pytest.approx(np.e - 1.0, rel=1e-14)

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
