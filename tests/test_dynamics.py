import numpy as np
import pytest

from expclt import (
    Ensemble,
    RngStream,
    deterministic,
    diagonal_uniform,
    dynamics,
    engine,
    precompute_kernel,
    sample_xi,
    sigma_projected,
    two_point,
)
from expclt.dynamics import (
    decompose_xi_prime,
    diff_moment_curve,
    dnk_norm_bound,
    doob_check,
    doob_decomposition,
    dot_moments,
    kernel_consistency,
    lemma_speed_curve,
    lindeberg_max_norm,
    lindeberg_threshold,
    martingale_difference,
    max_dnk_norm,
    riemann_cov_error,
    riemann_cov_value,
    xi_prime_telescoping,
)
from expclt.linalg import mat_exp, op_norm
from expclt.stats import fit_slope


def _draws(e, n, seed=0):
    r = RngStream(seed, 99)
    return [e.sample(r) for _ in range(n)]


class TestKernel:
    def test_requires_positive_n(self, dense3):
        with pytest.raises(ValueError):
            precompute_kernel(dense3, 0)

    def test_tables_are_frozen(self, dense3):
        kern = precompute_kernel(dense3, 8)
        with pytest.raises(ValueError):
            kern.p_powers[2][0, 0] = 1.0
        with pytest.raises(ValueError):
            kern.exps[0][0, 0] = 1.0

    def test_doubling_matches_direct_exponentials(self, dense3):
        kern = precompute_kernel(dense3, 64)
        assert kernel_consistency(kern) <= 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_consistency_at_small_n_reads_only_rows_up_to_n(self, dense3, n):
        # the default ks include 2 and 3, which lie past p_powers[n] for n < 3
        assert kernel_consistency(precompute_kernel(dense3, n)) <= 1e-14

    def test_q_powers_match_matrix_power(self, dense3):
        kern = precompute_kernel(dense3, 32)
        q1 = dense3.mean_exp_scaled(32)
        for k in (1, 7, 31, 32):
            ref = np.linalg.matrix_power(q1, k)
            assert np.allclose(kern.q_powers[k], ref, rtol=1e-12, atol=1e-15)

    def test_support_is_exponentiated_once(self, wide300, count_calls):
        exps = count_calls(dynamics, "mat_exp")
        means = count_calls(Ensemble, "mean_exp_scaled")
        kern = precompute_kernel(wide300, 16)
        stacks = [args[0] for args in exps if np.ndim(args[0]) == 3]
        assert len(stacks) == 1 and stacks[0].shape == (300, 3, 3)
        assert means == []
        # the bits of the per-matrix exponentials and of mean_exp_scaled
        for a, got in zip(wide300.support, kern.exps):
            assert np.array_equal(got, mat_exp(a / 16))
        assert np.array_equal(kern.q_powers[1], wide300.mean_exp_scaled(16))

    def test_diagonal_family_has_no_exp_table(self, diag3):
        assert precompute_kernel(diag3, 4).exps.shape == (0, 3, 3)


class TestSampleXi:
    def test_norm_bound(self, dense3):
        # ||product|| and ||e^{EA}|| are both <= e^rho
        n = 64
        kern = precompute_kernel(dense3, n)
        cap = 2.0 * np.sqrt(n) * np.exp(dense3.rho)
        stream = RngStream(5).child("clt", n)  # replicate i of a pass
        for i in range(20):
            t = sample_xi(dense3, n, [1.0, 0.0, 0.0],
                          stream.at(i * n * dense3.words_per_draw), kern)
            assert np.linalg.norm(t.xi_x) <= cap

    def test_replay_determinism(self, dense3, diag3):
        for e in (dense3, diag3):
            kern = precompute_kernel(e, 32)
            a = sample_xi(e, 32, [1.0, 0.0, 0.0], RngStream(4, 2), kern)
            b = sample_xi(e, 32, [1.0, 0.0, 0.0], RngStream(4, 2), kern)
            assert np.array_equal(a.xi_x, b.xi_x)
            assert np.array_equal(a.s_x, b.s_x)

    def test_kernel_mismatch_rejected(self, dense3, nilp3):
        kern = precompute_kernel(dense3, 16)
        with pytest.raises(ValueError):
            sample_xi(dense3, 8, [1.0, 0.0, 0.0], RngStream(0), kern)
        with pytest.raises(ValueError):
            sample_xi(nilp3, 16, [1.0, 0.0, 0.0], RngStream(0), kern)

    def test_point_mass_is_rounding_noise(self, point2):
        # xi_n = sqrt(n)(e^A - e^A) up to product association
        n = 256
        kern = precompute_kernel(point2, n)
        t = sample_xi(point2, n, [1.0, 1.0], RngStream(0), kern)
        assert np.linalg.norm(t.xi_x) <= 1e-11 * np.sqrt(n)
        assert np.all(t.s_x == 0.0)

    def test_s_matches_manual_sum(self, nilp3):
        n = 8
        x = np.array([1.0, 0.0, 0.0])
        kern = precompute_kernel(nilp3, n)
        t = sample_xi(nilp3, n, x, RngStream(6, 1), kern)
        idx = nilp3.sample_indices(RngStream(6, 1), n)
        mean = nilp3.mean()
        s = np.zeros(3)
        for k in range(1, n + 1):
            a_k = nilp3.support[idx[k - 1]]
            s += kern.p_powers[k - 1] @ (a_k - mean) @ kern.p_powers[n - k] @ x
        assert np.allclose(t.s_x, s / np.sqrt(n), rtol=1e-12, atol=1e-16)


class TestMartingaleDifference:
    def test_matches_definition(self, dense3):
        n, k = 16, 5
        kern = precompute_kernel(dense3, n)
        a_k = dense3.support[1]
        got = martingale_difference(dense3, n, k, a_k, kern)
        ref = kern.p_powers[k - 1] @ (a_k - dense3.mean()) @ kern.p_powers[n - k]
        assert np.allclose(got, ref / np.sqrt(n), rtol=1e-15)

    def test_k_range_enforced(self, dense3):
        kern = precompute_kernel(dense3, 8)
        with pytest.raises(ValueError):
            martingale_difference(dense3, 8, 0, dense3.support[0], kern)
        with pytest.raises(ValueError):
            martingale_difference(dense3, 8, 9, dense3.support[0], kern)

    def test_off_support_draw_trips_the_bound(self, dense3):
        kern = precompute_kernel(dense3, 8)
        with pytest.raises(AssertionError):
            martingale_difference(dense3, 8, 3, 50.0 * dense3.support[0], kern)

    def test_exact_max_respects_uniform_bound(self, dense3, diag3):
        for e in (dense3, diag3):
            n = 32
            kern = precompute_kernel(e, n)
            for k in (1, 16, 32):
                mx = max_dnk_norm(e, n, k, kern)
                assert mx <= dnk_norm_bound(e, n, tight=True) * (1 + 1e-12)
                assert mx <= dnk_norm_bound(e, n)

    def test_sampled_norms_below_exact_max(self, diag3):
        n, k = 16, 7
        kern = precompute_kernel(diag3, n)
        mx = max_dnk_norm(diag3, n, k, kern)
        r = RngStream(12)
        for _ in range(50):
            d = martingale_difference(diag3, n, k, diag3.sample(r), kern)
            assert op_norm(d) <= mx * (1 + 1e-12)

    def test_exact_max_matches_the_per_matrix_loop(self, moment_law):
        e, n = moment_law, 24
        kern = precompute_kernel(e, n)
        per_k = [max_dnk_norm(e, n, k, kern) for k in range(1, n + 1)]
        if e.is_finite_support:
            ref = [max(op_norm(kern.p_powers[k - 1] @ (a - e.mean()) @ kern.p_powers[n - k])
                       for a in e.support) / np.sqrt(n) for k in range(1, n + 1)]
            np.testing.assert_allclose(per_k, ref, rtol=1e-13, atol=0.0)
        assert lindeberg_max_norm(e, n, kern) == max(per_k)
        if e.is_point_mass:
            assert max(per_k) == 0.0

    def test_exact_max_takes_no_per_matrix_norm(self, wide300, count_calls):
        calls = count_calls(dynamics, "op_norm")
        kern = precompute_kernel(wide300, 16)
        assert max_dnk_norm(wide300, 16, 5, kern) > 0.0
        assert lindeberg_max_norm(wide300, 16, kern) > 0.0
        assert len(calls) == 17  # one for k = 5, one per k = 1..16
        assert all(np.shape(args[0]) == (300, 3, 3) for args in calls)

    def test_lindeberg_threshold_formula(self, dense3):
        eps = 0.25
        want = (2 * dense3.rho * np.exp(dense3.rho) / eps) ** 2
        assert lindeberg_threshold(dense3, eps) == pytest.approx(want, rel=1e-15)

    def test_event_empty_past_threshold(self, scalar01):
        eps = 0.5
        n = 128  # threshold for rho=1 is ~118.3
        assert n > lindeberg_threshold(scalar01, eps)
        kern = precompute_kernel(scalar01, n)
        assert lindeberg_max_norm(scalar01, n, kern) < eps


class TestTelescoping:
    def test_xi_prime_identity(self, dense3):
        # telescoping route == sqrt(n)(prod - Q^n) computed directly
        n = 24
        x = np.array([0.3, -1.0, 0.5])
        kern = precompute_kernel(dense3, n)
        draws = _draws(dense3, n, seed=3)
        lhs = xi_prime_telescoping(dense3, n, draws, x, kern)
        v = x.copy()
        for k in range(n, 0, -1):
            v = mat_exp(draws[k - 1] / n) @ v
        rhs = np.sqrt(n) * (v - kern.q_powers[n] @ x)
        scale = max(np.linalg.norm(rhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale

    def test_decompose_consistency(self, dense3):
        n = 24
        x = np.array([1.0, 0.0, 0.0])
        kern = precompute_kernel(dense3, n)
        draws = _draws(dense3, n, seed=8)
        s_prime, r_norm = decompose_xi_prime(dense3, n, draws, x, kern)
        xi_prime = xi_prime_telescoping(dense3, n, draws, x, kern)
        assert r_norm == pytest.approx(
            float(np.linalg.norm(xi_prime - s_prime)), rel=1e-9, abs=1e-12)

    def test_decompose_requires_n_draws(self, dense3):
        kern = precompute_kernel(dense3, 8)
        with pytest.raises(ValueError):
            decompose_xi_prime(dense3, 8, _draws(dense3, 5), [1, 0, 0], kern)

    def test_point_mass_remainder_vanishes(self, point2):
        n = 64
        kern = precompute_kernel(point2, n)
        draws = [point2.support[0]] * n
        s_prime, r_norm = decompose_xi_prime(point2, n, draws, [1.0, 1.0], kern)
        assert np.all(s_prime == 0.0)
        assert r_norm <= 1e-12 * np.sqrt(n)


class TestDoob:
    def test_identity_on_random_draws(self, dense3):
        n = 64
        x = np.array([1.0, -0.5, 0.2])
        kern = precompute_kernel(dense3, n)
        for k in range(1, 9):
            chk = doob_check(dense3, n, k, _draws(dense3, n, seed=k), x, kern)
            assert chk.identity_residual <= 1e-10
            assert chk.max_subset_bound_ratio <= 1.0 + 1e-9

    def test_k1_closed_form(self, dense3):
        n = 16
        x = np.array([0.0, 1.0, 0.0])
        kern = precompute_kernel(dense3, n)
        draws = _draws(dense3, n, seed=2)
        m_k, d_list = doob_decomposition(dense3, n, 1, draws, x, kern)
        assert len(d_list) == 1
        ref = (mat_exp(draws[0] / n) - kern.q_powers[1]) @ x
        assert np.allclose(d_list[0], ref, rtol=1e-12, atol=1e-15)
        assert np.allclose(m_k, ref, rtol=1e-12, atol=1e-14)

    def test_enumeration_cap(self, dense3):
        kern = precompute_kernel(dense3, 16)
        with pytest.raises(ValueError, match="12"):
            doob_decomposition(dense3, 16, 13, _draws(dense3, 16), [1, 0, 0], kern)

    def test_k_range(self, dense3):
        kern = precompute_kernel(dense3, 4)
        with pytest.raises(ValueError):
            doob_decomposition(dense3, 4, 5, _draws(dense3, 4), [1, 0, 0], kern)

    def test_check_enumerates_the_subsets_once(self, dense3, monkeypatch):
        # the identity and the norm bound read the same 2^k - 1 products
        seen = []
        blocks = dynamics._subset_blocks
        monkeypatch.setattr(dynamics, "_subset_blocks",
                            lambda *a: (seen.extend(masks) or (masks, f)
                                        for masks, f in blocks(*a)))
        n, k = 16, 5
        kern = precompute_kernel(dense3, n)
        doob_check(dense3, n, k, _draws(dense3, n), [1.0, -0.5, 0.2], kern)
        assert seen == list(range(1, 1 << k))

    @pytest.mark.parametrize("d, k", [(1, 10), (3, 9), (33, 8), (300, 3)])
    def test_subset_blocks_equal_a_left_fold_per_mask(self, d, k):
        # d = 33 holds 60 products a block (5 low bits), d = 300 one
        rng = np.random.default_rng(d)
        exps = mat_exp(0.1 * rng.standard_normal((k, d, d)))
        q1 = mat_exp(0.05 * rng.standard_normal((d, d)))
        seen = []
        for masks, f in dynamics._subset_blocks(exps, q1):
            assert len(masks) == len(f) <= dynamics.exp_block(d)
            for mask, got in zip(masks, f):
                ref = None
                for j in range(k):
                    factor = exps[j] - q1 if (mask >> j) & 1 else q1
                    ref = factor if ref is None else ref @ factor
                assert np.array_equal(got, ref)
            seen.extend(masks)
        assert seen == list(range(1, 1 << k))

    def test_point_mass_residual_uses_floor(self, point2):
        # true M_k = 0; the floored residual must stay tiny, not blow up
        n = 32
        kern = precompute_kernel(point2, n)
        draws = [point2.support[0]] * n
        for k in (1, 3, 6):
            chk = doob_check(point2, n, k, draws, [1.0, 1.0], kern)
            assert chk.identity_residual <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("law", [
        lambda: two_point(np.zeros((2, 2)), np.zeros((2, 2)), 0.5),
        lambda: diagonal_uniform(2, 0.0, 0.0),
    ], ids=["two_point", "diagonal_uniform"])
    def test_zero_rho_bound_is_not_divided(self, law):
        # rho = 0: the bound (2 rho/n)^|P| e^{k rho/n} and every subset
        # product are exactly 0, a ratio of 0 rather than 0/0
        e = law()
        assert e.rho == 0.0
        n = 16
        kern = precompute_kernel(e, n)
        for k in (1, 4):
            chk = doob_check(e, n, k, _draws(e, n), [1.0, 0.5], kern)
            assert chk.max_subset_bound_ratio == 0.0
            assert chk.identity_residual <= 1e-10


class TestLemmaSpeed:
    def test_point_mass_is_exactly_zero(self, point2):
        for pt in lemma_speed_curve(point2, [4, 16, 64]):
            assert pt.norm_outer == 0.0
            assert pt.norm_inner == 0.0
            assert pt.k_max_norm == 0.0

    def test_scalar_inner_closed_form(self, scalar02):
        n = 16
        pt = lemma_speed_curve(scalar02, [n])[0]
        want = abs(0.5 * (1 + np.exp(2 / n)) - np.exp(1 / n))
        assert pt.norm_inner == pytest.approx(want, rel=1e-13)

    def test_scalar_rates(self, scalar02):
        grid = [16 * 2**i for i in range(7)]
        pts = lemma_speed_curve(scalar02, grid)
        outer = fit_slope([(p.n, p.norm_outer) for p in pts])
        inner = fit_slope([(p.n, p.norm_inner) for p in pts])
        kmax = fit_slope([(p.n, p.k_max_norm) for p in pts])
        assert outer.slope == pytest.approx(-1.0, abs=0.1)
        assert inner.slope == pytest.approx(-2.0, abs=0.1)
        assert kmax.slope == pytest.approx(-1.0, abs=0.1)

    def test_dense_outer_matches_direct_norm(self, dense3):
        n = 32
        pt = lemma_speed_curve(dense3, [n])[0]
        q = dense3.mean_exp_scaled(n)
        p = mat_exp(dense3.mean() / n)
        want = op_norm(np.linalg.matrix_power(q, n) - np.linalg.matrix_power(p, n))
        assert pt.norm_outer == pytest.approx(want, rel=1e-12)


class TestMomentCurves:
    def test_diff_curve_ks_and_ortho(self, dense3):
        pts = diff_moment_curve(dense3, [15], [1.0, 0.0, 0.0], 200, RngStream(2, 3))
        (pt,) = pts
        assert sorted(pt.per_k) == [1, 8, 15]
        assert pt.mean_sq == pytest.approx(np.mean(list(pt.per_k.values())))
        # pairwise orthogonality of martingale increments: mean dot within 4 se
        for (_, _, mean_dot, se) in pt.ortho:
            assert abs(mean_dot) <= 4 * se + 1e-30

    def test_diff_curve_supports_diagonal(self, diag3):
        pts = diff_moment_curve(diag3, [12], [1.0, 1.0, 1.0], 150, RngStream(9))
        assert pts[0].per_k.keys() == {1, 6, 12}
        assert all(v >= 0 for v in pts[0].per_k.values())

    def test_diff_curve_rejects_few_reps(self, diag3):
        with pytest.raises(ValueError):
            diff_moment_curve(diag3, [8], [1.0, 1.0, 1.0], 50, RngStream(0))

    def test_diff_moments_by_hand(self):
        # 4 replicates, d = 2; rows given out of k order
        d1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        d2 = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 2.0], [0.0, 0.0]])
        pt = dot_moments(9, [1, 2], engine.diff_dots({2: d2, 1: d1}))
        assert pt.n == 9
        assert pt.per_k == {1: 2.0, 2: 2.0}  # means of |d|^2: (1+1+2+4)/4, (2+2+4+0)/4
        assert pt.mean_sq == 2.0
        ((k, l, mean_dot, se),) = pt.ortho
        assert (k, l) == (1, 2)
        # dots (1, -1, 2, 0): mean 1/2, squared deviations sum to 5, so
        # std(ddof=1) = sqrt(5/3) and se = sqrt(5/3) / sqrt(4)
        assert mean_dot == 0.5
        assert se == pytest.approx(np.sqrt(5.0 / 12.0), rel=1e-15)

    def test_diff_second_moment_scales_inverse_square(self, scalar02):
        # E||d - d'||^2 = O(1/n^2): slope from a deterministic-free scalar law
        grid = [8, 16, 32, 64, 128]
        pts = diff_moment_curve(scalar02, grid, [1.0], 400, RngStream(14, 1))
        fit = fit_slope([(p.n, p.mean_sq) for p in pts])
        assert fit.slope == pytest.approx(-2.0, abs=0.3)


class TestRiemann:
    def test_scalar_closed_form(self, scalar02):
        # w_k u_k = e^{(n-1)/n} for every k, so the sum is e^{2(n-1)/n}
        for n in (4, 64, 256):
            got = riemann_cov_value(scalar02, n, [1.0], [1.0])
            assert got == pytest.approx(np.exp(2 * (n - 1) / n), rel=1e-13)

    def test_scalar_error_closed_form(self, scalar02):
        n = 128
        got = riemann_cov_error(scalar02, n, [1.0], [1.0])
        want = np.e**2 - np.exp(2 * (n - 1) / n)
        assert got == pytest.approx(want, rel=1e-9)

    def test_matches_the_per_step_loop(self, moment_law):
        e, n = moment_law, 48
        kern = precompute_kernel(e, n)
        x = np.linspace(1.0, -0.5, e.dim)
        y = np.linspace(0.25, 1.0, e.dim)
        ref = sum(float(e.centered_projection(kern.p_powers[k - 1].T @ y,
                                              kern.p_powers[n - k] @ x))
                  for k in range(1, n + 1)) / n
        got = riemann_cov_value(e, n, x, y, kern)
        if e.is_point_mass:
            assert got == 0.0
        else:
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_one_moment_call_per_curve(self, dense3, count_calls):
        calls = count_calls(Ensemble, "centered_projection")
        riemann_cov_value(dense3, 1024, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert len(calls) == 1

    def test_converges_to_limit_covariance(self, dense3):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        sigma = sigma_projected(dense3, x, y)
        err_small = riemann_cov_error(dense3, 16, x, y)
        err_large = riemann_cov_error(dense3, 256, x, y)
        assert err_large < err_small / 8
        assert err_large <= 0.02 * max(abs(sigma), 1e-3)
