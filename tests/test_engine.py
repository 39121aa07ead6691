import numpy as np
import pytest

from expclt import (RngStream, diagonal_uniform, finite_support, precompute_kernel,
                    sample_xi)
from expclt import engine, experiment
from expclt.dynamics import decompose_xi_prime, diff_moment_curve
from expclt.experiment import ExperimentConfig


def _streams_root(seed):
    root = RngStream(seed, 0)
    return lambda i: root.child("test", i)


class TestBatchSize:
    def test_bounds(self):
        assert engine.batch_size("two_point", 1, 1) == 8192
        assert engine.batch_size("diagonal_uniform", 2_097_152, 4) == 32
        assert engine.batch_size("two_point", 256, 3) == 8192

    def test_diagonal_accounts_for_dim(self):
        wide = engine.batch_size("diagonal_uniform", 1024, 16)
        narrow = engine.batch_size("two_point", 1024, 16)
        assert wide <= narrow

    def test_pure_function(self):
        assert engine.batch_size("two_point", 100, 3) == engine.batch_size(
            "two_point", 100, 3)


class TestReferenceParity:
    # The batched sweep must reproduce the single-replicate route in
    # dynamics up to reassociation of the same floating-point work.

    @pytest.mark.parametrize("fix", ["dense3", "diag3"])
    def test_simulate_paths_matches_sample_xi(self, fix, request):
        e = request.getfixturevalue(fix)
        n, reps = 24, 16
        x = np.array([1.0, -0.3, 0.4])
        y = np.array([0.2, 1.0, -0.5])
        kern = precompute_kernel(e, n)
        stream_for = _streams_root(42)
        got = engine.simulate_paths(e, kern, x, y, stream_for, reps, want_s=True)
        for i in range(reps):
            ref = sample_xi(e, n, x, stream_for(i), kern, y=y)
            assert got["proj_xi"][i] == pytest.approx(ref.projected_xi,
                                                      rel=1e-11, abs=1e-13)
            assert got["proj_s"][i] == pytest.approx(ref.projected_s,
                                                     rel=1e-11, abs=1e-13)
            assert got["diff_norm"][i] == pytest.approx(ref.diff_norm,
                                                        rel=1e-10, abs=1e-13)

    def test_r_norm_matches_decomposition(self, dense3):
        n, reps = 16, 8
        x = np.array([0.7, 0.2, -1.0])
        kern = precompute_kernel(dense3, n)
        stream_for = _streams_root(7)
        got = engine.simulate_paths(dense3, kern, x, x, stream_for, reps,
                                    want_s_prime=True)
        for i in range(reps):
            idx = dense3.sample_indices(stream_for(i), n)
            draws = [dense3.support[j] for j in idx]
            _, r_norm = decompose_xi_prime(dense3, n, draws, x, kern)
            assert got["r_norm"][i] == pytest.approx(r_norm, rel=1e-9, abs=1e-13)

    def test_mk_norm_is_product_minus_mean_power(self, diag3):
        n, reps = 12, 6
        x = np.ones(3)
        kern = precompute_kernel(diag3, n)
        stream_for = _streams_root(3)
        got = engine.simulate_paths(diag3, kern, x, x, stream_for, reps,
                                    want_s_prime=True)
        qn_x = kern.q_powers[n] @ x
        for i in range(reps):
            vals = diag3.sample_diagonal_values(stream_for(i), n)
            prod = x * np.prod(np.exp(vals / n), axis=0)
            assert got["mk_norm"][i] == pytest.approx(
                np.linalg.norm(prod - qn_x), rel=1e-11, abs=1e-15)

    def test_output_keys_follow_flags(self, dense3):
        kern = precompute_kernel(dense3, 8)
        x = np.array([1.0, 0.0, 0.0])
        base = engine.simulate_paths(dense3, kern, x, x, _streams_root(1), 4)
        assert set(base) == {"proj_xi"}
        full = engine.simulate_paths(dense3, kern, x, x, _streams_root(1), 4,
                                     want_s=True, want_s_prime=True)
        assert set(full) == {"proj_xi", "proj_s", "diff_norm", "r_norm", "mk_norm"}


def _matmul_sweep(kern, x, rows, want_s, want_s_prime):
    """The finite-support sweep with one (B, d, d) gather and batched
    per-row matmul per step: the reference for the scalar kernel at d=1 and
    for the stacked-GEMM kernel at d >= 2."""
    exps = np.stack(kern.exps)
    ws, zs = engine._s_tables(kern, x, want_s, want_s_prime)
    B, d = rows.shape[0], kern.ensemble.dim
    v = np.tile(np.asarray(x, dtype=float), (B, 1))
    s = np.zeros((B, d))
    u = np.zeros((B, d))
    for k in range(kern.n, 0, -1):
        idx = rows[:, k - 1]
        ek = exps[idx]
        if want_s_prime:
            u = zs[idx, k - 1] + np.matmul(ek, u[:, :, None])[:, :, 0]
        if want_s:
            s += ws[idx, k - 1]
        v = np.matmul(ek, v[:, :, None])[:, :, 0]
    out = {"prod_x": v}
    if want_s:
        out["s_x"] = s
    if want_s_prime:
        out["s_prime_x"] = u
    return out


def _matmul_diff_pairs(kern, x, rows, ks):
    """d_{n,k} x - d'_{n,k} x with the prefix applied by per-row gathered
    matmuls: the reference for diff_pair_block's finite-support branch."""
    n, root_n = kern.n, np.sqrt(kern.n)
    exps = np.stack(kern.exps)
    deltas = np.stack(kern.ensemble._deltas)
    out = {}
    for k in ks:
        pnk_x = kern.p_powers[n - k] @ x
        d_table = np.einsum("ij,mj->mi", kern.p_powers[k - 1], deltas @ pnk_x) / root_n
        z = (deltas @ (kern.q_powers[n - k] @ x))[rows[:, k - 1]][:, :, None]
        for j in range(k - 1, 0, -1):
            z = np.matmul(exps[rows[:, j - 1]], z)
        out[k] = d_table[rows[:, k - 1]] - z[:, :, 0] / root_n
    return out


def _random_support(d, m):
    rng = np.random.default_rng(100 * d + m)
    mats = [a * (0.9 / np.linalg.norm(a, 2)) for a in rng.standard_normal((m, d, d))]
    return finite_support(mats, rng.dirichlet(np.ones(m)))


@pytest.fixture(scope="module")
def fs9():
    """One more support matrix than the stacked-GEMM sweep takes."""
    return _random_support(3, 9)


@pytest.fixture(scope="module")
def fs16m4():
    """The support shape of the fs16 benchmark workload (d = 16, m = 4)."""
    return _random_support(16, 4)


@pytest.fixture(scope="module")
def fs16m8():
    """The largest support the stacked-GEMM sweep takes, at d = 16."""
    return _random_support(16, 8)


def _assert_rows_close(got, ref):
    # The stacked GEMM sums each row's products in another order than the
    # per-row matmul, so the two agree to rounding: 1e-12 relative to the
    # largest entry (n * d * eps is 1.1e-12 at n = 300, d = 16).
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestStackedSweep:
    # At d >= 2 and up to engine._STACKED_MAX_SUPPORT support matrices,
    # every step is one GEMM against all support exponentials; above it the
    # engine keeps the per-row matmul. m = 9 covers that fallback, and
    # n = 7 and 300 are not multiples of anything in the kernels.

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("m", [2, 8, 9])
    @pytest.mark.parametrize("n", [7, 300])
    @pytest.mark.parametrize("want_s", [False, True])
    @pytest.mark.parametrize("want_s_prime", [False, True])
    def test_simulate_block_matches_matmul_sweep(self, d, m, n, want_s, want_s_prime):
        e = _random_support(d, m)
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, [_streams_root(n)(i) for i in range(37)], n)
        x = np.linspace(1.0, -0.5, d)
        got = engine.simulate_block(kern, x, rows, want_s=want_s,
                                    want_s_prime=want_s_prime)
        ref = _matmul_sweep(kern, x, rows, want_s, want_s_prime)
        assert set(got) == set(ref)
        for key in ref:
            _assert_rows_close(got[key], ref[key])

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("m", [2, 8, 9])
    @pytest.mark.parametrize("n", [7, 300])
    def test_diff_pair_block_matches_matmul_prefix(self, d, m, n):
        e = _random_support(d, m)
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, [_streams_root(n)(i) for i in range(37)], n)
        x = np.linspace(1.0, -0.5, d)
        ks = sorted({1, (n + 1) // 2, n})
        got = engine.diff_pair_block(kern, x, rows, ks)
        ref = _matmul_diff_pairs(kern, x, rows, ks)
        assert set(got) == set(ref)
        for k in ks:
            _assert_rows_close(got[k], ref[k])

    def test_fallback_is_the_matmul_sweep(self, fs9):
        # above the stacked path's support cap the sweep is the reference's
        assert len(fs9.support) > engine._STACKED_MAX_SUPPORT
        kern = precompute_kernel(fs9, 40)
        rows = engine._draw_rows(fs9, [_streams_root(4)(i) for i in range(9)], 40)
        x = np.array([0.3, 1.0, -0.2])
        got = engine.simulate_block(kern, x, rows, want_s=True, want_s_prime=True)
        ref = _matmul_sweep(kern, x, rows, True, True)
        for key in ref:
            assert np.array_equal(got[key], ref[key])
        assert np.array_equal(engine.diff_pair_block(kern, x, rows, [40])[40],
                              _matmul_diff_pairs(kern, x, rows, [40])[40])


class TestScalarSweep:
    # At d=1 simulate_block multiplies (B,) vectors, blocks of steps at a
    # time; it must perform the matmul sweep's operations in the same order,
    # so the outputs agree bit for bit. A block holds
    # engine._SWEEP_BLOCK // B steps, 885 at B = 37: n = 1025 takes a full
    # block and a partial one, and n = 7, 64 and 300 one partial block.

    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("n", [7, 64, 300, 1025])
    @pytest.mark.parametrize("want_s", [False, True])
    @pytest.mark.parametrize("want_s_prime", [False, True])
    def test_bit_identical_to_matmul_sweep(self, m, n, want_s, want_s_prime):
        rng = np.random.default_rng(m)
        e = finite_support([[[a]] for a in rng.uniform(-2.0, 2.0, m)],
                           rng.dirichlet(np.ones(m)))
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, [_streams_root(n)(i) for i in range(37)], n)
        x = np.array([0.7])
        got = engine.simulate_block(kern, x, rows, want_s=want_s,
                                    want_s_prime=want_s_prime)
        ref = _matmul_sweep(kern, x, rows, want_s, want_s_prime)
        assert set(got) == set(ref)
        for key in ref:
            assert got[key].shape == ref[key].shape
            assert np.array_equal(got[key], ref[key])


def _diagonal_loop_sweep(kern, x, rows, want_s, want_s_prime):
    """The diagonal_uniform sweep one step at a time on (B, d) arrays: the
    reference for the blocked diagonal kernel."""
    e, n = kern.ensemble, kern.n
    mid = 0.5 * (e.low + e.high)
    pk = np.exp(mid * np.arange(n + 1) / n)
    qk = float(kern.q_powers[1][0, 0]) ** np.arange(n + 1)
    xv = np.asarray(x, dtype=float)
    v = np.tile(xv, (rows.shape[0], 1))
    s = np.zeros_like(v)
    u = np.zeros_like(v)
    for k in range(n, 0, -1):
        vals = rows[:, k - 1, :]
        ek = np.exp(vals / n)
        delta = vals - mid
        if want_s_prime:
            u = qk[n - k] * (delta * xv) + ek * u
        if want_s:
            s += (pk[k - 1] * pk[n - k]) * (delta * xv)
        v = ek * v
    out = {"prod_x": v}
    if want_s:
        out["s_x"] = s
    if want_s_prime:
        out["s_prime_x"] = u
    return out


def _diagonal_cumsum_diff_pairs(kern, x, rows, ks):
    """diff_pair_block's diagonal rows with the prefix sums of the draws
    taken from one full cumsum: the reference for its per-k sums."""
    e, n = kern.ensemble, kern.n
    mid = 0.5 * (e.low + e.high)
    pk = np.exp(mid * np.arange(n + 1) / n)
    qc = float(kern.q_powers[1][0, 0])
    xv = np.asarray(x, dtype=float)
    csum = np.cumsum(rows, axis=1)
    out = {}
    for k in ks:
        delta = rows[:, k - 1, :] - mid
        d_rows = (pk[k - 1] * pk[n - k]) * (delta * xv)
        pref = np.exp(csum[:, k - 2, :] / n) if k >= 2 else 1.0
        out[k] = (d_rows - pref * (delta * (qc ** (n - k) * xv))) / np.sqrt(n)
    return out


class TestDiagonalSweep:
    # The blocked diagonal kernel must perform the per-step loop's multiplies
    # and adds in the same order, so every bit agrees. A block holds
    # engine._SWEEP_BLOCK // (B d) steps, at least one: at d = 8, B = 1, 2
    # and 37 give 4096, 2048 and 110 steps, so n = 1025 ends in a partial
    # block; B = 2048 and 2049 sit on both sides of the edge from two-step to
    # one-step blocks, B = 4096 fills a block with one step, and from
    # B = 4097 a single step holds more than _SWEEP_BLOCK entries. B = 1 at
    # d = 1 has one entry per step, which numpy would sum pairwise. n = 7 and
    # 300 are not multiples of anything in the kernel.

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [7, 64, 300, 1025])
    @pytest.mark.parametrize("B", [1, 2, 37])
    @pytest.mark.parametrize("flags", [(False, False), (True, False), (False, True),
                                       (True, True)])
    def test_bit_identical_to_step_loop(self, d, n, B, flags):
        self._check(diagonal_uniform(d, -0.5, 1.0), n, B, *flags)

    @pytest.mark.parametrize("B", [2048, 2049, 4096, 4097, 8192, 8193])
    def test_block_edges(self, B):
        self._check(diagonal_uniform(8, -0.5, 1.0), 5, B, True, True)

    def _check(self, e, n, B, want_s, want_s_prime):
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, [_streams_root(n)(i) for i in range(B)], n)
        x = np.linspace(1.0, -0.5, e.dim)
        got = engine.simulate_block(kern, x, rows, want_s=want_s,
                                    want_s_prime=want_s_prime)
        ref = _diagonal_loop_sweep(kern, x, rows, want_s, want_s_prime)
        assert set(got) == set(ref)
        for key in ref:
            assert got[key].shape == ref[key].shape
            assert np.array_equal(got[key], ref[key])

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [7, 64, 300])
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_diff_pair_block_matches_cumsum(self, d, n, B):
        e = diagonal_uniform(d, -0.5, 1.0)
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, [_streams_root(n)(i) for i in range(B)], n)
        x = np.linspace(1.0, -0.5, d)
        ks = sorted({1, 2, (n + 1) // 2, n})
        got = engine.diff_pair_block(kern, x, rows, ks)
        ref = _diagonal_cumsum_diff_pairs(kern, x, rows, ks)
        for k in ks:
            assert np.array_equal(got[k], ref[k])


class TestChunkingInvariance:
    # Each replicate owns a keyed stream, so neither the replicate count nor
    # the internal chunk width may change a single output bit.

    @pytest.mark.parametrize("fix", ["dense3", "diag3"])
    def test_prefix_equality_across_reps(self, fix, request):
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, 20)
        x = np.array([1.0, 0.5, -0.5])
        stream_for = _streams_root(11)
        small = engine.simulate_paths(e, kern, x, x, stream_for, 7,
                                      want_s=True, want_s_prime=True)
        large = engine.simulate_paths(e, kern, x, x, stream_for, 23,
                                      want_s=True, want_s_prime=True)
        for key in small:
            assert np.array_equal(small[key], large[key][:7])

    # dense3, fs16m4 and fs16m8 take the stacked-GEMM sweep, fs9 the per-row
    # fallback and scalar01 the d=1 kernel. With width 3, 50 replicates end
    # in a 2-row chunk and 49 in a 1-row chunk, which numpy would multiply by
    # a gemv. The stacked path relies on the BLAS giving every part of 2 or
    # more rows of a GEMM the bits of the whole product; fs16m4 and fs16m8
    # check that at the sizes of the fs16 benchmark workload.

    @pytest.mark.parametrize("fix", ["dense3", "scalar01", "fs9", "fs16m4", "fs16m8"])
    def test_forced_chunk_width_is_invisible(self, fix, request, monkeypatch):
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, 16)
        x = np.eye(e.dim)[0]
        stream_for = _streams_root(23)
        for reps in (50, 49):
            whole = engine.simulate_paths(e, kern, x, x, stream_for, reps,
                                          want_s=True, want_s_prime=True)
            with monkeypatch.context() as mp:
                mp.setattr(engine, "batch_size", lambda *a: 3)
                split = engine.simulate_paths(e, kern, x, x, stream_for, reps,
                                              want_s=True, want_s_prime=True)
            for key in whole:
                assert np.array_equal(whole[key], split[key])

    @pytest.mark.parametrize("fix", ["dense3", "fs9", "diag3", "fs16m4", "fs16m8"])
    def test_forced_chunk_width_is_invisible_to_diff_pairs(self, fix, request,
                                                           monkeypatch):
        e = request.getfixturevalue(fix)
        x = np.linspace(1.0, -0.5, e.dim)
        ks = (1, 8, 16)
        for reps in (50, 49):
            cfg = ExperimentConfig(ensemble=e, x=x, y=x, n_grid=(16,), replicates=reps,
                                   master_seed=23, suites=("martingale",),
                                   output_dir="unused")
            try:
                whole = experiment._run_chunks(cfg, fix, "diff", 16, None,
                                               engine.diff_pairs, (x,), ks=ks)
                with monkeypatch.context() as mp:
                    mp.setattr(engine, "batch_size", lambda *a: 3)
                    split = experiment._run_chunks(cfg, fix, "diff", 16, None,
                                                   engine.diff_pairs, (x,), ks=ks)
            finally:
                experiment._KERNEL_CACHE.clear()
            for k in ks:
                assert np.array_equal(whole[k], split[k])

    @pytest.mark.parametrize("fix", ["dense3", "fs9", "diag3", "fs16m4"])
    def test_forced_chunk_width_is_invisible_to_diff_moment_curve(self, fix, request,
                                                                  monkeypatch):
        e = request.getfixturevalue(fix)
        x = np.linspace(1.0, -0.5, e.dim)
        # width 3 leaves a 1-row last chunk of 100 replicates, a 2-row one of 101
        for reps in (100, 101):
            whole = diff_moment_curve(e, [16], x, reps, RngStream(23))
            blocks = []
            with monkeypatch.context() as mp:
                mp.setattr(engine, "batch_size", lambda *a: 3)
                block = engine.diff_pair_block
                mp.setattr(engine, "diff_pair_block",
                           lambda *a: blocks.append(a[2].shape[0]) or block(*a))
                split = diff_moment_curve(e, [16], x, reps, RngStream(23))
            assert blocks == [3] * (reps // 3) + [reps % 3]
            (w,), (s,) = whole, split
            assert np.array_equal(list(w.per_k.items()), list(s.per_k.items()))
            assert np.array_equal(w.ortho, s.ortho)
            assert w.mean_sq == s.mean_sq


class TestWorkerPool:
    # experiment._run_chunks sends each chunk of engine.chunk_ranges to the
    # run's process pool. A forced width of 3, which forked workers inherit,
    # cuts 49 replicates into 17 chunks, the last of 1 row, which 2 or 3
    # workers take in uneven shares. The pooled rows must equal the serial
    # ones bit for bit.

    @pytest.mark.parametrize("fix", ["diag3", "fs9", "fs16m4", "dense3"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_is_invisible(self, fix, workers, request, monkeypatch):
        e = request.getfixturevalue(fix)
        x = np.linspace(1.0, -0.5, e.dim)
        y = np.linspace(-0.5, 1.0, e.dim)
        cfg = ExperimentConfig(ensemble=e, x=x, y=y, n_grid=(16,), replicates=49,
                               master_seed=29, suites=("martingale",),
                               output_dir="unused")
        monkeypatch.setattr(engine, "batch_size", lambda *a: 3)
        assert len(engine.chunk_ranges(e, 16, 49)) == 17

        def both(pool):
            try:
                paths = experiment._run_chunks(cfg, fix, "paths", 16, pool,
                                               engine.simulate_paths, (x, y),
                                               want_s=True, want_s_prime=True)
                diff = experiment._run_chunks(cfg, fix, "diff", 16, pool,
                                              engine.diff_pairs, (x,), ks=(1, 8, 16))
            finally:
                if pool is not None:
                    pool.shutdown()
                experiment._KERNEL_CACHE.clear()
            return {**paths, **diff}

        serial = both(None)
        pooled = both(experiment.ProcessPoolExecutor(workers) if workers > 1 else None)
        assert set(serial) == set(pooled)
        for key in serial:
            assert pooled[key].shape[0] == 49
            assert np.array_equal(serial[key], pooled[key])


class TestDiffPairBlock:
    def test_finite_support_matches_brute_force(self, dense3):
        n, B = 12, 9
        x = np.array([1.0, -0.2, 0.3])
        kern = precompute_kernel(dense3, n)
        streams = [_streams_root(5)(i) for i in range(B)]
        rows = engine._draw_rows(dense3, streams, n)
        ks = [1, 6, 12]
        block = engine.diff_pair_block(kern, x, rows, ks)
        mean = dense3.mean()
        for b in range(B):
            draws = [dense3.support[j] for j in rows[b]]
            for k in ks:
                d = kern.p_powers[k - 1] @ (draws[k - 1] - mean) \
                    @ kern.p_powers[n - k] @ x / np.sqrt(n)
                z = (draws[k - 1] - mean) @ kern.q_powers[n - k] @ x
                for j in range(k - 1, 0, -1):
                    z = kern.exps[rows[b, j - 1]] @ z
                ref = d - z / np.sqrt(n)
                assert np.allclose(block[k][b], ref, rtol=1e-11, atol=1e-15)

    def test_diagonal_matches_brute_force(self, diag3):
        n, B = 10, 7
        x = np.array([0.4, 1.0, -0.6])
        kern = precompute_kernel(diag3, n)
        streams = [_streams_root(8)(i) for i in range(B)]
        rows = engine._draw_rows(diag3, streams, n)
        ks = [1, 5, 10]
        block = engine.diff_pair_block(kern, x, rows, ks)
        mid = 0.5 * (diag3.low + diag3.high)
        qc = float(kern.q_powers[1][0, 0])
        for b in range(B):
            for k in ks:
                delta = np.diag(rows[b, k - 1] - mid)
                p_km1 = np.exp(mid * (k - 1) / n) * np.eye(3)
                p_nmk = np.exp(mid * (n - k) / n) * np.eye(3)
                d = p_km1 @ delta @ p_nmk @ x / np.sqrt(n)
                z = delta @ (qc ** (n - k) * np.eye(3)) @ x
                for j in range(k - 1, 0, -1):
                    z = np.diag(np.exp(rows[b, j - 1] / n)) @ z
                ref = d - z / np.sqrt(n)
                assert np.allclose(block[k][b], ref, rtol=1e-10, atol=1e-14)

    def test_k1_has_no_prefix(self, dense3):
        # at k=1 the prefix product is empty: delta = (d - z)/sqrt(n) exactly
        n = 8
        x = np.array([1.0, 0.0, 0.0])
        kern = precompute_kernel(dense3, n)
        rows = engine._draw_rows(dense3, [_streams_root(2)(0)], n)
        block = engine.diff_pair_block(kern, x, rows, [1])
        a1 = dense3.support[rows[0, 0]]
        d = kern.p_powers[0] @ (a1 - dense3.mean()) @ kern.p_powers[n - 1] @ x
        z = (a1 - dense3.mean()) @ kern.q_powers[n - 1] @ x
        assert np.allclose(block[1][0], (d - z) / np.sqrt(n), rtol=1e-12)


class TestDrawRows:
    def test_finite_rows_replay_sample_indices(self, dense3):
        streams = [_streams_root(31)(i) for i in range(5)]
        rows = engine._draw_rows(dense3, streams, 40)
        assert rows.dtype == np.uint16
        for b in range(5):
            ref = dense3.sample_indices(_streams_root(31)(b), 40)
            assert np.array_equal(rows[b], ref)

    def test_finite_rows_are_step_major(self, dense3):
        streams = [_streams_root(31)(i) for i in range(5)]
        rows = engine._draw_rows(dense3, streams, 40)
        assert rows.shape == (5, 40)
        assert rows[:, 7].flags.c_contiguous

    def test_filled_stream_replays_with_uniform(self, dense3):
        # a stream drawn lazily through _draw_rows continues, on a later
        # uniform call, exactly where a fresh stream with its key would
        n = 41
        stream = _streams_root(17)(3)
        rows = engine._draw_rows(dense3, [_streams_root(17)(2), stream], n)
        tail = stream.uniform(9)
        fresh = _streams_root(17)(3)
        head = fresh.uniform(n)
        assert np.array_equal(rows[1], dense3.support_indices(head))
        assert np.array_equal(tail, fresh.uniform(9))

    def test_diagonal_rows_replay_values(self, diag3):
        # stream 2 drew before, so fill_rows serves it from its own generator
        streams = [_streams_root(13)(i) for i in range(4)]
        head = streams[2].uniform(5)
        rows = engine._draw_rows(diag3, streams, 9)
        assert rows.shape == (4, 9, 3)
        for b in range(4):
            fresh = _streams_root(13)(b)
            if b == 2:
                assert np.array_equal(fresh.uniform(5), head)
            ref = diag3.sample_diagonal_values(fresh, 9)
            assert np.array_equal(rows[b], ref)

    def test_diagonal_rows_are_step_major(self, diag3):
        rows = engine._draw_rows(diag3, [_streams_root(13)(i) for i in range(5)], 40)
        assert rows.strides == (3 * 8, 5 * 3 * 8, 8)
        assert rows[:, 7].flags.c_contiguous

    def test_diagonal_rows_span_fill_blocks(self):
        # 8 * 1000 uniforms per row: a scratch block holds 8 rows, so 19 rows
        # take three blocks, the last one partial
        e = diagonal_uniform(8, -2.0, 3.0)
        assert engine._FILL_BLOCK // (8 * 1000) == 8
        rows = engine._draw_rows(e, [_streams_root(3)(i) for i in range(19)], 1000)
        for b in (0, 7, 8, 15, 16, 18):
            ref = e.sample_diagonal_values(_streams_root(3)(b), 1000)
            assert np.array_equal(rows[b], ref)
