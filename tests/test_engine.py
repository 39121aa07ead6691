import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expclt import (RngStream, deterministic, diagonal_uniform, finite_support,
                    precompute_kernel, sample_xi, two_point)
from expclt import engine, experiment
from expclt.dynamics import decompose_xi_prime, diff_moment_curve, dot_moments
from expclt.experiment import ExperimentConfig


def _pass(seed):
    """A pass stream of the tests."""
    return RngStream(seed, 0).child("test")


def _replicate(stream, e, n, i):
    """The pass ``stream`` moved to replicate i's first word, i n entries_per_draw."""
    return stream.at(i * n * e.entries_per_draw)


def _diff_rows(e, kern, x, stream, reps, ks, width=None):
    """engine.diff_pair_block rows of replicates 0 .. reps-1 of the pass
    ``stream``, drawn in one block, or in blocks of ``width`` and joined in
    index order."""
    width = width or reps
    return engine.concat_chunks([
        engine.diff_pair_block(kern, x, engine._draw_rows(
            e, stream, kern.n, lo, min(lo + width, reps)), ks)
        for lo in range(0, reps, width)])


def _simulate_block(kern, x, rows, *, want_s_prime=False):
    """engine.simulate_block's end states. With ``want_s_prime`` the prefix
    states it returns must give diff_pair_block the bits of the prefixes
    that diff_pair_block sweeps on its own; they are checked and removed."""
    got = engine.simulate_block(kern, x, rows, want_s_prime=want_s_prime)
    if want_s_prime:
        ks = engine.probe_steps(kern.n)
        prefixes = got.pop("prefixes")
        assert sorted(prefixes) == ks
        alone = engine.diff_pair_block(kern, x, rows, ks)
        fused = engine.diff_pair_block(kern, x, rows, ks, prefixes)
        for k in ks:
            assert np.array_equal(fused[k], alone[k]), k
    return got


class TestBatchSize:
    def test_bounds(self, scalar01, dense3):
        assert engine.batch_size(scalar01, 1) == 8192
        assert engine.batch_size(diagonal_uniform(4, 0.0, 1.0), 2_097_152) == 32
        # a grouped chunk keeps to 2^14 / d rows, and at least 1024
        assert engine.batch_size(dense3, 256) == 5461
        assert engine.batch_size(_random_support(16, 4), 64) == 1024
        assert engine.batch_size(_random_support(64, 4), 64) == 1024
        assert engine.batch_size(_random_support(2, 4), 64) == 8192

    def test_diagonal_accounts_for_dim(self):
        wide = engine.batch_size(diagonal_uniform(16, 0.0, 1.0), 1024)
        narrow = engine.batch_size(two_point(np.eye(16), np.eye(16), 0.5), 1024)
        assert wide <= narrow

    def test_pure_function(self, dense3):
        assert engine.batch_size(dense3, 100) == engine.batch_size(dense3, 100)

    @pytest.mark.parametrize("reps, width", [(1, 1), (1, 32), (2, 1), (3, 2), (49, 3),
                                             (100, 3), (2000, 256), (8193, 8192)])
    def test_chunks_are_the_fewest_and_even(self, reps, width, monkeypatch):
        monkeypatch.setattr(engine, "batch_size", lambda *a: width)
        ranges = engine.chunk_ranges(None, 16, reps)
        count = -(-reps // width)
        assert len(ranges) == count
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == reps
        assert {hi - lo for lo, hi in ranges} <= {reps // count, -(-reps // count)}

    def test_pooled_draw_buffers_have_one_size(self):
        # diagonal d = 8, 2,000 replicates: 1, 2, 4 and 8 chunks at n = 128 to
        # 1,024, each of 256,000 draws, so no worker's buffer outgrows another's
        e = diagonal_uniform(8, -0.5, 1.0)
        for n in (128, 256, 512, 1024):
            assert {(hi - lo) * n for lo, hi in engine.chunk_ranges(e, n, 2000)} == {256_000}


class TestReferenceParity:
    # The batched sweep must reproduce the single-replicate route in
    # dynamics up to reassociation of the same floating-point work.

    # Replicate first + i replays sample_xi from its word of the pass stream
    # at any chunk width (1 draws every row alone), in a clt pass and in a
    # martingale pass, which at d = 1 counts rows instead of words; wide300
    # binary-searches its cut points.
    @pytest.mark.parametrize("fix", ["dense3", "diag3", "scalar01", "wide300"])
    @pytest.mark.parametrize("width", [None, 1, 3, 7])
    def test_simulate_paths_matches_sample_xi(self, fix, width, request, monkeypatch):
        e = request.getfixturevalue(fix)
        n, reps, first = 24, 16, 5
        x = np.array([1.0, -0.3, 0.4])[: e.dim]
        y = np.array([0.2, 1.0, -0.5])[: e.dim]
        kern = precompute_kernel(e, n)
        if width is not None:
            monkeypatch.setattr(engine, "batch_size", lambda *a: width)
        stream = _pass(42)
        clt = engine.simulate_paths(e, kern, x, y, stream, reps, first=first)
        got = engine.simulate_paths(e, kern, x, y, stream, reps, first=first,
                                    want_s_prime=True)
        for i in range(reps):
            ref = sample_xi(e, n, x, _replicate(stream, e, n, first + i), kern)
            for out in (clt, got):
                assert out["proj_xi"][i] == pytest.approx(float(y @ ref.xi_x),
                                                          rel=1e-11, abs=1e-13)
            assert got["diff_norm"][i] == pytest.approx(
                float(np.linalg.norm(ref.xi_x - ref.s_x)), rel=1e-10, abs=1e-13)

    def test_r_norm_matches_decomposition(self, dense3):
        n, reps = 16, 8
        x = np.array([0.7, 0.2, -1.0])
        kern = precompute_kernel(dense3, n)
        stream = _pass(7)
        got = engine.simulate_paths(dense3, kern, x, x, stream, reps,
                                    want_s_prime=True)
        for i in range(reps):
            idx = dense3.sample_indices(_replicate(stream, dense3, n, i), n)
            draws = [dense3.support[j] for j in idx]
            _, r_norm = decompose_xi_prime(dense3, n, draws, x, kern)
            assert got["r_norm"][i] == pytest.approx(r_norm, rel=1e-9, abs=1e-13)

    def test_mk_norm_is_product_minus_mean_power(self, diag3):
        n, reps = 12, 6
        x = np.ones(3)
        kern = precompute_kernel(diag3, n)
        stream = _pass(3)
        got = engine.simulate_paths(diag3, kern, x, x, stream, reps,
                                    want_s_prime=True)
        qn_x = kern.q_powers[n] @ x
        for i in range(reps):
            vals = diag3.sample_diagonal_values(_replicate(stream, diag3, n, i), n)
            prod = x * np.prod(np.exp(vals / n), axis=0)
            assert got["mk_norm"][i] == pytest.approx(
                np.linalg.norm(prod - qn_x), rel=1e-11, abs=1e-15)

    def test_output_keys_follow_flags(self, dense3):
        kern = precompute_kernel(dense3, 8)
        x = np.array([1.0, 0.0, 0.0])
        base = engine.simulate_paths(dense3, kern, x, x, _pass(1), 4)
        assert set(base) == {"proj_xi"}
        full = engine.simulate_paths(dense3, kern, x, x, _pass(1), 4, want_s_prime=True)
        dots = {(1, 1), (1, 4), (1, 8), (4, 4), (4, 8), (8, 8)}  # of probe_steps(8)
        assert set(full) == {"proj_xi", "diff_norm", "r_norm", "mk_norm", "tally", *dots}
        with pytest.raises(ValueError, match="reps"):
            engine.simulate_paths(dense3, kern, x, x, _pass(1), 0)

    @pytest.mark.parametrize("fix", ["dense3", "fs16m4", "diag3", "scalar01"])
    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("width", [None, 1, 3, 64])
    def test_a_martingale_pass_reads_the_dots_of_its_rows(self, fix, n, width, request,
                                                          monkeypatch):
        # the dots at probe_steps(n), odd n's ceil(n/2) included, are those of
        # the difference pairs of the rows the pass drew, bit for bit: the
        # pass takes their prefixes from its path sweep, at any chunk width
        # (64 cuts 70 rows in two chunks), and diff_pair_block sweeps all 70
        # rows on its own
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, n)
        x = np.linspace(1.0, -0.5, e.dim)
        ks = engine.probe_steps(n)
        ref = engine.diff_dots(_diff_rows(e, kern, x, _pass(2), 70, ks))
        if width is not None:
            monkeypatch.setattr(engine, "batch_size", lambda *a: width)
        out = engine.simulate_paths(e, kern, x, x, _pass(2), 70, want_s_prime=True)
        assert ks == [1, (n + 1) // 2, n] and set(ref) <= set(out)
        for key in ref:
            assert np.array_equal(out[key], ref[key])


@pytest.mark.parametrize("n, steps", [(1, [1]), (2, [1, 2]), (3, [1, 2, 3]), (5, [1, 3, 5]),
                                      (64, [1, 32, 64]), (4096, [1, 2048, 4096])])
def test_probe_steps_are_1_the_upper_half_and_n(n, steps):
    got = engine.probe_steps(n)
    assert got == steps
    assert got == sorted(set(got)) and all(1 <= k <= n for k in got)
    assert {1, -(-n // 2), n} == set(got)


def _matmul_sweep(kern, x, rows, want_s_prime):
    """The finite-support sweep with one (B, d, d) gather and batched
    per-row matmul per step: the reference for the scalar kernel at d=1 and
    for the grouped sweep at d >= 2."""
    exps = np.stack(kern.exps)
    ws, zs = engine._s_tables(kern, x)
    B, d = rows.shape[0], kern.ensemble.dim
    v = np.tile(np.asarray(x, dtype=float), (B, 1))
    s = np.zeros((B, d))
    u = np.zeros((B, d))
    for k in range(kern.n, 0, -1):
        idx = rows[:, k - 1]
        ek = exps[idx]
        if want_s_prime:
            u = zs[idx, k - 1] + np.matmul(ek, u[:, :, None])[:, :, 0]
            s += ws[idx, k - 1]
        v = np.matmul(ek, v[:, :, None])[:, :, 0]
    out = {"prod_x": v}
    if want_s_prime:
        out.update(s_x=s, s_prime_x=u, tally=np.bincount(rows.ravel(), minlength=len(exps))[None])
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
    if d == 1:  # m distinct entries: normalized 1x1 draws would all be +-0.9
        mats = rng.uniform(-0.9, 0.9, (m, 1, 1))
    else:
        mats = [a * (0.9 / np.linalg.norm(a, 2)) for a in rng.standard_normal((m, d, d))]
    return finite_support(mats, rng.dirichlet(np.ones(m)))


@pytest.fixture(scope="module")
def fs9():
    """Nine support matrices at d = 3: a 3-row chunk has mostly 1-row groups."""
    return _random_support(3, 9)


@pytest.fixture(scope="module")
def fs16m4():
    """The support shape of the fs16 benchmark workload (d = 16, m = 4)."""
    return _random_support(16, 4)


@pytest.fixture(scope="module")
def fs16m8():
    """Eight support matrices at d = 16."""
    return _random_support(16, 8)


def _assert_rows_close(got, ref):
    # The grouped sweep's GEMM sums each row's products in another order than
    # the per-row matmul, so the two agree to rounding: 1e-12 relative to the
    # largest entry (n * d * eps is 1.1e-12 at n = 300, d = 16).
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestStackedSweep:
    # At d >= 2 every step multiplies each group of rows by its own support
    # exponential, in GEMMs of engine._TILE rows over a stack of tiles. With
    # 37 rows, m = 2 and 8 give groups of several rows and m = 9 and 32
    # mostly 1-row groups; one row makes every group a single row in a
    # one-row stack. At d = 33 the BLAS rounds a row by the row count of its
    # GEMM, and n = 7 and 300 are not multiples of anything in the kernels.

    @pytest.mark.parametrize("d", [2, 3, 16, 33])
    @pytest.mark.parametrize("m", [2, 8, 9, 32])
    @pytest.mark.parametrize("n", [7, 300])
    @pytest.mark.parametrize("B", [1, 37])
    @pytest.mark.parametrize("want_s_prime", [False, True])
    def test_simulate_block_matches_matmul_sweep(self, d, m, n, B, want_s_prime):
        e = _random_support(d, m)
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, _pass(n), n, 0, B)
        x = np.linspace(1.0, -0.5, d)
        got = _simulate_block(kern, x, rows, want_s_prime=want_s_prime)
        ref = _matmul_sweep(kern, x, rows, want_s_prime)
        assert set(got) == set(ref)
        for key in ref:
            _assert_rows_close(got[key], ref[key])

    # d = 1 takes the entrywise rule, its prefix e^{(a_1 + ... + a_{k-1})/n}
    # against the reference's product of the drawn e^{a/n}.
    @pytest.mark.parametrize("d", [1, 2, 3, 16, 33])
    @pytest.mark.parametrize("m", [2, 8, 9, 32])
    @pytest.mark.parametrize("n", [7, 300])
    def test_diff_pair_block_matches_matmul_prefix(self, d, m, n):
        e = _random_support(d, m)
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, _pass(n), n, 0, 37)
        x = np.linspace(1.0, -0.5, d)
        ks = sorted({1, (n + 1) // 2, n})
        got = engine.diff_pair_block(kern, x, rows, ks)
        ref = _matmul_diff_pairs(kern, x, rows, ks)
        assert set(got) == set(ref)
        for k in ks:
            _assert_rows_close(got[k], ref[k])

    # 3,000 rows make _tile_layout blocks of 5 steps: n = 23 takes five, the
    # last of 3 steps, and m = 300 leaves most indices undrawn at some step.
    @pytest.mark.parametrize("m", [4, 300])
    def test_tally_counts_the_rows_over_several_layout_blocks(self, m):
        e, n, B = _random_support(3, m), 23, 3000
        assert engine._LAYOUT_BLOCK // B == 5
        rows = engine._draw_rows(e, _pass(m), n, 0, B)
        got = _simulate_block(precompute_kernel(e, n), np.ones(3), rows,
                              want_s_prime=True)["tally"]
        ref = np.bincount(rows.ravel(), minlength=m)[None]
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestScalarSweep:
    # At d=1 the draws commute: simulate_block takes prod_x and s_x from
    # T_n = sum_j c_j Δ_j over each row's index counts, added in index order,
    # so they agree bit for bit with a per-index loop of that sum, and the
    # tally with those counts.
    # s_prime_x multiplies the drawn factors one step at a time, as the
    # matmul sweep does, so it agrees bit for bit with it; the matmul sweep's
    # step products agree with prod_x and s_x to rounding.

    # m = 300 counts sparsely at n = 7 and 64, where the support is larger;
    # one row makes a tally and a block of one row's counts
    @pytest.mark.parametrize("m", [2, 5, 300])
    @pytest.mark.parametrize("n", [7, 64, 300, 1025])
    @pytest.mark.parametrize("B", [1, 37])
    @pytest.mark.parametrize("want_s_prime", [False, True])
    def test_bit_identical_to_matmul_sweep(self, m, n, B, want_s_prime):
        rng = np.random.default_rng(m)
        e = finite_support([[[a]] for a in rng.uniform(-2.0, 2.0, m)],
                           rng.dirichlet(np.ones(m)))
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, _pass(n), n, 0, B)
        x = np.array([0.7])
        got = _simulate_block(kern, x, rows, want_s_prime=want_s_prime)
        ref = _count_sweep(kern, x, rows, want_s_prime)
        steps = _matmul_sweep(kern, x, rows, want_s_prime)
        if want_s_prime:
            ref["s_prime_x"] = steps["s_prime_x"]
        assert set(got) == set(ref) == set(steps)
        for key in ref:
            assert got[key].shape == ref[key].shape
            assert np.array_equal(got[key], ref[key])
            _assert_rows_close(got[key], steps[key])

    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("n", [7, 300, 1025])
    def test_diff_pairs_bit_identical_to_cumsum(self, m, n):
        # the running sums take 885 steps a block at B = 37: n = 1025 takes two
        rng = np.random.default_rng(m)
        e = finite_support([[[a]] for a in rng.uniform(-2.0, 2.0, m)],
                           rng.dirichlet(np.ones(m)))
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, _pass(n), n, 0, 37)
        x, ks = np.array([0.7]), sorted({1, 2, (n + 1) // 2, n})
        got = engine.diff_pair_block(kern, x, rows, ks)
        ref = _running_sum_diff_pairs(kern, x, e._deltas[rows, 0], ks)
        for k in ks:
            assert np.array_equal(got[k], ref[k])

    def test_step_order_does_not_change_the_bits(self):
        # Δ = ±0.375 and every running sum of them is exact, so each
        # permutation of one row's steps must give the same prod_x and s_x
        e = two_point(np.array([[0.25]]), np.array([[1.0]]), 0.5)
        n = 256
        kern = precompute_kernel(e, n)
        row = engine._draw_rows(e, _pass(4), n, 0, 1)[0]
        rng = np.random.default_rng(4)
        rows = np.stack([row[rng.permutation(n)] for _ in range(50)])
        got = _simulate_block(kern, np.array([0.7]), rows, want_s_prime=True)
        assert len(np.unique(got["prod_x"])) == 1
        assert len(np.unique(got["s_x"])) == 1

    def test_difference_pairs_never_group(self, monkeypatch):
        # d = 1 sweeps and pairs its rows entrywise: no step sorts them
        e = finite_support([[[-1.0]], [[0.5]], [[2.0]]], [0.2, 0.5, 0.3])
        n, ks = 64, (1, 32, 64)
        kern = precompute_kernel(e, n)
        calls = []
        real = engine._grouped_sweep
        monkeypatch.setattr(engine, "_grouped_sweep",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        x = np.array([0.7])
        assert engine.probe_steps(n) == list(ks)
        engine.simulate_paths(e, kern, x, x, _pass(5), 40, want_s_prime=True)
        rows = engine._draw_rows(e, _pass(5), n, 0, 40)
        engine.diff_pair_block(kern, x, rows, ks)
        assert calls == []


def _scalar_law(m):
    rng = np.random.default_rng(m)
    return finite_support([[[a]] for a in rng.uniform(-2.0, 2.0, m)],
                          rng.dirichlet(np.ones(m)))


def _assert_sparse_sums_are_dense(e, sparse):
    """The sparse rows ``sparse``, sorted per row, give the T_n and tally
    bits of their dense index counts."""
    dense = np.stack([np.bincount(row, minlength=len(e.support)) for row in sparse])
    t_dense, tally_dense = engine._count_sums(e, dense)
    t_sparse, tally_sparse = engine._count_sums(e, sparse)
    assert np.array_equal(t_sparse, t_dense)
    assert np.array_equal(tally_sparse, tally_dense)
    assert np.array_equal(tally_dense, dense.sum(axis=0)[None])


class TestCountRoute:
    # A d=1 pass that does not want S' turns each block of words straight
    # into per-row index counts; a martingale pass counts its rows. Both give
    # T_n = sum_j c_j Δ_j the same bits.

    @pytest.mark.parametrize("m", [1, 2, 5, 129, 300])
    @pytest.mark.parametrize("n", [7, 301])
    def test_counts_of_the_words_are_the_counts_of_the_rows(self, m, n, monkeypatch):
        # blocks of 4 rows: replicates 3 .. 13 span three blocks, the last
        # one partial; m = 129 and 300 count sparsely at n = 7
        monkeypatch.setattr(engine, "_FILL_BLOCK", 4 * n)
        e = _scalar_law(m)
        got = engine._draw_counts(e, _pass(m), n, 3, 14)
        rows = engine._draw_rows(e, _pass(m), n, 3, 14)
        assert np.array_equal(got, engine._row_counts(e, rows))
        if m > n:
            assert np.array_equal(got, np.sort(rows, axis=1))
        else:
            ref = [np.bincount(row, minlength=m) for row in rows]
            assert got.shape == (11, m) and np.array_equal(got, ref)

    @pytest.mark.parametrize("m, n, B", [(300, 7, 37), (300, 64, 37), (8192, 64, 5),
                                         (40, 30, 1)])
    def test_sparse_counts_have_the_bits_of_the_dense_sum(self, m, n, B):
        # three indices carry most of the weight, so rows repeat them
        rng = np.random.default_rng(m)
        w = np.full(m, 0.1 / (m - 3))
        w[[0, m // 2, m - 1]] = 0.3
        e = finite_support([[[a]] for a in rng.uniform(-2.0, 2.0, m)], w)
        rows = engine._draw_rows(e, _pass(n), n, 0, B)
        sparse = engine._row_counts(e, rows)
        assert sparse.dtype == np.uint16 and sparse.shape == (B, n)
        assert any(len(np.unique(row)) < n for row in rows)
        _assert_sparse_sums_are_dense(e, sparse)

    # A sparse row's runs end at its own last place: at n = 1 every place
    # ends a run, a row of one index is one run of n, and a row that starts
    # on the index its predecessor ended on starts a run of its own. 2,500
    # rows of 64 leave a partial last block of _FILL_BLOCK // 64 rows.
    @pytest.mark.parametrize("case", ["n1", "one_index", "shared_edges", "partial_block"])
    def test_sparse_runs_end_at_each_row_end(self, case):
        rng = np.random.default_rng(11)
        e = _scalar_law(300)
        if case == "n1":
            rows = rng.integers(0, 300, (37, 1))
        elif case == "one_index":
            rows = np.sort(rng.integers(0, 300, (5, 64)), axis=1)
            rows[2] = 7
        elif case == "shared_edges":  # row i runs from 10 i to 10 (i + 1)
            rows = np.stack([np.sort(np.r_[10 * i, 10 * i + 10,
                                           rng.integers(10 * i, 10 * i + 11, 62)])
                             for i in range(6)])
            assert np.array_equal(rows[1:, 0], rows[:-1, -1])
        else:
            rows = np.sort(rng.integers(0, 300, (2500, 64)), axis=1)
            assert 2500 % (engine._FILL_BLOCK // 64) != 0
        _assert_sparse_sums_are_dense(e, rows.astype(np.uint16))

    def test_a_clt_only_pass_draws_no_rows(self, monkeypatch):
        e = finite_support([[[-1.0]], [[0.5]], [[2.0]]], [0.2, 0.5, 0.3])
        n = 64
        kern = precompute_kernel(e, n)
        x = np.array([0.7])
        calls = []
        real = engine._draw_rows
        monkeypatch.setattr(engine, "_draw_rows",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        clt = engine.simulate_paths(e, kern, x, x, _pass(5), 40)
        assert calls == []
        full = engine.simulate_paths(e, kern, x, x, _pass(5), 40, want_s_prime=True)
        assert calls
        # one set of bits, whichever route the pass takes
        assert np.array_equal(clt["proj_xi"], full["proj_xi"])


def _diagonal_loop_sweep(kern, x, rows, want_s_prime):
    """The diagonal_uniform sweep one step at a time on (B, d) arrays, with
    P_j = p_j I and Q^j = q_j I from the kernel's tables: the reference for
    the bits of the diagonal S' recurrence, and for the rest up to rounding."""
    n = kern.n
    p, q = kern.p_powers[:, 0, 0], kern.q_powers[:, 0, 0]
    mean = kern.ensemble.mean()[0, 0]
    xv = np.asarray(x, dtype=float)
    v = np.tile(xv, (rows.shape[0], 1))
    s = np.zeros_like(v)
    u = np.zeros_like(v)
    for k in range(n, 0, -1):
        vals = rows[:, k - 1, :]
        ek = np.exp(vals / n)
        delta = vals - mean
        if want_s_prime:
            u = delta * (q[n - k] * xv) + ek * u
            s += p[k - 1] * (delta * (p[n - k] * xv))
        v = ek * v
    out = {"prod_x": v}
    if want_s_prime:
        out.update(s_x=s, s_prime_x=u, tally=_diagonal_tally(kern.ensemble, rows))
    return out


def _diagonal_tally(e, rows):
    """Each row's sum of the centered entries of its (B, n, d) diagonal draws,
    added one step at a time: the reference for a diagonal law's tally."""
    total, mid = np.zeros(rows.shape[::2]), (e.low + e.high) / 2.0
    for a in rows.swapaxes(0, 1):  # (B, d) draws of one step
        total += a - mid
    return total


def _running_sum_sweep(kern, x, deltas, want_s_prime):
    """prod_x = p_n e^{T_n/n} x, and with ``want_s_prime`` s_x = p_{n-1} T_n x
    and the tally T_n, of an entrywise law whose centered draws are ``deltas``
    (B, n, d), with the running sum T_n added one step at a time: the
    reference for the bits of the entrywise sweep."""
    n = kern.n
    p = kern.p_powers[:, 0, 0]
    xv = np.asarray(x, dtype=float)
    t = np.zeros_like(deltas[:, 0])
    for k in range(n):
        t = t + deltas[:, k]
    out = {"prod_x": np.exp(t / n) * (p[n] * xv)}
    if want_s_prime:
        out.update(s_x=p[n - 1] * (t * xv), tally=t)
    return out


def _count_sweep(kern, x, rows, want_s_prime):
    """prod_x = p_n e^{T_n/n} x, and with ``want_s_prime`` s_x = p_{n-1} T_n x
    and the tally of index counts, of a finite-support law at d=1 whose index
    rows are ``rows`` (B, n), with T_n = sum_j c_j Δ_j added one index at a
    time from +0.0, c_j a row's count of index j: the reference for the bits
    of the d=1 sweep."""
    e, n = kern.ensemble, kern.n
    p = kern.p_powers[:, 0, 0]
    xv = np.asarray(x, dtype=float)
    counts = np.stack([np.bincount(row, minlength=len(e.support)) for row in rows])
    t = np.zeros((len(rows), 1))
    for c, delta in zip(counts.T, e._deltas[:, 0]):
        t = t + c[:, None] * delta
    out = {"prod_x": np.exp(t / n) * (p[n] * xv)}
    if want_s_prime:
        out.update(s_x=p[n - 1] * (t * xv), tally=counts.sum(axis=0)[None])
    return out


def _running_sum_diff_pairs(kern, x, deltas, ks):
    """diff_pair_block's entrywise rows for the centered draws ``deltas``
    (B, n, d): the S term p_{n-1} Δ_k x less the prefix p_{k-1} e^{T_{k-1}/n}
    applied to Δ_k Q^{n-k} x, with T added one step at a time: the
    reference for its step-order sums."""
    n = kern.n
    p, q = kern.p_powers[:, 0, 0], kern.q_powers[:, 0, 0]
    xv = np.asarray(x, dtype=float)
    t = np.zeros_like(deltas[:, 0])  # T_{k-1}
    out = {}
    for k in range(1, max(ks) + 1):
        if k in ks:
            delta = deltas[:, k - 1]
            z = delta * (q[n - k] * xv)
            out[k] = (p[n - 1] * (delta * xv) - p[k - 1] * np.exp(t / n) * z) / np.sqrt(n)
        t = t + deltas[:, k - 1]
    return out


class TestDiagonalSweep:
    # The diagonal kernel must add the centered draws in the per-step loop's
    # order, and run the S' recurrence's multiplies and adds in the step
    # loop's order, so every bit agrees with each; the step loop's products
    # agree with prod_x and s_x to rounding. A block holds
    # engine._SWEEP_BLOCK // (B d) steps, at least one: at d = 8, B = 1, 2
    # and 37 give 4096, 2048 and 110 steps, so n = 1025 ends in a partial
    # block; B = 2048 and 2049 sit on both sides of the edge from two-step to
    # one-step blocks, B = 4096 fills a block with one step, and from
    # B = 4097 a single step holds more than _SWEEP_BLOCK entries. B = 1 at
    # d = 1 has one entry per step, which numpy would sum pairwise. n = 7 and
    # 300 are not multiples of anything in the kernel. The entries of
    # U[-0.5, 1] straddle 0 with mean 0.25; those of U[-3, -1] lie on one
    # side of 0, spread four times as wide, with mean -2.

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [7, 64, 300, 1025])
    @pytest.mark.parametrize("B", [1, 2, 37])
    @pytest.mark.parametrize("bounds", [(-0.5, 1.0), (-3.0, -1.0)],
                             ids=["straddles0", "negative"])
    @pytest.mark.parametrize("want_s_prime", [False, True])
    def test_bit_identical_to_step_loop(self, d, n, B, bounds, want_s_prime):
        self._check(diagonal_uniform(d, *bounds), n, B, want_s_prime)

    @pytest.mark.parametrize("B", [2048, 2049, 4096, 4097, 8192, 8193])
    def test_block_edges(self, B):
        self._check(diagonal_uniform(8, -0.5, 1.0), 5, B, True)

    def _check(self, e, n, B, want_s_prime):
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, _pass(n), n, 0, B)
        x = np.linspace(1.0, -0.5, e.dim)
        got = _simulate_block(kern, x, rows, want_s_prime=want_s_prime)
        ref = _running_sum_sweep(kern, x, rows - e.mean()[0, 0], want_s_prime)
        steps = _diagonal_loop_sweep(kern, x, rows, want_s_prime)
        if want_s_prime:
            ref["s_prime_x"] = steps["s_prime_x"]
        assert set(got) == set(ref) == set(steps)
        for key in ref:
            assert got[key].shape == ref[key].shape
            assert np.array_equal(got[key], ref[key])
            _assert_rows_close(got[key], steps[key])

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("n", [7, 1025])
    @pytest.mark.parametrize("B", [1, 37, 4097])
    def test_tally_is_the_step_loop_sum(self, d, n, B):
        # the tally is the T_n of the sweep's running sums
        e = diagonal_uniform(d, -0.5, 1.0)
        rows = engine._draw_rows(e, _pass(n), n, 0, B)
        got = _simulate_block(precompute_kernel(e, n), np.ones(d), rows,
                              want_s_prime=True)
        assert set(got) == {"prod_x", "s_x", "s_prime_x", "tally"}
        assert np.array_equal(got["tally"], _diagonal_tally(e, rows))

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [7, 64, 300])
    @pytest.mark.parametrize("B", [1, 2, 37])
    def test_diff_pair_block_matches_cumsum(self, d, n, B):
        e = diagonal_uniform(d, -0.5, 1.0)
        kern = precompute_kernel(e, n)
        rows = engine._draw_rows(e, _pass(n), n, 0, B)
        x = np.linspace(1.0, -0.5, d)
        ks = sorted({1, 2, (n + 1) // 2, n})
        got = engine.diff_pair_block(kern, x, rows, ks)
        ref = _running_sum_diff_pairs(kern, x, rows - e.mean()[0, 0], ks)
        for k in ks:
            assert np.array_equal(got[k], ref[k])


@pytest.mark.parametrize("law", ["scalar", "diagonal"])
def test_a_point_mass_has_no_fluctuation(law):
    # every centered draw of a point mass is exactly 0, and so is its running
    # sum: prod_x is p_n x, the e^{EA} x that xi subtracts
    e = deterministic([[0.3]]) if law == "scalar" else diagonal_uniform(3, 0.4, 0.4)
    n = 1024
    kern = precompute_kernel(e, n)
    x, y = np.array([0.7, -0.4, 1.0])[: e.dim], np.array([0.2, 1.0, -0.5])[: e.dim]
    got = engine.simulate_paths(e, kern, x, y, _pass(6), 40, want_s_prime=True)
    for key in ("proj_xi", "diff_norm"):
        assert np.all(got[key] == 0.0), key


def _weights(m):
    return st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any).map(
        lambda w: [k / sum(w) for k in w])


_ENTRYWISE_LAWS = st.one_of(
    st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m), _weights(m))).map(
        lambda t: finite_support([[[a]] for a in t[0]], t[1])),
    st.tuples(st.integers(1, 8), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda t: diagonal_uniform(t[0], min(t[1:]), max(t[1:]))),
)


# An entrywise law's sums add its steps or its index counts in order whatever
# the width of their blocks, so no chunk width may change a bit of any
# statistic; the tally rows of finite support count a chunk's draws, so their
# sum is compared.
def _assert_same_statistics(e, whole, split):
    assert set(whole) == set(split)
    for key in whole:
        if key == "tally" and e.is_finite_support:
            assert np.array_equal(whole[key].sum(axis=0), split[key].sum(axis=0)), key
        else:
            assert np.array_equal(whole[key], split[key]), key


def _width_invariance(e, n, reps, width, kw):
    kern = precompute_kernel(e, n)
    x, y = np.linspace(1.0, -0.5, e.dim), np.linspace(-0.3, 0.9, e.dim)
    whole = engine.simulate_paths(e, kern, x, y, _pass(n), reps, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "batch_size", lambda *a: width)
        split = engine.simulate_paths(e, kern, x, y, _pass(n), reps, **kw)
    _assert_same_statistics(e, whole, split)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(e=_ENTRYWISE_LAWS, n=st.integers(1, 300), reps=st.integers(1, 40),
       width=st.integers(1, 40))
def test_entrywise_statistics_do_not_depend_on_the_width(e, n, reps, width):
    _width_invariance(e, n, reps, width, dict(want_s_prime=True))


# Without S' a d = 1 pass counts its words, not its rows.
@settings(max_examples=40, derandomize=True, deadline=None)
@given(e=_ENTRYWISE_LAWS, n=st.integers(1, 300), reps=st.integers(1, 40),
       width=st.integers(1, 40))
def test_counted_statistics_do_not_depend_on_the_width(e, n, reps, width):
    _width_invariance(e, n, reps, width, {})


class TestChunkingInvariance:
    # Each replicate owns its words of the pass stream, so neither the
    # replicate count nor the internal chunk width may change a single output bit.

    @pytest.mark.parametrize("fix", ["dense3", "diag3"])
    def test_prefix_equality_across_reps(self, fix, request):
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, 20)
        x = np.array([1.0, 0.5, -0.5])
        stream = _pass(11)
        small = engine.simulate_paths(e, kern, x, x, stream, 7, want_s_prime=True)
        large = engine.simulate_paths(e, kern, x, x, stream, 23, want_s_prime=True)
        for key in small:
            if key != "tally" or not e.is_finite_support:  # a chunk's counts, not a row's
                assert np.array_equal(small[key], large[key][:7]), key

    # dense3, fs9, fs16m4 and fs16m8 take the grouped sweep and scalar01 the
    # d=1 kernel. Width 3 cuts 50 replicates into chunks of 2 and 3 rows, and
    # width 2 cuts 49 into chunks of 2 rows and one of 1 row. The grouped sweep
    # relies on the BLAS giving a row the same bits in every GEMM of
    # engine._TILE rows; fs16m4 and fs16m8 check that at the sizes of the fs16
    # benchmark workload.

    @pytest.mark.parametrize("fix", ["dense3", "scalar01", "fs9", "fs16m4", "fs16m8"])
    def test_forced_chunk_width_is_invisible(self, fix, request, monkeypatch):
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, 16)
        x = np.eye(e.dim)[0]
        stream = _pass(23)
        for reps, width in ((50, 3), (49, 2)):
            whole = engine.simulate_paths(e, kern, x, x, stream, reps, want_s_prime=True)
            with monkeypatch.context() as mp:
                mp.setattr(engine, "batch_size", lambda *a, b=width: b)
                split = engine.simulate_paths(e, kern, x, x, stream, reps, want_s_prime=True)
            _assert_same_statistics(e, whole, split)

    @pytest.mark.parametrize("fix", ["dense3", "fs9", "diag3", "fs16m4", "fs16m8"])
    def test_forced_chunk_width_is_invisible_to_diff_pairs(self, fix, request):
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, 16)
        x = np.linspace(1.0, -0.5, e.dim)
        ks = (1, 8, 16)
        for reps in (50, 49):
            whole = _diff_rows(e, kern, x, _pass(23), reps, ks)
            split = _diff_rows(e, kern, x, _pass(23), reps, ks, width=3)
            for k in ks:
                assert np.array_equal(whole[k], split[k])

    # Past d = 31 this BLAS rounds a GEMM row by the number of rows in its
    # call: GEMMs with as many rows as the chunk change most of these 10
    # per-replicate statistics at width 3 (d = 32, 33 and 49, m = 4). Every
    # GEMM of the grouped sweep has engine._TILE rows.
    @pytest.mark.parametrize("d", [17, 32, 33, 49])
    @pytest.mark.parametrize("m", [2, 4, 9, 32])
    def test_forced_chunk_width_is_invisible_at_large_d(self, d, m, monkeypatch):
        e = _random_support(d, m)
        kern = precompute_kernel(e, 16)
        x, y = np.random.default_rng(d).uniform(-1.0, 1.0, (2, d))
        for reps, width in ((50, 3), (49, 2)):
            def paths():
                return engine.simulate_paths(e, kern, x, y, _pass(29), reps,
                                             want_s_prime=True)
            whole = paths()
            with monkeypatch.context() as mp:
                mp.setattr(engine, "batch_size", lambda *a, b=width: b)
                split = paths()
            assert len(whole) == 11  # with the tally
            _assert_same_statistics(e, whole, split)

    @pytest.mark.parametrize("d", [17, 32, 33, 49])
    @pytest.mark.parametrize("m", [2, 4, 9, 32])
    def test_forced_chunk_width_is_invisible_to_diff_pairs_at_large_d(self, d, m):
        e = _random_support(d, m)
        kern = precompute_kernel(e, 16)
        x = np.linspace(1.0, -0.5, d)
        for reps in (50, 49):
            whole = _diff_rows(e, kern, x, _pass(31), reps, (1, 8, 16))
            split = _diff_rows(e, kern, x, _pass(31), reps, (1, 8, 16), width=3)
            for k in (1, 8, 16):
                assert np.array_equal(whole[k], split[k]), k

    # Groups of _TILE - 1, _TILE, _TILE + 1 and 2 * _TILE + 1 rows at every
    # step: a partial tile, a full one, a full one and one more row, and two
    # full tiles and one more row. A row must keep its bits when the rows are
    # reordered (new neighbours and tile positions) or swept on their own.
    @pytest.mark.parametrize("d", [3, 17, 33])
    def test_rows_keep_their_bits_at_tile_edges(self, d):
        T, n = engine._TILE, 12
        sizes = [T - 1, T, T + 1, 2 * T + 1]
        e = _random_support(d, len(sizes))
        kern = precompute_kernel(e, n)
        rng = np.random.default_rng(d)
        labels = np.repeat(np.arange(len(sizes), dtype=np.uint16), sizes)
        rows = np.array([rng.permutation(labels) for _ in range(n)]).T  # step-major
        x = np.linspace(1.0, -0.5, d)

        def sweep(r):
            out = _simulate_block(kern, x, r, want_s_prime=True)
            del out["tally"]  # a chunk's counts, not a row's
            out.update(engine.diff_pair_block(kern, x, r, [1, 6, n]))
            return out

        whole = sweep(rows)
        perm = rng.permutation(len(labels))
        for part, sel in ((sweep(rows[perm]), perm), (sweep(rows[:7]), slice(0, 7)),
                          (sweep(rows[200:201]), slice(200, 201))):
            for key in whole:
                assert np.array_equal(part[key], whole[key][sel]), key

    @pytest.mark.parametrize("d", [3, 33])
    def test_gemm_blocks_do_not_change_the_rows(self, d, monkeypatch):
        # engine._GEMM_BLOCK bounds the support matrices one matmul call
        # gathers; at one tile per call every row keeps its bits
        e = _random_support(d, 3)
        kern = precompute_kernel(e, 12)
        rows = engine._draw_rows(e, _pass(7), 12, 0, 300)
        x = np.linspace(1.0, -0.5, d)

        def sweep():
            out = _simulate_block(kern, x, rows, want_s_prime=True)
            out.update(engine.diff_pair_block(kern, x, rows, [1, 6, 12]))
            return out

        whole = sweep()
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_GEMM_BLOCK", d * d)
            split = sweep()
        for key in whole:
            assert np.array_equal(whole[key], split[key]), key

    def test_products_do_not_depend_on_the_wants(self):
        # at d = 33 a row's bits depend on the row count of its GEMM, which
        # must not change with the states swept beside v
        e = _random_support(33, 4)
        kern = precompute_kernel(e, 16)
        rows = engine._draw_rows(e, _pass(3), 16, 0, 50)
        x = np.linspace(1.0, -0.5, 33)
        alone = _simulate_block(kern, x, rows)["prod_x"]
        full = _simulate_block(kern, x, rows, want_s_prime=True)
        assert np.array_equal(alone, full["prod_x"])

    @pytest.mark.parametrize("fix", ["dense3", "fs9", "diag3", "fs16m4"])
    def test_forced_chunk_width_is_invisible_to_diff_moment_curve(self, fix, request,
                                                                  monkeypatch):
        e = request.getfixturevalue(fix)
        x = np.linspace(1.0, -0.5, e.dim)
        # width 3 cuts 100 and 101 replicates into 34 chunks of 2 or 3 rows;
        # width 2 cuts 101 into 51 chunks, the first of 1 row
        for reps, width, widths in ((100, 3, ([2] + [3] * 16) * 2),
                                    (101, 3, [2] + [3] * 33), (101, 2, [1] + [2] * 50)):
            whole = diff_moment_curve(e, [16], x, reps, RngStream(23))
            blocks = []
            with monkeypatch.context() as mp:
                mp.setattr(engine, "batch_size", lambda *a, b=width: b)
                block = engine.diff_pair_block
                mp.setattr(engine, "diff_pair_block",
                           lambda *a: blocks.append(a[2].shape[0]) or block(*a))
                split = diff_moment_curve(e, [16], x, reps, RngStream(23))
            assert blocks == widths
            (w,), (s,) = whole, split
            assert np.array_equal(list(w.per_k.items()), list(s.per_k.items()))
            assert np.array_equal(w.ortho, s.ortho)
            assert w.mean_sq == s.mean_sq

    # The projections are sums along each row. A BLAS matrix-vector product
    # rounds a row by the other rows of its product, which at d = 8 changes
    # most 7-row parts of a 23-row product.
    @pytest.mark.parametrize("law", ["diagonal", "finite_support"])
    def test_projections_are_row_local(self, law, monkeypatch):
        e = diagonal_uniform(8, -0.5, 1.0) if law == "diagonal" else _random_support(8, 4)
        kern = precompute_kernel(e, 16)
        x, y = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 8))
        stream = _pass(31)

        def projections(reps):
            return engine.simulate_paths(e, kern, x, y, stream, reps)["proj_xi"]

        whole, small = projections(23), projections(7)
        with monkeypatch.context() as mp:
            mp.setattr(engine, "batch_size", lambda *a: 3)
            split = projections(23)
        assert np.array_equal(whole[:7], small) and np.array_equal(whole, split)

    # A martingale pass reduces each chunk's difference rows to dots; the
    # moments of those dots are the moments of the whole pass's rows, and
    # diff_moment_curve reads the same dots of the rows of the pass r.child(n).
    @pytest.mark.parametrize("fix", ["dense3", "fs9", "diag3", "fs16m4", "scalar01"])
    def test_pass_dots_give_the_moments_of_the_rows(self, fix, request, monkeypatch):
        e = request.getfixturevalue(fix)
        kern = precompute_kernel(e, 16)
        x = np.linspace(1.0, -0.5, e.dim)
        ks = engine.probe_steps(16)
        ref = dot_moments(16, ks, engine.diff_dots(
            _diff_rows(e, kern, x, _pass(5), 50, ks)))
        with monkeypatch.context() as mp:
            mp.setattr(engine, "batch_size", lambda *a: 3)
            out = engine.simulate_paths(e, kern, x, x, _pass(5), 50, want_s_prime=True)
        assert dot_moments(16, ks, out) == ref
        r = RngStream(5)
        rows = _diff_rows(e, kern, x, r.child(16), 100, ks)
        assert diff_moment_curve(e, [16], x, 100, r) == [
            dot_moments(16, ks, engine.diff_dots(rows))]


def _paths_row_bytes(n, want_s_prime):
    """Bytes per replicate of a simulate_paths result at n besides its tally:
    one float64 for proj_xi, and with want_s_prime three more and one for
    each pair k <= l of probe_steps(n)."""
    p = len(engine.probe_steps(n))
    return 8 * (1 + want_s_prime * (3 + p * (p + 1) // 2))


def _row_bytes(out) -> int:
    return sum(v.nbytes for key, v in out.items() if key != "tally")


class TestRowBytes:
    # Each statistic of a pass is one float64 per replicate (a d-vector per k
    # for difference rows), and no key is missing or extra; the tally takes
    # at most engine.pass_bytes' tally bytes a chunk.
    @pytest.mark.parametrize("fix", ["diag3", "dense3", "fs9"])
    def test_row_bytes_match_the_results(self, fix, request):
        e = request.getfixturevalue(fix)
        x = np.linspace(1.0, -0.5, e.dim)
        kern = precompute_kernel(e, 8)
        reps = 5
        for want_s_prime in (False, True):
            out = engine.simulate_paths(e, kern, x, x, _pass(3), reps,
                                        want_s_prime=want_s_prime)
            assert _row_bytes(out) == reps * _paths_row_bytes(8, want_s_prime)
            assert ("tally" in out) == want_s_prime
        chunks = len(engine.chunk_ranges(e, 8, reps))
        assert out["tally"].nbytes <= chunks * engine.pass_bytes(e, 8)[2]
        ks = (1, 4, 8)
        out = _diff_rows(e, kern, x, _pass(3), reps, ks)
        assert sum(v.nbytes for v in out.values()) == reps * 8 * e.dim * len(ks)

    @pytest.mark.parametrize("n", [1, 2, 8])  # 1, 2 and 3 probe steps
    def test_path_pass_bytes_count_the_dots(self, dense3, n):
        x = np.array([1.0, -0.3, 0.4])
        out = engine.simulate_paths(dense3, precompute_kernel(dense3, n), x, x,
                                    _pass(3), 5, want_s_prime=True)
        assert _row_bytes(out) == 5 * _paths_row_bytes(n, True)


class TestWorkerPool:
    # experiment._map_pass sends each chunk of engine.chunk_ranges to the
    # run's process pool. A forced width of 3, which forked workers inherit,
    # cuts 49 replicates into 17 chunks of 2 or 3 rows, which 2 or 3 workers
    # take in uneven shares. The pooled statistics must equal the
    # serial ones bit for bit.

    @pytest.mark.parametrize("fix", ["diag3", "fs9", "fs16m4", "dense3"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_is_invisible(self, fix, workers, request, monkeypatch):
        e = request.getfixturevalue(fix)
        x = np.linspace(1.0, -0.5, e.dim)
        y = np.linspace(-0.5, 1.0, e.dim)
        cfg = ExperimentConfig(ensemble=e, x=x, y=y, n_grid=(16,), replicates=49,
                               master_seed=29, suites=("clt", "martingale"),
                               output_dir="unused")
        monkeypatch.setattr(engine, "batch_size", lambda *a: 3)
        assert len(engine.chunk_ranges(e, 16, 49)) == 17

        def joined(pool):
            try:
                return engine.concat_chunks(list(experiment._map_pass(
                    experiment._References(cfg), 16, pool)))
            finally:
                if pool is not None:
                    pool.shutdown()

        serial = joined(None)
        pooled = joined(None if workers == 1 else experiment.ProcessPoolExecutor(
            workers, initializer=experiment._References.start_worker, initargs=(cfg,)))
        # 10 statistics of one row per replicate, and the structure check's
        # tally, of one row per chunk for a finite support
        assert len(serial) == 11 and set(serial) == set(pooled)
        assert pooled["tally"].shape[0] == (17 if e.is_finite_support else 49)
        for key in serial:
            assert key == "tally" or pooled[key].shape[0] == 49
            assert np.array_equal(serial[key], pooled[key])


class TestDiffPairBlock:
    def test_finite_support_matches_brute_force(self, dense3):
        n, B = 12, 9
        x = np.array([1.0, -0.2, 0.3])
        kern = precompute_kernel(dense3, n)
        rows = engine._draw_rows(dense3, _pass(5), n, 0, B)
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
        rows = engine._draw_rows(diag3, _pass(8), n, 0, B)
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
        rows = engine._draw_rows(dense3, _pass(2), n, 0, 1)
        block = engine.diff_pair_block(kern, x, rows, [1])
        a1 = dense3.support[rows[0, 0]]
        d = kern.p_powers[0] @ (a1 - dense3.mean()) @ kern.p_powers[n - 1] @ x
        z = (a1 - dense3.mean()) @ kern.q_powers[n - 1] @ x
        assert np.allclose(block[1][0], (d - z) / np.sqrt(n), rtol=1e-12)


class TestDrawRows:
    def test_finite_rows_replay_sample_indices(self, dense3):
        rows = engine._draw_rows(dense3, _pass(31), 40, 0, 5)
        assert rows.dtype == np.uint16
        for b in range(5):
            ref = dense3.sample_indices(_replicate(_pass(31), dense3, 40, b), 40)
            assert np.array_equal(rows[b], ref)

    def test_finite_rows_are_step_major(self, dense3):
        rows = engine._draw_rows(dense3, _pass(31), 40, 0, 5)
        assert rows.shape == (5, 40)
        assert rows[:, 7].flags.c_contiguous

    @pytest.mark.parametrize("fix", ["dense3", "diag3"])
    def test_a_range_of_replicates_draws_their_own_words(self, fix, request):
        # rows [lo, hi) are the rows lo..hi-1 of the whole pass, and the pass
        # stream, which drew before, is read from its key, not moved
        e, n = request.getfixturevalue(fix), 41
        stream = _pass(17)
        head = stream.words(7)
        whole = engine._draw_rows(e, _pass(17), n, 0, 10)
        part = engine._draw_rows(e, stream, n, 3, 7)
        assert np.array_equal(part, whole[3:7])
        fresh = _pass(17)
        assert np.array_equal(fresh.words(7), head)
        assert np.array_equal(stream.words(5), fresh.words(5))

    def test_diagonal_rows_replay_values(self, diag3):
        rows = engine._draw_rows(diag3, _pass(13), 9, 2, 6)
        assert rows.shape == (4, 9, 3)
        for b in range(4):
            ref = diag3.sample_diagonal_values(_replicate(_pass(13), diag3, 9, 2 + b), 9)
            assert np.array_equal(rows[b], ref)

    def test_diagonal_rows_are_step_major(self, diag3):
        rows = engine._draw_rows(diag3, _pass(13), 40, 0, 5)
        assert rows.strides == (3 * 8, 5 * 3 * 8, 8)
        assert rows[:, 7].flags.c_contiguous

    @pytest.mark.parametrize("law, n, per_block", [("diagonal", 1000, 8), ("index", 8000, 8)])
    def test_rows_span_fill_blocks(self, law, n, per_block):
        # 8 * 1000 entries per diagonal row and 8000 per index row: a block
        # holds 8 rows, so 19 rows take three blocks, the last one partial
        e = diagonal_uniform(8, -2.0, 3.0) if law == "diagonal" else _random_support(2, 5)
        assert engine._FILL_BLOCK // (n * e.entries_per_draw) == per_block
        rows = engine._draw_rows(e, _pass(3), n, 0, 19)
        for b in (0, 7, 8, 15, 16, 18):
            ref = e.draws(_replicate(_pass(3), e, n, b), n)
            assert np.array_equal(rows[b], ref)
