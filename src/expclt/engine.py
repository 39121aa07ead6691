"""Batched replicate engine for the product-of-exponentials dynamics.

Everything here is an internal performance layer: the public semantics live
in :mod:`expclt.dynamics`, and each batched routine mirrors a single-replicate
reference implementation there.  The key structural property is that every
replicate row is computed from its own keyed stream with row-local numpy
operations only: its uniforms come from its own stream and map to support
indices elementwise.  A finite-support step over at most
``_STACKED_MAX_SUPPORT`` support matrices is one GEMM against all of them
plus a per-row selection (:func:`_support_step`), whose rows have the same
bits in any part of two or more rows (a property of the BLAS, which the
chunk-width tests check); larger supports gather each row's matrix and
multiply per row.  The d=1 sweep multiplies gathered scalars instead
(:func:`_scalar_sweep`).  So results are bitwise identical for any batch
size, chunking, or worker count.  Index rows are stored step-major, so each
step of a sweep reads one contiguous column.

Both Monte Carlo passes, :func:`simulate_paths` and :func:`diff_pairs`, run
on one replicate driver: :func:`chunk_ranges` fixes the chunks from the
problem shape alone, each chunk draws its rows from its own replicates'
streams, and :func:`concat_chunks` joins the chunk results in index order.

Per chunk of B replicates and one k-sweep (k = n .. 1) the engine updates

    v <- exp(A_k/n) v                    (the random product, right to left)
    s <- s + P_{k-1} (A_k - EA) P_{n-k} x   (gathered from a per-(i,k) table)
    u <- z_k + exp(A_k/n) u              (backward recurrence, so that
                                          u_1 = sum_k Pref_{k-1} z_k)

which yields xi_n x, S_n x, S'_n x, R_n x and M_n x in O(n d^2) per row
(O(n m d^2) on the stacked-GEMM path).
"""

from __future__ import annotations

import numpy as np

from .ensembles import RngStream

__all__ = [
    "batch_size",
    "chunk_ranges",
    "concat_chunks",
    "simulate_block",
    "simulate_paths",
    "diff_pair_block",
    "diff_pairs",
]

# Replicate rows per chunk: keep the per-chunk draw buffer near 2^21 entries
# (16 MiB of float64 for diagonal draws, 4 MiB of uint16 for indices).
_CHUNK_TARGET = 2_097_152

# Uniforms per scratch block when drawing index rows (512 KiB of float64).
_FILL_BLOCK = 65_536

# Steps whose factors the d=1 sweep gathers at once: a (65, B) float64 block,
# 260 KiB at the criterion-1 chunk width B = 512.
_SCALAR_BLOCK = 64

# Largest support whose finite-support steps run as one GEMM
# against all m support exponentials: m times the flops of the per-row
# products, in one BLAS call instead of B.  Speedup of simulate_block over
# the per-row path (n = 256, B = 2000, one BLAS thread, 2-core x86 host;
# plain sweep / with S and S'): d = 16: 4.7x/2.2x at m = 4, 1.7x/1.3x at
# m = 8, 0.87x/0.72x at m = 16; d = 8: 1.7x/1.5x at m = 8, 0.78x at m = 16;
# d = 3: 2.4x/1.5x at m = 8, 0.37x/0.41x at m = 64.  Small d would still
# gain up to m = 16..32; one cap keeps the choice a function of m alone.
_STACKED_MAX_SUPPORT = 8


def batch_size(family: str, n: int, dim: int) -> int:
    """Deterministic chunk width; a pure function of the problem shape only."""
    per_row = n * (dim if family == "diagonal_uniform" else 1)
    return max(32, min(8192, _CHUNK_TARGET // max(1, per_row)))


def chunk_ranges(e, n: int, reps: int) -> list:
    """The replicate ranges ``[lo, hi)`` of one pass, in index order."""
    chunk = batch_size(e.family, n, e.dim)
    return [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]


def concat_chunks(parts) -> dict:
    """Per-chunk dicts of row arrays joined into one dict, in chunk order."""
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _by_chunk(e, n: int, stream_for, reps: int, fn) -> dict:
    """``fn(rows)`` on each chunk's draw rows, joined in index order."""
    return concat_chunks([fn(_draw_rows(e, [stream_for(i) for i in range(lo, hi)], n))
                          for lo, hi in chunk_ranges(e, n, reps)])


def _draw_rows(e, streams, n: int):
    """One draw row per stream: indices (finite support) or diagonal values.

    Finite support: a ``(B, n)`` uint16 index array stored step-major, as the
    transpose of a C-contiguous ``(n, B)`` buffer, so that the sweeps' per-step
    column ``rows[:, k-1]`` is contiguous.  Uniforms are drawn a few rows at a
    time into a small scratch block and mapped by
    :meth:`Ensemble.support_indices`; each row holds exactly the indices of
    ``e.sample_indices(stream, n)``.
    """
    if e.is_finite_support:
        buf = np.empty((n, len(streams)), dtype=np.uint16)
        u = np.empty((max(1, min(len(streams), _FILL_BLOCK // n)), n))
        for lo in range(0, len(streams), len(u)):
            group = streams[lo : lo + len(u)]
            RngStream.fill_rows(group, u[: len(group)])
            buf[:, lo : lo + len(group)] = e.support_indices(u[: len(group)]).T
        return buf.T
    rows = np.empty((len(streams), n, e.dim))
    for b, r in enumerate(streams):
        rows[b] = e.sample_diagonal_values(r, n)
    return rows


def _s_tables(kern, x, want_s: bool, want_s_prime: bool):
    """Per-(support index, step) gather tables for the S and S' recurrences.

    ws[i, k-1] = P_{k-1} (A_i - EA) P_{n-k} x   (so S_n x = ws-sum / sqrt(n))
    zs[i, k-1] = (A_i - EA) Q^{n-k} x           (backward-recurrence input)
    """
    n, d = kern.n, kern.ensemble.dim
    deltas = np.stack(kern.ensemble._deltas)  # (m, d, d)
    ws = zs = None
    if want_s:
        px = np.einsum("kij,j->ki", kern.p_powers, x)  # P_j x
        mid = np.einsum("mij,kj->mki", deltas, px[n - 1 :: -1])  # delta_i P_{n-k} x
        ws = np.einsum("kij,mkj->mki", kern.p_powers[:n], mid)
    if want_s_prime:
        qx = np.einsum("kij,j->ki", kern.q_powers, x)  # Q^j x
        zs = np.einsum("mij,kj->mki", deltas, qx[n - 1 :: -1])
    return ws, zs


def _support_step(exps, B: int):
    """``step(idx, *vs)``: for each ``(B, d)`` v, the rows ``exps[idx[b]] @ v[b]``.

    Up to ``_STACKED_MAX_SUPPORT`` support matrices, one GEMM ``v @ stack_t``
    forms ``E_s v_b`` for every s at once and a take keeps the product each
    row drew.  A GEMM row has the same bits in any part of two or more rows,
    but numpy runs a 1-row matmul as a gemv, whose bits differ; so a single
    row is multiplied as two copies of itself.  Larger supports gather each
    row's ``(d, d)`` matrix and multiply row by row.
    """
    m, d = exps.shape[:2]
    if m > _STACKED_MAX_SUPPORT:
        def step(idx, *vs):
            ek = exps.take(idx, axis=0)  # (B, d, d) gather
            return [np.matmul(ek, v[:, :, None])[:, :, 0] for v in vs]
        return step

    stack_t = exps.reshape(m * d, d).T  # column s*d + i is row i of E_s
    w = np.empty((max(B, 2), m * d))
    products = w.reshape(-1, d)  # row b*m + s is E_s v_b
    base = np.arange(B) * m
    pos = np.empty(B, dtype=np.intp)

    def step(idx, *vs):
        np.add(base, idx, out=pos)
        out = []
        for v in vs:
            np.matmul(v if B > 1 else np.repeat(v, 2, axis=0), stack_t, out=w)
            out.append(products.take(pos, axis=0))
        return out
    return step


def _scalar_sweep(kern, x, rows, want_s: bool, want_s_prime: bool):
    """The finite-support sweep at d=1, on ``(B,)`` vectors.

    Performs the same multiplies and adds as the ``(B, 1, 1)`` matmul sweep,
    in the same order, so every bit agrees with it.  The factors
    ``e^{a_s/n}`` of a block of steps are gathered once; ``multiply.reduce``
    over the leading axis of the C-contiguous ``(cnt+1, B)`` block then forms
    ``((v e_hi) e_{hi-1}) ... e_{lo+1}`` row by row, one rounding per step,
    as the per-step loop did.
    """
    n, B = kern.n, rows.shape[0]
    ev = np.array([float(m[0, 0]) for m in kern.exps])
    ws, zs = _s_tables(kern, x, want_s, want_s_prime)
    steps = rows.T  # (n, B), contiguous for rows from _draw_rows
    v = np.full(B, float(x[0]))
    s = np.zeros(B) if want_s else None
    u = np.zeros(B) if want_s_prime else None
    tmp = np.empty((_SCALAR_BLOCK + 1, B))
    for hi in range(n, 0, -_SCALAR_BLOCK):
        lo = max(0, hi - _SCALAR_BLOCK)
        cnt = hi - lo
        ev.take(steps[lo:hi][::-1], out=tmp[1 : cnt + 1])  # tmp[1 + r] = e_{hi-r}
        if want_s or want_s_prime:
            for r in range(cnt):
                k = hi - r
                idx = steps[k - 1]
                if want_s_prime:
                    u = zs[idx, k - 1, 0] + tmp[1 + r] * u
                if want_s:
                    s += ws[idx, k - 1, 0]
        tmp[0] = v
        v = np.multiply.reduce(tmp[: cnt + 1], axis=0)
    return tuple(None if a is None else a[:, None] for a in (v, s, u))


def simulate_block(kern, x, rows, *, want_s: bool = False, want_s_prime: bool = False):
    """Run one chunk of replicates; returns per-row end states.

    Output dict keys: ``prod_x`` (B, d) always; ``s_x`` and ``s_prime_x``
    (B, d) when requested.  All downstream statistics are cheap functions of
    these plus kernel constants.  Finite support at d=1 runs
    :func:`_scalar_sweep`, which gives the same bits as a per-row matmul
    sweep; at d >= 2 every step multiplies by the drawn support exponentials
    through :func:`_support_step`.
    """
    e = kern.ensemble
    n, d = kern.n, e.dim
    B = rows.shape[0]
    v = np.tile(np.asarray(x, dtype=float), (B, 1))
    s = np.zeros((B, d)) if want_s else None
    u = np.zeros((B, d)) if want_s_prime else None

    if e.is_finite_support and d == 1:
        v, s, u = _scalar_sweep(kern, x, rows, want_s, want_s_prime)
    elif e.is_finite_support:
        step = _support_step(np.stack(kern.exps), B)
        ws, zs = _s_tables(kern, x, want_s, want_s_prime)
        for k in range(n, 0, -1):
            idx = rows[:, k - 1]
            if want_s_prime:
                v, eu = step(idx, v, u)
                u = zs[idx, k - 1] + eu
            else:
                (v,) = step(idx, v)
            if want_s:
                s += ws[idx, k - 1]
    else:
        # Diagonal-uniform: every operator in sight is diagonal, the mean is
        # a scalar multiple of I, so the sweep is elementwise.
        mid = 0.5 * (e.low + e.high)
        pk = np.exp(mid * np.arange(n + 1) / n)  # P_j = e^{mid j/n} I
        qc = float(kern.q_powers[1][0, 0])  # Q_1 = (E e^{a/n}) I
        qk = qc ** np.arange(n + 1)
        xv = np.asarray(x, dtype=float)
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


def simulate_paths(e, kern, x, y, stream_for, reps: int, *, want_s: bool = False,
                   want_s_prime: bool = False):
    """All requested per-replicate statistics over ``reps`` replicates.

    ``stream_for(rep_index)`` must return the replicate's own RngStream;
    chunking is internal and cannot affect any output bit.

    Returns a dict of float arrays of length ``reps``: ``proj_xi`` always;
    ``proj_s`` and ``diff_norm`` with ``want_s``; ``r_norm`` and ``mk_norm``
    with ``want_s_prime``.
    """
    n = kern.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    root_n = np.sqrt(float(n))
    ex_x = kern.p_powers[n] @ x  # e^{EA} x
    qn_x = kern.q_powers[n] @ x  # (E e^{A/n})^n x

    def stats(rows):
        block = simulate_block(kern, x, rows, want_s=want_s, want_s_prime=want_s_prime)
        xi = root_n * (block["prod_x"] - ex_x)
        out = {"proj_xi": xi @ y}
        if want_s:
            s = block["s_x"] / root_n
            out["proj_s"] = s @ y
            out["diff_norm"] = np.linalg.norm(xi - s, axis=1)
        if want_s_prime:
            mk = block["prod_x"] - qn_x
            s_prime = block["s_prime_x"] / root_n
            out["r_norm"] = np.linalg.norm(root_n * mk - s_prime, axis=1)
            out["mk_norm"] = np.linalg.norm(mk, axis=1)
        return out

    return _by_chunk(e, n, stream_for, reps, stats)


def diff_pair_block(kern, x, rows, ks):
    """Rows of d_{n,k} x - d'_{n,k} x for each k in ks (finite support only).

    d_{n,k} x comes from a per-support gather table; d'_{n,k} x applies the
    random prefix e^{A_1/n} ... e^{A_{k-1}/n} to (A_k - EA) Q^{n-k} x by a
    forward sweep. Cost O(sum(ks) d^2) per row.
    """
    e = kern.ensemble
    n, d = kern.n, e.dim
    B = rows.shape[0]
    root_n = np.sqrt(float(n))
    out = {}
    if not e.is_finite_support:
        # Diagonal-uniform: both difference sequences are elementwise.
        mid = 0.5 * (e.low + e.high)
        pk = np.exp(mid * np.arange(n + 1) / n)
        qc = float(kern.q_powers[1][0, 0])
        xv = np.asarray(x, dtype=float)
        csum = np.cumsum(rows, axis=1)  # (B, n, d) running sums of draws
        for k in ks:
            delta = rows[:, k - 1, :] - mid
            d_rows = (pk[k - 1] * pk[n - k]) * (delta * xv)
            pref = np.exp(csum[:, k - 2, :] / n) if k >= 2 else 1.0
            z = pref * (delta * (qc ** (n - k) * xv))
            out[k] = (d_rows - z) / root_n
        return out
    step = _support_step(np.stack(kern.exps), B)
    deltas = np.stack(kern.ensemble._deltas)
    for k in ks:
        pnk_x = kern.p_powers[n - k] @ x
        qnk_x = kern.q_powers[n - k] @ x
        d_table = np.einsum("ij,mj->mi", kern.p_powers[k - 1], deltas @ pnk_x) / root_n
        z_table = deltas @ qnk_x  # (m, d)
        idx_k = rows[:, k - 1]
        d_rows = d_table[idx_k]
        z = z_table[idx_k]
        for j in range(k - 1, 0, -1):
            (z,) = step(rows[:, j - 1], z)
        out[k] = d_rows - z / root_n
    return out


def diff_pairs(e, kern, x, stream_for, reps: int, *, ks):
    """:func:`diff_pair_block` rows for ``reps`` replicates, drawn and chunked
    as in :func:`simulate_paths` and joined in index order."""
    return _by_chunk(e, kern.n, stream_for, reps,
                     lambda rows: diff_pair_block(kern, x, rows, ks))
