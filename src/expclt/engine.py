"""Batched replicate engine for the product-of-exponentials dynamics.

Everything here is an internal performance layer: the public semantics live
in :mod:`expclt.dynamics`, and each batched routine mirrors a single-replicate
reference implementation there.  The key structural property is that every
replicate row is computed from its own keyed stream with row-local numpy
operations only: its uniforms come from its own stream and map to support
indices or diagonal values elementwise.  A finite-support step over at most
``_STACKED_MAX_SUPPORT`` support matrices is one GEMM against all of them
plus a per-row selection (:func:`_support_step`), whose rows have the same
bits in any part of two or more rows (a property of the BLAS, which the
chunk-width tests check); larger supports gather each row's matrix and
multiply per row.  The d=1 sweep multiplies gathered scalars instead
(:func:`_scalar_sweep`).  The diagonal_uniform sweep
(:func:`_diagonal_sweep`) is elementwise and takes a block of steps at
once: one ``exp`` over the block, then ``multiply.reduce`` and
``add.reduce`` over blocks whose row 0 is the running product or sum, in
the per-step order.  So results are bitwise identical for any batch size,
chunking, or worker count.  Draw rows, index or diagonal, are stored
step-major, so each step of a sweep reads one contiguous slice.

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

# Entries per float64 scratch block (512 KiB), in three places.  _draw_rows
# draws the uniforms of this many entries' worth of whole rows at a time, for
# index rows (n entries a row) and diagonal rows (n d) alike, at least one
# row.  _diagonal_sweep takes this many entries' worth of whole steps (B d
# entries each) at a time, at least one step, so its (steps + 1, B, d)
# blocks of exponentials and of S terms hold at most _FILL_BLOCK + B d
# entries, or 2 B d when one step alone is larger.
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

    Rows are stored step-major, as the transpose of a C-contiguous buffer
    whose first axis is the step, so that the sweeps' per-step slice
    ``rows[:, k-1]`` is contiguous: a ``(B, n)`` uint16 index array holding
    the indices of ``e.sample_indices(stream, n)``, or a ``(B, n, d)`` array
    holding the values of ``e.sample_diagonal_values(stream, n)``.  Uniforms
    are drawn a few rows at a time into a small scratch block by
    :meth:`RngStream.fill_rows` and mapped as those methods map them.
    """
    B, finite = len(streams), e.is_finite_support
    buf = np.empty((n, B), dtype=np.uint16) if finite else np.empty((n, B, e.dim))
    width = n if finite else n * e.dim
    u = np.empty((max(1, min(B, _FILL_BLOCK // width)), width))
    for lo in range(0, B, len(u)):
        group = streams[lo : lo + len(u)]
        block = u[: len(group)]
        RngStream.fill_rows(group, block)
        if finite:
            buf[:, lo : lo + len(group)] = e.support_indices(block).T
        else:
            block *= e.high - e.low  # low + (high - low) * u, as sample_diagonal_values
            block += e.low
            buf[:, lo : lo + len(group)] = block.reshape(len(group), n, e.dim).swapaxes(0, 1)
    return buf.swapaxes(0, 1)


def _add_steps(block):
    """``block[0] + block[1] + ...`` entry by entry, added in step order.

    ``add.reduce`` over the leading axis adds one step at a time, as a
    per-step loop or ``cumsum`` does, except when that axis is the fastest:
    then numpy sums pairwise.  So a block of one entry per step takes
    ``cumsum``.
    """
    if block[0].size == 1:
        return np.cumsum(block, axis=0)[-1]
    return np.add.reduce(block, axis=0)


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


def _diagonal_sweep(kern, x, rows, want_s: bool, want_s_prime: bool):
    """The diagonal_uniform sweep, elementwise on ``(B, d)`` arrays.

    Every operator in sight is diagonal and the mean is a multiple of I, so
    P_j = e^{mid j/n} I and Q^j = (E e^{a/n})^j I.  A block of steps is taken
    at once: ``exp(vals / n)`` and the S and S' terms over the whole block,
    then ``v`` by ``multiply.reduce`` and ``s`` by :func:`_add_steps` over
    blocks whose row 0 is the running value, which multiply and add in the
    per-step loop's order.  The S' recurrence runs step by step in place.
    Each block's scratch holds about ``_FILL_BLOCK`` entries.
    """
    e = kern.ensemble
    n, (B, _, d) = kern.n, rows.shape
    mid = 0.5 * (e.low + e.high)
    pk = np.exp(mid * np.arange(n + 1) / n)
    qk = float(kern.q_powers[1][0, 0]) ** np.arange(n + 1)
    xv = np.asarray(x, dtype=float)
    steps = rows.swapaxes(0, 1)  # (n, B, d), contiguous for rows from _draw_rows
    size = max(1, _FILL_BLOCK // (B * d))
    ev = np.empty((size + 1, B, d))  # row 0: v; row 1 + r: e^{a_{hi-r}/n}
    sv = np.empty_like(ev) if want_s else None  # row 0: s; row 1 + r: step hi-r's term
    v = np.tile(xv, (B, 1))
    s = np.zeros((B, d)) if want_s else None
    u = np.zeros((B, d)) if want_s_prime else None
    for hi in range(n, 0, -size):
        lo = max(0, hi - size)
        cnt = hi - lo
        vals = steps[lo:hi][::-1]  # vals[r] = a_{hi-r}
        np.exp(vals / n, out=ev[1 : cnt + 1])
        if want_s or want_s_prime:
            dx = (vals - mid) * xv
        if want_s_prime:
            z = qk[n - hi : n - lo, None, None] * dx
            for r in range(cnt):
                np.multiply(ev[1 + r], u, out=u)
                np.add(u, z[r], out=u)
        if want_s:
            sv[0] = s
            np.multiply((pk[lo:hi][::-1] * pk[n - hi : n - lo])[:, None, None], dx,
                        out=sv[1 : cnt + 1])
            s = _add_steps(sv[: cnt + 1])
        ev[0] = v
        v = np.multiply.reduce(ev[: cnt + 1], axis=0)
    return v, s, u


def simulate_block(kern, x, rows, *, want_s: bool = False, want_s_prime: bool = False):
    """Run one chunk of replicates; returns per-row end states.

    Output dict keys: ``prod_x`` (B, d) always; ``s_x`` and ``s_prime_x``
    (B, d) when requested.  All downstream statistics are cheap functions of
    these plus kernel constants.  diagonal_uniform runs
    :func:`_diagonal_sweep` and finite support at d=1 :func:`_scalar_sweep`,
    which give the same bits as a per-step loop; finite support at d >= 2
    multiplies every step by the drawn support exponentials through
    :func:`_support_step`.
    """
    e = kern.ensemble
    n, d = kern.n, e.dim
    B = rows.shape[0]
    if not e.is_finite_support:
        v, s, u = _diagonal_sweep(kern, x, rows, want_s, want_s_prime)
    elif d == 1:
        v, s, u = _scalar_sweep(kern, x, rows, want_s, want_s_prime)
    else:
        v = np.tile(np.asarray(x, dtype=float), (B, 1))
        s = np.zeros((B, d)) if want_s else None
        u = np.zeros((B, d)) if want_s_prime else None
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
        steps = rows.swapaxes(0, 1)  # (n, B, d)
        for k in ks:
            delta = rows[:, k - 1, :] - mid
            d_rows = (pk[k - 1] * pk[n - k]) * (delta * xv)
            pref = np.exp(_add_steps(steps[: k - 1]) / n) if k >= 2 else 1.0
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
