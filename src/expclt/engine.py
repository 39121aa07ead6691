"""Batched replicate engine for the product-of-exponentials dynamics.

Everything here is an internal performance layer: the public semantics live
in :mod:`expclt.dynamics`, and each batched routine mirrors a single-replicate
reference implementation there.  The key structural property is that every
replicate row is computed from its own keyed stream with row-local numpy
operations only: its uniforms come from its own stream and map to support
indices or diagonal values elementwise.  There are two sweeps, one per
algebra.  Where every draw acts entrywise (finite support at d=1,
diagonal_uniform), :func:`_elementwise_sweep` takes a block of steps at
once: ``multiply.reduce`` and ``add.reduce`` over blocks whose row 0 is the
running product or sum, in the per-step order.  Finite support at d >= 2
multiplies matrices: a step over at most ``_STACKED_MAX_SUPPORT`` support
matrices is one GEMM against all of them plus a per-row selection
(:func:`_support_step`), whose rows have the same bits in any part of two
or more rows (a property of the BLAS, which the chunk-width tests check);
larger supports gather each row's matrix and multiply per row.  So results
are bitwise identical for any batch size, chunking, or worker count.  Draw
rows, index or diagonal, are stored step-major, so each step of a sweep
reads one contiguous slice.

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

# Entries per float64 scratch block of _draw_rows (512 KiB): it draws the
# uniforms of this many entries' worth of whole rows at a time, for index
# rows (n entries a row) and diagonal rows (n d) alike, at least one row.
_FILL_BLOCK = 65_536

# Entries per block of _elementwise_sweep (256 KiB of float64): it takes this
# many entries' worth of whole steps (B d entries each) at a time, at least
# one step, so its (steps + 1, B d) blocks of factors and of S terms hold at
# most _SWEEP_BLOCK + B d entries, or 2 B d when one step alone is larger.
# At the criterion-1 chunk width (B = 512, d = 1) a block is 64 steps; at
# twice this size that plain sweep took 24 ms a chunk against 7 ms (2-core
# x86 host, one BLAS thread).
_SWEEP_BLOCK = 32_768

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


def _support_terms(kern, x, rows, want_s: bool, want_s_prime: bool):
    """:func:`_elementwise_sweep`'s ``fill`` for finite support at d=1: the
    drawn ``e^{a_s/n}`` and the drawn entries of the :func:`_s_tables`."""
    n = kern.n
    ev = np.array([float(m[0, 0]) for m in kern.exps])
    # flat tables: take at flat positions gathers faster than fancy indexing
    ws, zs = (None if t is None else t.reshape(-1)
              for t in _s_tables(kern, x, want_s, want_s_prime))
    steps = rows.T  # (n, B), contiguous for rows from _draw_rows

    def fill(lo, hi, f, w):
        idx = steps[lo:hi][::-1]  # idx[r]: the indices drawn at step hi - r
        ev.take(idx, out=f)
        if w is None and zs is None:
            return None
        # the flat position of entry (idx[r], k - 1) for step k = hi - r
        at = n * idx.astype(np.intp) + np.arange(hi - 1, lo - 1, -1)[:, None]
        if w is not None:
            ws.take(at, out=w)
        return None if zs is None else zs.take(at)
    return fill


def _diagonal_terms(kern, x, rows, want_s: bool, want_s_prime: bool):
    """:func:`_elementwise_sweep`'s ``fill`` for diagonal_uniform, in closed
    form: every operator in sight is diagonal and the mean is a multiple of
    I, so P_j = e^{mid j/n} I and Q^j = (E e^{a/n})^j I."""
    e, n = kern.ensemble, kern.n
    mid = 0.5 * (e.low + e.high)
    pk = np.exp(mid * np.arange(n + 1) / n)
    qk = float(kern.q_powers[1][0, 0]) ** np.arange(n + 1)
    xv = np.tile(np.asarray(x, dtype=float), rows.shape[0])  # x in every row
    steps = rows.swapaxes(0, 1).reshape(n, -1)  # (n, B d), a view for rows from _draw_rows

    def fill(lo, hi, f, w):
        vals = steps[lo:hi][::-1]  # vals[r] = a_{hi-r}
        np.exp(vals / n, out=f)
        dx = (vals - mid) * xv if w is not None or want_s_prime else None
        if w is not None:
            np.multiply((pk[lo:hi][::-1] * pk[n - hi : n - lo])[:, None], dx, out=w)
        return qk[n - hi : n - lo, None] * dx if want_s_prime else None
    return fill


def _elementwise_sweep(kern, x, rows, want_s: bool, want_s_prime: bool):
    """The sweep of a law whose draws act entrywise, on flat ``(B d,)`` state.

    The family's ``fill(lo, hi, f, w)`` writes the factors of steps hi,
    hi-1, ..., lo+1 into ``f`` and their S terms into ``w`` (None without S),
    and returns their S' inputs.  ``multiply.reduce`` and :func:`_add_steps`
    over blocks whose row 0 is the running v or s then multiply and add in
    the per-step loop's order; the S' recurrence runs step by step in place.
    """
    e, B = kern.ensemble, rows.shape[0]
    fill = (_support_terms if e.is_finite_support else _diagonal_terms)(
        kern, x, rows, want_s, want_s_prime)
    size = max(1, _SWEEP_BLOCK // (B * e.dim))
    ev = np.empty((size + 1, B * e.dim))  # row 0: v; row 1 + r: step hi-r's factor
    sv = np.empty_like(ev) if want_s else None  # row 0: s; row 1 + r: step hi-r's term
    v = np.tile(np.asarray(x, dtype=float), B)
    s = np.zeros_like(v) if want_s else None
    u = np.zeros_like(v) if want_s_prime else None
    for hi in range(kern.n, 0, -size):
        lo = max(0, hi - size)
        cnt = hi - lo
        z = fill(lo, hi, ev[1 : cnt + 1], sv[1 : cnt + 1] if want_s else None)
        if want_s_prime:
            for r in range(cnt):
                np.multiply(ev[1 + r], u, out=u)
                np.add(u, z[r], out=u)
        if want_s:
            sv[0] = s
            s = _add_steps(sv[: cnt + 1])
        ev[0] = v
        v = np.multiply.reduce(ev[: cnt + 1], axis=0)
    return tuple(None if a is None else a.reshape(B, e.dim) for a in (v, s, u))


def simulate_block(kern, x, rows, *, want_s: bool = False, want_s_prime: bool = False):
    """Run one chunk of replicates; returns per-row end states.

    Output dict keys: ``prod_x`` (B, d) always; ``s_x`` and ``s_prime_x``
    (B, d) when requested.  All downstream statistics are cheap functions of
    these plus kernel constants.  A law whose draws act entrywise (finite
    support at d=1, diagonal_uniform) runs :func:`_elementwise_sweep`, which
    gives the same bits as a per-step loop; finite support at d >= 2
    multiplies every step by the drawn support exponentials through
    :func:`_support_step`.
    """
    e = kern.ensemble
    n, d = kern.n, e.dim
    B = rows.shape[0]
    if not e.is_finite_support or d == 1:
        v, s, u = _elementwise_sweep(kern, x, rows, want_s, want_s_prime)
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
