"""Batched replicate engine for the product-of-exponentials dynamics.

Everything here is an internal performance layer: the public semantics live
in :mod:`expclt.dynamics`, and each batched routine mirrors a
single-replicate reference implementation there.  The key structural
property is that every replicate row is computed from its own words of the
pass's keyed stream by arithmetic whose bits depend on that row alone: its
words map to support indices or diagonal values elementwise.
There are two paths, one per algebra, picked by :func:`_entrywise` for
sweeps and difference pairs alike.  Where every draw acts entrywise (finite
support at d=1, diagonal_uniform), the draws commute, so the product is the
exponential of their sum T_n of centered draws, which also gives the S term;
only the S' recurrence runs step by step (:func:`_elementwise_sweep`).  At
d=1 the sum is T_n = sum_j c_j Δ_j over the row's index counts c_j, added in
index order (:func:`_count_sums`), whatever route the counts take: a pass
that does not want S' draws no rows, and turns each block of words straight
into per-row counts (:func:`_draw_counts`); a martingale pass counts the
rows it draws.  A support larger than n is counted sparsely, over each
row's sorted indices, with the same bits.
Diagonal draws are summed in step order by ``add.reduce`` over blocks whose
row 0 is the sum so far.  Finite support at d >= 2 multiplies matrices
(:func:`_grouped_sweep`): at every step the rows are sorted by the support
index they drew, and each group is multiplied by its own support exponential
in GEMMs of exactly ``_TILE`` rows.  The row count is fixed because the BLAS
rounds a GEMM row by the number of rows in its call: with OpenBLAS 0.3.31 at
d >= 32, a row multiplied in a 3-row call and in a 64-row call differs in
its last bits, while calls of one row count give a row the same bits
whatever its position or neighbours (checked at d = 2..69, 80, 96, 100,
127..129, 200, 256 and 512 with one BLAS thread; the chunk-width tests check
it at d up to 49).  So results are bitwise identical for any batch size,
chunking, or worker count.  With two OpenBLAS threads, at some d from 126 on
(126, 127, 129 and 300 among those tried), a 64-row call is split between
them and a row's bits depend on its place in the call, so there this holds
with one BLAS thread only.  Draw rows, index or diagonal, are stored
step-major, so each step of a sweep reads one contiguous slice.

The one Monte Carlo pass, :func:`simulate_paths`, is the replicate driver:
:func:`chunk_ranges` fixes the chunks from the problem shape alone, each
chunk draws its rows, or its index counts, from its own replicates' words
of the pass stream, and :func:`concat_chunks` joins the chunk results in
index order.  A martingale chunk sweeps its rows once: the sweep of
:func:`simulate_block` also carries the prefix states of the difference
pairs at the :func:`probe_steps` of n (three more planes of the grouped
sweep; for an entrywise law, the running sums T_{k-1} that its walk to T_n
passes), and :func:`diff_pair_block` makes the pairs from them.  Each result
is reduced row by row, so one pass serves every statistic.  Chunks of the
grouped sweep are narrow enough for its state planes to stay in L2.

Per chunk of B replicates and one k-sweep (k = n .. 1) the engine updates

    v <- exp(A_k/n) v                    (the random product, right to left)
    s <- s + P_{k-1} (A_k - EA) P_{n-k} x   (gathered from a per-(i,k) table)
    u <- z_k + exp(A_k/n) u              (backward recurrence, so that
                                          u_1 = sum_k Pref_{k-1} z_k)
    w_j <- exp(A_k/n) w_j for k < j      (one per probe step j, started at
                                          z_j: it ends as Pref_{j-1} z_j)

which yields xi_n x, S_n x, S'_n x, R_n x, M_n x and the difference pairs
in O(n d^2) per row.
An entrywise law sweeps u alone: with T = sum_k (a_k - EA) its product is
p_n e^{T/n} x and its S term p_{n-1} T x, where P_j = p_j I.  The chunk's
tally for the structure check comes from the same pass: index counts for
finite support, each row's T for a diagonal law.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batch_size",
    "probe_steps",
    "pass_bytes",
    "chunk_ranges",
    "concat_chunks",
    "simulate_block",
    "simulate_paths",
    "diff_pair_block",
    "diff_dots",
]

# Replicate rows per chunk: keep the per-chunk draw buffer near 2^21 entries
# (16 MiB of float64 for diagonal draws, 4 MiB of uint16 for indices).
_CHUNK_TARGET = 2_097_152

# Entries per block of _draw_rows: it draws this many entries' worth of whole
# rows at a time, for index rows (n entries a row) and diagonal rows (n d)
# alike, at least one row: 256 KiB of words, one an entry.
_FILL_BLOCK = 65_536

# Entries per block of an entrywise law's running sums and S' factors
# (256 KiB of float64): each takes this many entries' worth of whole steps
# (B d entries each) at a time, at least one step, so a (steps + 1, B d)
# block holds at most _SWEEP_BLOCK + B d entries, or 2 B d when one step
# alone is larger. At the criterion-1 chunk width (B = 512, d = 1) a block is
# 64 steps; twice this size was no faster on that chunk (13-16 ms) or on a
# d = 8, n = 1024 diagonal one (2-core x86 host, one BLAS thread).
_SWEEP_BLOCK = 32_768

# Replicate-steps per block of _tile_layout (16384 entries: 128 KiB for each
# of its intp arrays), at least one step; twice that raised the fs16
# benchmark pass's traced peak by 0.6 MiB and was no faster.
_LAYOUT_BLOCK = 16_384

# Entries of the support matrices that one matmul call of the grouped sweep
# gathers, one per tile (2 MiB of float64), at least one matrix.  Every tile
# of a fs16-shaped step fits one call; at d = 256 and 8192 rows a step's 130
# tiles would otherwise copy 68 MiB of matrices.
_GEMM_BLOCK = 262_144

# Rows times d of a grouped sweep's chunk.  A martingale chunk sweeps five
# state planes (v, u and three prefix states), held twice, as the source and
# the target of each step's GEMMs: at d = 16, m = 4 and 1,024 rows they take
# 1.5 MiB, which fits a 2 MiB L2.  A chunk keeps at least 16 tiles of rows:
# narrower chunks pad more of their tiles and repeat each step's fixed costs
# more often.  On a 2-core x86 host (2 MiB L2 a core, one BLAS thread), best
# of 5 to 9 martingale passes: d = 16, n = 512, 2,000 rows took 133 ms in
# chunks of 1,000 against 150 ms in one; d = 3 ran as fast in chunks of
# 5,461 rows as of 8,192; and a cap of 2^14 / d rows alone, 496 at d = 33
# and 256 at d = 64, was 10-27% slower than chunks of 1,000.
_GROUPED_ENTRIES = 16_384

# Rows per BLAS call of the grouped sweep.  OpenBLAS rounds a GEMM row by
# the number of rows in its call (at d >= 32, a 3-row product differs from a
# 64-row one), so every call the sweep makes has exactly _TILE rows.
_TILE = 64


def batch_size(e, n: int) -> int:
    """Deterministic chunk width; a pure function of the problem shape only.
    A :func:`_grouped_sweep` chunk also keeps to ``_GROUPED_ENTRIES // d``
    rows, and at least ``16 * _TILE``."""
    width = min(8192, _CHUNK_TARGET // max(1, n * e.entries_per_draw))
    if not _entrywise(e):
        width = min(width, max(16 * _TILE, _GROUPED_ENTRIES // e.dim))
    return max(32, width)


def probe_steps(n: int) -> list:
    """The steps k at which a martingale pass takes its difference pairs and
    the suites probe d_{n,k}: 1, ceil(n/2) and n, sorted and distinct."""
    return sorted({1, (n + 1) // 2, n})


def pass_bytes(e, n: int) -> tuple:
    """Bytes of a pass's largest arrays besides its kernel: the (m, n, d) S and S'
    tables unless :func:`_entrywise`, its widest chunk of draws as float64, and
    that chunk's tally rows, (1, m) index counts or a (1, d) sum a replicate."""
    width = batch_size(e, n)
    tables = 0 if _entrywise(e) else 16 * len(e.support) * n * e.dim
    tally = 8 * len(e.support) if e.is_finite_support else 8 * width * e.dim
    return tables, 8 * width * n * e.entries_per_draw, tally


def chunk_ranges(e, n: int, reps: int) -> list:
    """Replicate ranges ``[lo, hi)`` of a pass: ceil(reps / batch_size) chunks, widths within 1."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    count = -(-reps // batch_size(e, n))
    return [(reps * i // count, reps * (i + 1) // count) for i in range(count)]


def concat_chunks(parts) -> dict:
    """Per-chunk dicts of row arrays joined into one dict, in chunk order."""
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _draw_rows(e, stream, n: int, lo: int, hi: int):
    """The rows of n draws of replicates ``[lo, hi)`` of the pass ``stream``,
    as :meth:`Ensemble.draws` gives them: replicate i draws the words
    ``[i W, (i + 1) W)`` of the stream, W = ``n * e.entries_per_draw``.

    Rows are stored step-major, as the transpose of a C-contiguous buffer
    whose first axis is the step, so that the sweeps' per-step slice
    ``rows[:, k-1]`` is contiguous: a ``(B, n)`` uint16 index array, or a
    ``(B, n, d)`` array of diagonal entries.  The rows are drawn in blocks of
    whole rows of at most ``_FILL_BLOCK`` entries (at least one row), one
    :meth:`Ensemble.draws` call, so one stream positioning, per block.
    """
    stream = stream.at(lo * n * e.entries_per_draw)
    size = max(1, _FILL_BLOCK // (n * e.entries_per_draw))
    empty = e.draws(stream, 0)  # no draws, but their shape and dtype
    shape = empty.shape[1:]
    buf = np.empty((n, hi - lo) + shape, dtype=empty.dtype)
    for a in range(0, hi - lo, size):
        b = min(a + size, hi - lo)
        buf[:, a:b] = e.draws(stream, (b - a) * n).reshape(b - a, n, *shape).swapaxes(0, 1)
    return buf.swapaxes(0, 1)


def _counted(e) -> bool:
    """Whether a row's draws enter its product and S term through its index
    counts alone: finite support at d=1, whose draws commute."""
    return e.is_finite_support and e.dim == 1


def _sparse(e, n: int) -> bool:
    """Whether rows of n index draws are counted sparsely, as their sorted
    indices: the support has more than n matrices, so most counts are 0."""
    return len(e.support) > n


def _draw_counts(e, stream, n: int, lo: int, hi: int):
    """The index counts of replicates ``[lo, hi)`` of the pass ``stream``, a
    :func:`_counted` law's, straight from their words: each block of whole
    rows that :func:`_draw_rows` would draw becomes its rows'
    :meth:`Ensemble.index_counts`, a ``(B, m)`` array, or where
    :func:`_sparse` each row's support indices, sorted."""
    stream = stream.at(lo * n)  # one word a draw
    size = max(1, _FILL_BLOCK // n)
    parts = []
    for a in range(lo, hi, size):
        words = stream.words((min(a + size, hi) - a) * n).reshape(-1, n)
        # sorted words map to sorted indices, and binary-search faster
        parts.append(e.support_indices(np.sort(words, axis=1)) if _sparse(e, n)
                     else e.index_counts(words))
    return np.concatenate(parts)


def _row_counts(e, rows):
    """The counts of the ``(B, n)`` index ``rows`` in the form that
    :func:`_draw_counts` gives: per-row index counts, or where
    :func:`_sparse` each row sorted.  The counts come from one bincount per
    block of ``_FILL_BLOCK`` entries (at least one row and one step), each
    index offset by m times its row in the block.  A block holds whole
    steps of at most ``_FILL_BLOCK // m`` rows, so it has no more bins than
    entries."""
    B, n = rows.shape
    if _sparse(e, n):  # a contiguous copy sorts in half the time of step-major rows
        return np.sort(np.ascontiguousarray(rows), axis=1)
    m = len(e.support)
    steps = rows.T  # contiguous for rows from _draw_rows
    counts = np.zeros((B, m), dtype=np.int64)
    width = max(1, _FILL_BLOCK // m)
    for a in range(0, B, width):
        block = steps[:, a : a + width]
        r = block.shape[1]
        offsets, size = m * np.arange(r), max(1, _FILL_BLOCK // r)
        for lo in range(0, n, size):
            counts[a : a + r] += np.bincount((block[lo : lo + size] + offsets).ravel(),
                                             minlength=r * m).reshape(r, m)
    return counts


def _count_sums(e, counts):
    """T_n = sum_j c_j Δ_j of each row of a :func:`_counted` law, c_j its count
    of index j, and the chunk's ``(1, m)`` tally, from the ``counts`` of
    :func:`_draw_counts` or :func:`_row_counts`: ``(B, m)`` int64 counts, or
    in the sparse form ``(B, n)`` uint16 support indices sorted per row.

    Each row's terms are added in index order, starting from +0.0, by
    :func:`_add_steps` over a block of whole rows' terms (``_FILL_BLOCK``
    of them, at least one row), place-major, whose row 0 is zero.  The
    sparse form adds c_j Δ_j at the last place of each index j in the
    sorted row and 0 Δ_j = ±0 at its other places, and skips the indices
    the row did not draw, whose dense terms are ±0 too.  A sum that starts
    at +0.0 never becomes -0.0, so a ±0 term leaves it as it is, and the
    two forms give the same bits.
    """
    dv = e._deltas.reshape(-1)
    (B, K), sparse = counts.shape, counts.dtype == np.uint16
    t, tally = np.empty(B), 0
    places = np.arange(1, K + 1, dtype=np.int32)[:, None]
    size = max(1, _FILL_BLOCK // K)
    for a in range(0, B, size):
        block = counts[a : a + size].T  # place-major
        terms = np.zeros((K + 1, block.shape[1]))  # row 0: the +0.0 the sums start from
        if sparse:
            idx = np.ascontiguousarray(block)
            last = np.ones(idx.shape, dtype=bool)  # where a run of one index ends
            np.not_equal(idx[1:], idx[:-1], out=last[:-1])
            runs = np.zeros(idx.shape, dtype=np.int32)  # the places up to the run before's end
            np.multiply(last[:-1], places[:-1], out=runs[1:])
            np.maximum.accumulate(runs, axis=0, out=runs)
            np.subtract(places, runs, out=runs)
            np.multiply(runs, last, out=runs)  # a run's length at its end, 0 elsewhere
            np.multiply(runs, dv.take(idx), out=terms[1:])
            tally = tally + np.bincount(idx.ravel(), minlength=len(dv))
        else:
            np.multiply(block, dv[:, None], out=terms[1:])
            tally = tally + block.sum(axis=1)
        t[a : a + size] = _add_steps(terms)
    return t, tally[None]


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


def _s_tables(kern, x):
    """Per-(support index, step) gather tables for the S and S' recurrences.

    ws[i, k-1] = P_{k-1} (A_i - EA) P_{n-k} x   (so S_n x = ws-sum / sqrt(n))
    zs[i, k-1] = (A_i - EA) Q^{n-k} x           (backward-recurrence input)
    """
    n = kern.n
    deltas = kern.ensemble._deltas  # (m, d, d)
    px = np.einsum("kij,j->ki", kern.p_powers, x)  # P_j x
    mid = np.einsum("mij,kj->mki", deltas, px[n - 1 :: -1])  # delta_i P_{n-k} x
    ws = np.einsum("kij,mkj->mki", kern.p_powers[:n], mid)
    qx = np.einsum("kij,j->ki", kern.q_powers, x)  # Q^j x
    zs = np.einsum("mij,kj->mki", deltas, qx[n - 1 :: -1])
    return ws, zs


def _tile_layout(idx, m: int, prev):
    """Where each replicate's row sits at each of a block of grouped steps.

    ``idx`` holds the support indices drawn at S consecutive steps, one row a
    step in sweep order, and ``prev`` the slot of each replicate before the
    first of them.  At every step the replicates are stable-sorted by the
    index they drew, and each group fills whole tiles of ``_TILE`` slots from
    the front, so a tile holds rows of one group only.  Returns the slot of
    each replicate after the last step; per step, the tile count and the
    previous slot that fills each slot (a slot past its group's rows takes
    slot 0, which always holds a row); the group of every tile, all steps'
    tiles in one array; and the ``(m,)`` count of each index over the steps.
    """
    S, B = idx.shape
    T = _TILE
    step = np.arange(S)[:, None]
    # sorted position i of row r is flat position B r + i: takes and puts on
    # raveled arrays run several times faster than take_along_axis
    order = np.argsort(idx, axis=1, kind="stable")
    order += B * step
    counts = np.bincount((idx + m * step).ravel(), minlength=S * m).reshape(S, m)
    tiles = -(-counts // T)
    # the slot of sorted position i in group s is i + first[s]
    first = T * (np.cumsum(tiles, axis=1) - tiles) - (np.cumsum(counts, axis=1) - counts)
    pos = np.repeat(first.ravel(), counts.ravel()).reshape(S, B) + np.arange(B)
    slots = np.empty((S + 1, B), dtype=np.intp)  # row 0: prev; row 1 + r: after step r
    slots[0] = prev
    slots[1:].ravel()[order] = pos
    ntiles = tiles.sum(axis=1)
    width = T * int(ntiles.max())
    fill = np.zeros((S, width), dtype=np.intp)
    fill.ravel()[slots[1:] + width * step] = slots[:-1]
    group = np.repeat(np.tile(np.arange(m), S), tiles.ravel())
    return slots[-1], ntiles.tolist(), fill, group, counts.sum(axis=0)


def _grouped_sweep(kern, x, rows, *, want_v: bool, want_s_prime: bool, ks=()):
    """The sweep of finite support at d >= 2, grouped by the drawn index.

    Returns the end states asked for, in replicate order: ``v`` (the product
    applied to x) with ``want_v``, ``s`` and ``u`` with ``want_s_prime``, as in
    :func:`simulate_block`; the ``(1, m)`` tally of the indices drawn at the
    steps swept, all n of them when it multiplies v or u; and a dict of
    ``pref[k]``, the prefix product e^{A_1/n} ... e^{A_{k-1}/n} applied to
    (A_k - EA) Q^{n-k} x, for each k in ``ks``: a state that starts at zero
    and has z_k added at step k, as u has every z_k.

    The states are planes of one array, their rows laid out in tiles of
    ``_TILE`` rows by :func:`_tile_layout`.  Each step gathers the planes into
    its own layout and multiplies every tile by its group's E_s^T in matmuls
    over stacks of tiles (one call per ``_GEMM_BLOCK`` entries of gathered
    matrices), a GEMM of exactly ``_TILE`` rows each.
    Rows past a group's end repeat another row and are never read back.  A
    GEMM row's bits depend on its own values and on the row count of its
    call, not on the rows beside it, so no output depends on the chunk.  S is
    summed in replicate order.  The difference planes come by descending k,
    so the planes a step multiplies are always the leading ``live`` ones.
    """
    e, n = kern.ensemble, kern.n
    d, B, T = e.dim, rows.shape[0], _TILE
    # E_s^T, C-contiguous: as a transposed view the GEMM took twice as long
    ets = np.ascontiguousarray(kern.exps.transpose(0, 2, 1))
    m = len(ets)
    ws, zs = _s_tables(kern, x) if want_s_prime else (None, None)
    ks = sorted(set(ks), reverse=True)
    zk = [e._deltas @ (kern.q_powers[n - k] @ x) for k in ks]  # (m, d) each
    live = want_v + want_s_prime  # planes multiplied at the current step
    planes = live + len(ks)
    start = np.zeros((live, d))  # every row starts as v = x, u = 0
    if want_v:
        start[0] = x
    state = np.broadcast_to(start[:, None], (live, B, d))  # in replicate order
    slot, tally = np.arange(B), 0
    s = np.zeros((B, d)) if want_s_prime else None
    widest = T * (-(-B // T) + min(m, B))  # slots of any layout
    # a plane started at step 1 is never multiplied, so never gathered
    src, dst = np.empty((planes - (1 in ks)) * widest * d), np.empty(planes * widest * d)
    steps = rows.T  # (n, B), contiguous for rows from _draw_rows
    size = max(1, _LAYOUT_BLOCK // max(B, m))
    per_call = max(1, _GEMM_BLOCK // (d * d))  # tiles per matmul call
    nxt = 0  # the next difference plane to start
    for hi in range(n if live else ks[0], 0, -size):
        lo = max(0, hi - size)
        slot, ntiles, fill, group, counts = _tile_layout(steps[lo:hi][::-1], m, slot)
        tally = tally + counts
        t0 = 0
        for r, k in enumerate(range(hi, lo, -1)):
            nt = ntiles[r]
            g = group[t0 : t0 + nt]
            t0 += nt
            grow = nxt < len(ks) and ks[nxt] == k
            out = dst[: (live + grow) * nt * T * d].reshape(live + grow, nt, T, d)
            if live:
                tiles = src[: live * nt * T * d].reshape(live, nt * T, d)
                np.take(state, fill[r, : nt * T], axis=1, out=tiles, mode="clip")
                tiles = tiles.reshape(live, nt, T, d)
                for a in range(0, nt, per_call):
                    np.matmul(tiles[:, a : a + per_call], ets.take(g[a : a + per_call], axis=0),
                              out=out[:live, a : a + per_call])
            if want_s_prime:
                out[int(want_v)] += zs[:, k - 1].take(g, axis=0)[:, None]
            if grow:
                out[live] = zk[nxt].take(g, axis=0)[:, None]
                live, nxt = live + 1, nxt + 1
            state = out.reshape(live, nt * T, d)
            if want_s_prime:
                s += ws[:, k - 1].take(steps[k - 1], axis=0)
    ends = list(np.take(state, slot, axis=1))  # back to replicate order
    v = ends.pop(0) if want_v else None
    u = ends.pop(0) if want_s_prime else None
    return v, s, u, tally[None], dict(zip(ks, ends))


def _entrywise(e) -> bool:
    """Whether every draw acts entrywise: finite support at d=1, diagonal_uniform."""
    return not e.is_finite_support or e.dim == 1


def _entrywise_terms(kern, rows):
    """``centered``, ``factors`` and ``running`` of an :func:`_entrywise` law,
    on flat ``(B d,)`` rows.

    ``centered(lo, hi)`` gives Δ = a - EA and ``factors(lo, hi, out)`` writes
    e^{a/n} for the steps lo+1, ..., hi, one row a step, where a is a step's
    drawn entries.  ``running(counts)`` gives the running sum of the centered
    draws, T_c = Δ_1 + ... + Δ_c, added in step order, for each of the
    ascending ``counts``: a block of steps at a time, whose row 0 is the sum
    so far.  At d=1 the rows hold support indices, and Δ and e^{a/n} are
    gathered from per-index tables.
    """
    e, n = kern.ensemble, kern.n
    steps = rows.swapaxes(0, 1).reshape(n, -1)  # (n, B d), a view for rows from _draw_rows
    if e.is_finite_support:
        ev, dv = kern.exps.reshape(-1), e._deltas.reshape(-1)
        factors = lambda lo, hi, out: ev.take(steps[lo:hi], out=out)
        centered = lambda lo, hi, out=None: dv.take(steps[lo:hi], out=out)
    else:
        mean = e.mean()[0, 0]
        factors = lambda lo, hi, out: np.exp(steps[lo:hi] / n, out=out)
        centered = lambda lo, hi, out=None: np.subtract(steps[lo:hi], mean, out=out)

    def running(counts):
        width = steps.shape[1]
        size = max(1, _SWEEP_BLOCK // width)
        acc = np.zeros((size + 1, width))  # row 0: T so far; row 1 + r: Δ of step lo+1+r
        sums, done = np.empty((len(counts), width)), 0
        for i, c in enumerate(counts):
            for lo in range(done, c, size):
                hi = min(lo + size, c)
                centered(lo, hi, acc[1 : hi - lo + 1])
                acc[0] = _add_steps(acc[: hi - lo + 1])
            sums[i], done = acc[0], c
        return sums
    return centered, factors, running


def _sum_ends(kern, x, t):
    """``prod_x`` = p_n e^{T/n} x and ``s_x`` = p_{n-1} T x of an
    :func:`_entrywise` law, as ``(B, d)`` rows, from the flat ``(B d,)`` sums
    T = T_n of the centered draws."""
    n, d = kern.n, kern.ensemble.dim
    p = kern.p_powers[:, 0, 0]
    xt = np.tile(np.asarray(x, dtype=float), t.size // d)  # x in every row
    v = np.exp(t / n) * (p[n] * xt)
    s = p[n - 1] * (t * xt)
    return v.reshape(-1, d), s.reshape(-1, d)


def _elementwise_sweep(kern, x, rows, want_s_prime: bool):
    """The sweep of an :func:`_entrywise` law, on flat ``(B d,)`` state.

    The draws commute, so the product is p_n e^{T_n/n} x and the S term
    p_{n-1} T_n x, both from T_n, the sum of the centered draws
    (P_{k-1} Δ_k P_{n-k} = p_{n-1} Δ_k): at d=1 from the rows' index counts
    (:func:`_count_sums`), and for diagonal draws their running sum, which
    is also the tally.  With ``want_s_prime`` only the S' recurrence runs
    step by step (:func:`_backward_sum`), and the prefix states at the
    :func:`probe_steps` of n come from the running sums T_{k-1}; for
    diagonal draws the walk that gives T_n passes them on its way.  The
    recurrence runs first, so that its blocks are freed before the sums are
    taken: with the sums held through it, a worker of the diag8 benchmark
    workload peaked 0.3 MiB higher.  Returns v, s, u (None without
    ``want_s_prime``), the tally, and the prefixes (None without
    ``want_s_prime``).
    """
    e, n, B = kern.ensemble, kern.n, rows.shape[0]
    centered, factors, running = _entrywise_terms(kern, rows)
    u = xt = None
    if want_s_prime:
        xt = np.tile(np.asarray(x, dtype=float), B)  # x in every row
        u = _backward_sum(kern, xt, centered, factors).reshape(B, e.dim)
    ks = probe_steps(n) if want_s_prime else []
    if _counted(e):
        t, tally = _count_sums(e, _row_counts(e, rows))
        sums = running([k - 1 for k in ks])
    else:
        *sums, t = running([k - 1 for k in ks] + [n])
        tally = t.reshape(B, e.dim)
    v, s = _sum_ends(kern, x, t)
    pref = _entrywise_prefixes(kern, xt, centered, ks, sums) if want_s_prime else None
    return v, s, u, tally, pref


def _backward_sum(kern, xt, centered, factors):
    """u_1 = sum_k e^{a_1/n} ... e^{a_{k-1}/n} Δ_k Q^{n-k} x of an
    :func:`_entrywise` law, flat, by the recurrence u <- z_k + e^{a_k/n} u
    for k = n .. 1 over blocks of factors; ``xt`` is x in every row."""
    n = kern.n
    q = kern.q_powers[:, 0, 0]
    u = np.zeros_like(xt)
    size = max(1, _SWEEP_BLOCK // xt.size)
    f = np.empty((size, xt.size))  # row r: the factor of step lo+1+r
    for hi in range(n, 0, -size):
        lo = max(0, hi - size)
        factors(lo, hi, f[: hi - lo])
        z = np.multiply(q[n - hi : n - lo][::-1, None], xt)  # Q^{n-k} x
        z *= centered(lo, hi)
        for r in range(hi - lo - 1, -1, -1):
            np.multiply(f[r], u, out=u)
            np.add(u, z[r], out=u)
    return u


def _entrywise_prefixes(kern, xt, centered, ks, sums):
    """The prefix states of an :func:`_entrywise` law, as ``(B, d)`` rows:
    p_{k-1} e^{T_{k-1}/n} Δ_k Q^{n-k} x for each k of the ascending ``ks``,
    from ``sums``, the flat running sums T_{k-1} of :func:`_entrywise_terms`,
    and ``xt``, x in every row, flat."""
    n = kern.n
    p, q = kern.p_powers[:, 0, 0], kern.q_powers[:, 0, 0]
    out = {}
    for k, t in zip(ks, sums):
        z = centered(k - 1, k)[0] * (q[n - k] * xt)  # Δ_k Q^{n-k} x
        out[k] = (p[k - 1] * np.exp(t / n) * z).reshape(-1, kern.ensemble.dim)
    return out


def simulate_block(kern, x, rows, *, want_s_prime: bool = False):
    """Run one chunk of replicates; returns per-row end states.

    Output dict keys: ``prod_x`` (B, d) always; with ``want_s_prime``, the
    martingale pass's ``s_x`` and ``s_prime_x`` (B, d), ``tally``, rows
    that :meth:`Ensemble.centered_total` adds up: the chunk's (1, m) index
    counts for finite support, each row's sum of centered draws for a
    diagonal law, and ``prefixes``, for each of the :func:`probe_steps` k of
    n the (B, d) rows of e^{A_1/n} ... e^{A_{k-1}/n} (A_k - EA) Q^{n-k} x
    that :func:`diff_pair_block` takes, from the same sweep.  All downstream
    statistics are cheap functions of these plus kernel constants.  An
    :func:`_entrywise` law (finite support at d=1, diagonal_uniform) runs
    :func:`_elementwise_sweep`, whose sums give the same bits as a per-step
    loop of theirs; finite support at d >= 2 runs :func:`_grouped_sweep`.
    """
    if _entrywise(kern.ensemble):
        v, s, u, tally, pref = _elementwise_sweep(kern, x, rows, want_s_prime)
    else:
        ks = probe_steps(kern.n) if want_s_prime else ()
        v, s, u, tally, pref = _grouped_sweep(kern, x, rows, want_v=True,
                                              want_s_prime=want_s_prime, ks=ks)
    if not want_s_prime:
        return {"prod_x": v}
    return {"prod_x": v, "s_x": s, "s_prime_x": u, "tally": tally, "prefixes": pref}


def simulate_paths(e, kern, x, y, stream, reps: int, *, first: int = 0,
                   want_s_prime: bool = False):
    """All requested per-replicate statistics of the replicates ``first`` to
    ``first + reps - 1`` of the pass ``stream``.

    Replicate i draws the words ``[i W, (i + 1) W)`` of ``stream``, W =
    ``n * e.entries_per_draw``, wherever the stream stands; chunking is
    internal and cannot affect any output bit.

    Returns a dict of float arrays of length ``reps``: ``proj_xi`` = <y, xi_n
    x>; with ``want_s_prime``, the martingale pass, also ``diff_norm`` =
    ||xi_n x - S_n x||, ``r_norm`` = ||R_n x|| and ``mk_norm`` = ||M_n x||,
    ``tally``, the stacked :func:`simulate_block` tally rows of its chunks,
    and the :func:`diff_dots` of the difference pairs at the
    :func:`probe_steps` of n.  Each chunk sweeps its rows once: the
    :func:`diff_pair_block` call of a martingale chunk takes the prefix
    states that :func:`simulate_block` swept, with the bits that its own
    sweep would give.  A :func:`_counted` pass without S' draws no rows:
    each chunk's index counts come straight from its words
    (:func:`_draw_counts`), with the bits of its rows' counts.
    """
    n = kern.n
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    root_n = np.sqrt(float(n))
    ex_x = kern.p_powers[n] @ x  # e^{EA} x
    qn_x = kern.q_powers[n] @ x  # (E e^{A/n})^n x
    counted = _counted(e) and not want_s_prime

    def stats(lo, hi):
        if counted:
            t, _ = _count_sums(e, _draw_counts(e, stream, n, lo, hi))
            block = {"prod_x": _sum_ends(kern, x, t)[0]}
        else:
            rows = _draw_rows(e, stream, n, lo, hi)
            block = simulate_block(kern, x, rows, want_s_prime=want_s_prime)
        xi = root_n * (block["prod_x"] - ex_x)
        # a sum along each row, whose bits no other row changes (a BLAS
        # matrix-vector product rounds a row by the rows multiplied with it)
        out = {"proj_xi": (xi * y).sum(axis=1)}
        if want_s_prime:
            mk = block["prod_x"] - qn_x
            out["diff_norm"] = np.linalg.norm(xi - block["s_x"] / root_n, axis=1)
            out["r_norm"] = np.linalg.norm(root_n * mk - block["s_prime_x"] / root_n, axis=1)
            out["mk_norm"] = np.linalg.norm(mk, axis=1)
            out["tally"] = block["tally"]
            out.update(diff_dots(diff_pair_block(kern, x, rows, probe_steps(n),
                                                 block["prefixes"])))
        return out

    return concat_chunks([stats(first + lo, first + hi)
                          for lo, hi in chunk_ranges(e, n, reps)])


def diff_pair_block(kern, x, rows, ks, prefixes=None):
    """Rows of d_{n,k} x - d'_{n,k} x for each k in ks.

    d_{n,k} x is the S term of step k; d'_{n,k} x applies the random prefix
    e^{A_1/n} ... e^{A_{k-1}/n} to its S' input (A_k - EA) Q^{n-k} x, and
    ``prefixes`` may give those prefix states, keyed by k, as
    :func:`simulate_block` returns them for the rows it swept.  Without them
    they are swept here: an :func:`_entrywise` law takes the prefix as
    p_{k-1} e^{T_{k-1}/n} from the running sums of :func:`_entrywise_terms`,
    and finite support at d >= 2 runs :func:`_grouped_sweep` with only ks
    asked for; either gives the bits of the sweep's own prefixes.  An
    entrywise law takes the S term as p_{n-1} Δ_k x.  Cost O(max(ks) d) per
    row for an entrywise law, O(sum(ks) d^2) otherwise, or O(len(ks) d)
    with ``prefixes``.
    """
    e, n = kern.ensemble, kern.n
    root_n = np.sqrt(float(n))
    ks = sorted(ks)
    out = {}
    if _entrywise(e):
        p = kern.p_powers[:, 0, 0]
        centered, _, running = _entrywise_terms(kern, rows)
        xt = np.tile(np.asarray(x, dtype=float), rows.shape[0])
        if prefixes is None:
            prefixes = _entrywise_prefixes(kern, xt, centered, ks, running([k - 1 for k in ks]))
        for k in ks:
            s_k = (p[n - 1] * (centered(k - 1, k)[0] * xt)).reshape(-1, e.dim)
            out[k] = (s_k - prefixes[k]) / root_n
        return out
    if prefixes is None:
        *_, prefixes = _grouped_sweep(kern, x, rows, want_v=False, want_s_prime=False, ks=ks)
    for k in ks:
        pnk_x = kern.p_powers[n - k] @ x
        d_table = np.einsum("ij,mj->mi", kern.p_powers[k - 1], e._deltas @ pnk_x) / root_n
        out[k] = d_table[rows[:, k - 1]] - prefixes[k] / root_n
    return out


def diff_dots(deltas) -> dict:
    """Per-replicate dots ``<delta_k, delta_l>`` of the difference rows
    ``deltas[k]``, keyed ``(k, l)`` for each pair k <= l of its ks.  Each is a
    sum along its own row, so a chunk's dots are those of the whole pass."""
    ks = sorted(deltas)
    return {(k, l): np.sum(deltas[k] * deltas[l], axis=1)
            for a, k in enumerate(ks) for l in ks[a:]}
