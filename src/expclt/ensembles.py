"""Bounded random-operator distributions with exact moments.

An :class:`Ensemble` describes a distribution over real ``(d, d)`` matrices
with a hard spectral-norm bound ``rho`` that holds for every possible draw.
Four families are supported:

* ``two_point``       -- one of two fixed matrices, ``A0`` with probability p;
* ``finite_support``  -- finitely many fixed matrices with given weights;
* ``diagonal_uniform``-- diagonal matrices with i.i.d. Uniform[lo, hi] entries;
* ``deterministic``   -- a single fixed matrix (zero variance).

The first two and the last are stored uniformly as (support, probabilities),
the support one read-only ``(m, d, d)`` array; all first and second moments
are exact finite sums or closed forms, never estimates, and the moments of
probe vectors take batches of ``(..., d)`` rows.  Sampling is driven by
:class:`RngStream`, a keyed stream of 32-bit words: a stream is its key
``(master_seed, stream_index)`` and the count of words it has drawn, and
every draw is a pure function of the two.  A Monte Carlo pass keys one
stream, and its replicate i owns the words ``[i W, (i + 1) W)`` with
``W = n * entries_per_draw``, so replicates can be farmed out to any number
of workers, in any chunks, without changing a single bit of output.  Every
random value, probe pairs included, is one word mapped by a law: a support
index maps it through integer cut points, and a diagonal entry takes the
midpoint of its 2^-32 bin of ``[low, high]``.  This module is the only one
that touches the PCG64DXSM generator behind the streams.

Callers see a law through one interface: a draw holds ``entries_per_draw``
values and takes as many words, ``draws`` takes a stream's next draws
(support indices or diagonal entries), ``index_counts`` counts each support
index in rows of words, ``sample`` returns one draw as a matrix,
``centered_total`` sums the centered draws of tally rows, ``is_point_mass``
marks a law without fluctuations, and ``mean``, ``central_second_moment``,
``centered_action``, ``centered_projection`` and ``mean_exp_scaled`` are its
exact moments.  A new finite-support law needs nothing more than a factory.
"""

from __future__ import annotations

import hashlib
import reprlib
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, mat_exp, op_norm

__all__ = [
    "RngStream",
    "Ensemble",
    "two_point",
    "finite_support",
    "diagonal_uniform",
    "deterministic",
]

_FINITE_FAMILIES = ("two_point", "finite_support", "deterministic")

_SCRATCH = threading.local()  # each thread's own PCG64DXSM, which every stream moves


def _hash64(*parts) -> int:
    """Stable 64-bit hash of the stringified parts (platform independent)."""
    data = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class RngStream:
    """One reproducible stream of 32-bit words, keyed by (master_seed, stream_index).

    A stream is its key and a position: it holds the two 64-bit key words,
    the key's origin and the count of words it has drawn.  The origin is the
    state of a PCG64DXSM (O'Neill, HMC-CS-2014-0905) seeded with
    ``SeedSequence([master_seed, stream_index])``, derived once per key, and
    the stream's words are that generator's 64-bit outputs, each split in
    two, low half first.  A stream serves words only: every random value is
    one word that a law maps.  Each :meth:`words` call sets its thread's
    scratch generator to the origin and advances it to the position, so
    distinct keys give statistically independent streams, any split of a
    stream's words into calls replays one plain draw from the origin, and
    :meth:`at` reaches any word of the stream without drawing the ones
    before it.
    """

    __slots__ = ("master_seed", "stream_index", "_origin", "_drawn")

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed = int(master_seed) % (1 << 64)
        self.stream_index = int(stream_index) % (1 << 64)
        seeds = np.random.SeedSequence([self.master_seed, self.stream_index])
        self._origin = np.random.PCG64DXSM(seeds).state  # read-only, shared by at()
        self._drawn = 0

    def at(self, word: int) -> "RngStream":
        """A stream with this key, positioned ``word`` words past its origin."""
        moved = object.__new__(RngStream)  # the key's origin, not derived again
        moved.master_seed, moved.stream_index = self.master_seed, self.stream_index
        moved._origin, moved._drawn = self._origin, int(word)
        return moved

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words, as uint32."""
        pcg = getattr(_SCRATCH, "pcg", None)
        if pcg is None:
            pcg = _SCRATCH.pcg = np.random.PCG64DXSM(0)
        first = self._drawn // 2  # the output that holds the next word
        pcg.state = self._origin
        pcg.advance(first)  # in O(log first) steps
        raw = pcg.random_raw((self._drawn + count + 1) // 2 - first)
        skip, self._drawn = self._drawn % 2, self._drawn + count
        # little-endian bytes, so each output reads as its low half, then its high half
        return np.asarray(raw, dtype="<u8").view("<u4")[skip : skip + count]

    def child(self, *parts) -> "RngStream":
        """Derived independent stream; same parts always give the same child."""
        return RngStream(self.master_seed, _hash64(self.stream_index, *parts))

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


# Largest support that Ensemble.support_indices maps by counting cut points;
# larger ones binary-search the same cuts.  Per 64 x 4096 uniforms on a 2-core
# x86 host, the m - 1 compares took 0.03x searchsorted's time at m = 2, 0.5x
# at 64, 0.8x at 128 and 1.2x at 192.
_COMPARE_MAX_SUPPORT = 128

# Largest support that Ensemble.index_counts counts with one compare of every
# word per cut; larger ones sort each row of words and binary-search the cuts
# in it.  Per 65,536 words on a 2-core x86 host, in rows of 1,024 and 4,096
# words, the compares took 0.03 ms at m = 2, 0.26 ms at m = 12 and 0.53-0.71
# ms at m = 24, the sort and search 0.22-0.35 ms at each; in rows of 64 words
# the compares stayed faster up to m = 24.
_COUNT_MAX_SUPPORT = 16

# Support indices are drawn as uint16, so a support holds at most 2^16 matrices.
_MAX_SUPPORT = 65_536

# Entries per block: the m d rows of the deltas times the probe rows of one
# block of Ensemble.centered_projection, at least one probe row.
_BLOCK = 65_536


@dataclass(frozen=True)
class Ensemble:
    """A norm-bounded distribution over real d x d matrices.

    Use the module factories (:func:`two_point`, :func:`finite_support`,
    :func:`diagonal_uniform`, :func:`deterministic`) rather than the raw
    constructor; they validate parameters and compute ``rho``.
    """

    dim: int
    family: str
    support: np.ndarray | None  # (m, d, d) read-only, finite-support families only
    probabilities: np.ndarray | None
    low: float | None  # diagonal_uniform bounds
    high: float | None
    rho: float  # certified bound on op_norm of every draw

    @property
    def is_finite_support(self) -> bool:
        return self.family in _FINITE_FAMILIES

    @property
    def entries_per_draw(self) -> int:
        """Values one draw holds, and stream words it takes: 1 (a support
        index) or d (diagonal entries)."""
        return 1 if self.is_finite_support else self.dim

    @cached_property
    def is_diagonal(self) -> bool:
        """True when every possible draw is a diagonal matrix."""
        if self.family == "diagonal_uniform":
            return True
        return not np.any(self.support[:, ~np.eye(self.dim, dtype=bool)])

    @cached_property
    def is_point_mass(self) -> bool:
        """True when the law is a point mass, so every fluctuation is exactly 0."""
        if self.is_finite_support:
            # a zero-weight matrix is never drawn, so it does not make the law random
            drawn = self.support[self.probabilities > 0.0]
            return bool(np.all(drawn == drawn[0]))
        return self.low == self.high

    @cached_property
    def _cuts(self) -> np.ndarray:
        """uint32 cut points c_j = floor(2^32 F_j) of the cumulative weights
        F_j, j < m - 1, below 2^32: a word's index is the count of cuts <= it.
        A cut of 2^32 (trailing weights past rounding or zero) is never <= a
        word, so it is left out."""
        cuts = np.floor(np.cumsum(self.probabilities)[:-1] * 2.0**32)
        cuts = cuts[cuts < 2.0**32].astype(np.uint32)
        cuts.flags.writeable = False
        return cuts

    @cached_property
    def _mean(self) -> np.ndarray:
        if self.is_finite_support:
            mean = self._expect(self.support)
        else:
            mean = np.eye(self.dim) * ((self.low + self.high) / 2.0)
        mean.flags.writeable = False
        return mean

    @cached_property
    def _deltas(self) -> np.ndarray:
        """Centered support matrices ``A_i - E[A]``, ``(m, d, d)`` read-only."""
        deltas = self.support - self.mean()
        deltas.flags.writeable = False
        return deltas

    # --- sampling ---------------------------------------------------------

    def draws(self, stream: RngStream, count: int) -> np.ndarray:
        """The next ``count`` draws of ``stream`` for either family:
        :meth:`sample_indices` or :meth:`sample_diagonal_values`.  The engine
        and :meth:`sample` draw here, so a stream gives the same draws through
        any sampler."""
        if self.is_finite_support:
            return self.sample_indices(stream, count)
        return self.sample_diagonal_values(stream, count)

    def sample(self, stream: RngStream) -> np.ndarray:
        """One draw as a matrix; consumes ``entries_per_draw`` words."""
        (draw,) = self.draws(stream, 1)
        return self.support[draw] if self.is_finite_support else np.diag(draw)

    def sample_indices(self, stream: RngStream, count: int) -> np.ndarray:
        """``count`` support indices in draw order, one word each (finite-support
        families)."""
        if not self.is_finite_support:
            raise ValueError(f"{self.family} ensemble has no finite support")
        return self.support_indices(stream.words(count))

    def support_indices(self, words: np.ndarray) -> np.ndarray:
        """uint16 support indices of the uint32 ``words`` (any shape): the
        count of :attr:`_cuts` ``<= word``, so index j takes the words in
        ``[c_{j-1}, c_j)`` and its probability moves from p_j by less than
        2^-32, and a zero weight's bin is empty.  Small supports count with one
        elementwise compare per cut; larger ones binary-search the cuts."""
        if not self.is_finite_support:
            raise ValueError(f"{self.family} ensemble has no finite support")
        cuts = self._cuts
        if len(self.support) > _COMPARE_MAX_SUPPORT:
            return np.searchsorted(cuts, words, side="right").astype(np.uint16)
        if not len(cuts):
            return np.zeros(np.shape(words), dtype=np.uint16)
        idx = (words >= cuts[0]).astype(np.uint16)
        for c in cuts[1:]:
            idx += words >= c
        return idx

    def sample_diagonal_values(self, stream: RngStream, count: int) -> np.ndarray:
        """``(count, d)`` diagonal entries ``low + (high - low) 2^-32 (w + 1/2)``
        in draw order, one word w each (diagonal_uniform): the midpoints of
        2^32 equal bins of ``[low, high]``, with mean exactly ``(low + high) / 2``
        and variance ``(high - low)^2 (1 - 2^-64) / 12``, the closed forms to
        rounding."""
        if self.family != "diagonal_uniform":
            raise ValueError(f"{self.family} ensemble is not diagonal_uniform")
        entries = stream.words(count * self.dim) + 0.5
        entries *= (self.high - self.low) * 2.0**-32
        entries += self.low
        return entries.reshape(count, self.dim)

    def index_counts(self, words: np.ndarray) -> np.ndarray:
        """``(R, m)`` int64 counts of each support index among the words of
        each row of the ``(R, n)`` uint32 ``words``: row r's are
        ``bincount(support_indices(words[r]), minlength=m)``, taken from the
        count of words below each cut c_j without mapping a word to its
        index.  Small supports count with one compare of every word per cut.
        Larger ones sort each row and binary-search the cuts in it, all rows
        at once: each row's words plus its row number times 2^32 make one
        ascending array."""
        if not self.is_finite_support:
            raise ValueError(f"{self.family} ensemble has no finite support")
        (rows, n), m, cuts = np.shape(words), len(self.support), self._cuts
        below = np.full((rows, m + 1), n, dtype=np.int64)  # column j: count of indices < j
        below[:, 0] = 0
        if m <= _COUNT_MAX_SUPPORT:
            under = np.empty(np.shape(words), dtype=bool)
            for j, c in enumerate(cuts, 1):
                np.less(words, c, out=under)
                below[:, j] = np.add.reduce(under, axis=1, dtype=np.int32)
        else:
            offsets = np.arange(rows, dtype=np.uint64)[:, None] << np.uint64(32)
            found = np.searchsorted((np.sort(words, axis=1) + offsets).ravel(),
                                    (offsets + cuts).ravel())
            below[:, 1 : len(cuts) + 1] = (found.reshape(rows, len(cuts))
                                           - n * np.arange(rows)[:, None])
        return np.diff(below, axis=1)

    def centered_total(self, tally: np.ndarray) -> np.ndarray:
        """sum (A - EA) over the draws of the stacked ``tally`` rows, as a
        d x d matrix: rows of index counts (finite support), or rows of sums
        of centered diagonal entries (diagonal_uniform)."""
        total = tally.sum(axis=0)
        if self.is_finite_support:
            return np.tensordot(total, self._deltas, axes=1)
        return np.diag(total)

    # --- exact moments ----------------------------------------------------

    def _expect(self, values):
        """sum_s p_s values[s] over a finite support, added one term at a time
        in support order: the bits of the mean and of every kernel table."""
        acc = 0.0
        for p, v in zip(self.probabilities, values):
            acc = acc + p * v
        return acc

    def mean(self) -> np.ndarray:
        """Exact expected matrix, computed once per law (read-only)."""
        return self._mean

    def central_second_moment(self) -> np.ndarray:
        """Exact ``E[(A - EA) (x) (A - EA)]`` as a d^2 x d^2 matrix."""
        if self.is_finite_support:
            return self._expect(np.kron(delta, delta) for delta in self._deltas)
        var = (self.high - self.low) ** 2 / 12.0
        return np.diag(var * np.eye(self.dim).reshape(-1))  # var at each (i,i),(i,i)

    def centered_action(self, x: np.ndarray) -> np.ndarray:
        """``E[(A - EA) x (A - EA)^T]`` for a d x d ``x``: the C of Sigma
        acting on x, without forming the d^2 x d^2 moment."""
        if self.is_finite_support:
            deltas = self._deltas
            return np.tensordot(self.probabilities, deltas @ x @ deltas.transpose(0, 2, 1), axes=1)
        return np.diag((self.high - self.low) ** 2 / 12.0 * np.diagonal(x))

    def centered_projection(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``E <w, (A - EA) u>^2`` for each pair of ``(..., d)`` rows of ``w``
        and ``u``, shaped as their leading axes, without forming the d^2 x d^2
        moment.  A p-weighted sum of squares (or the uniform variance times a
        sum of squares), so every value is nonnegative by construction.
        """
        if not self.is_finite_support:
            return (self.high - self.low) ** 2 / 12.0 * np.sum((w * u) ** 2, axis=-1)
        d, stacked = self.dim, self._deltas.reshape(-1, self.dim)  # the m d rows of the deltas
        rows_w, rows_u = np.reshape(w, (-1, d)), np.reshape(u, (-1, d))
        out, size = np.empty(len(rows_w)), max(1, _BLOCK // len(stacked))
        for lo in range(0, len(out), size):  # one GEMM of the deltas by a block of u rows
            block = rows_u[lo : lo + size]
            du = (stacked @ block.T).reshape(-1, d, len(block))  # (delta_s u_r)_i
            z = np.einsum("sir,ri->sr", du, rows_w[lo : lo + size])  # <w_r, delta_s u_r>
            out[lo : lo + size] = self.probabilities @ (z * z)
        return out.reshape(np.shape(w)[:-1])[()]

    def mean_exp_scaled(self, n: int) -> np.ndarray:
        """Exact ``E exp(A / n)``.

        Finite support: probability-weighted sum of the support exponentials,
        taken in one call.  diagonal_uniform: closed form, entrywise
        ``(exp(hi/n) - exp(lo/n)) / ((hi - lo)/n)`` on the diagonal.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.is_finite_support:
            return self._expect(mat_exp(self.support / n))
        lo, hi = self.low / n, self.high / n
        if hi == lo:
            val = float(np.exp(lo))
        else:
            val = float(np.exp(lo) * np.expm1(hi - lo) / (hi - lo))
        return np.eye(self.dim) * val

    def estimate_mean_mc(self, reps: int, stream: RngStream) -> np.ndarray:
        """Sample average of ``reps`` draws (consistency oracle for mean())."""
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if self.is_finite_support:
            counts = np.bincount(self.sample_indices(stream, reps), minlength=len(self.support))
            return np.tensordot(counts / reps, self.support, axes=1)
        total = np.zeros(self.dim)
        done = 0
        while done < reps:
            chunk = min(reps - done, 262144)
            total += self.sample_diagonal_values(stream, chunk).sum(axis=0)
            done += chunk
        return np.diag(total / reps)

    # --- derived ensembles --------------------------------------------------

    def shifted(self, c: float) -> "Ensemble":
        """The ensemble of ``A + c I`` (same centered part, shifted mean)."""
        if self.is_finite_support:
            return finite_support(self.support + c * np.eye(self.dim),
                                  list(self.probabilities), family=self.family)
        return diagonal_uniform(self.dim, self.low + c, self.high + c)


def finite_support(matrices, probabilities, *, family: str = "finite_support") -> Ensemble:
    """Ensemble supported on finitely many matrices with the given weights."""
    if len(matrices) < 1:
        raise ValueError("need at least one support matrix")
    if len(matrices) > _MAX_SUPPORT:
        raise ValueError(f"at most {_MAX_SUPPORT} support matrices (uint16 draw "
                         f"indices), got {len(matrices)}")
    if len(matrices) != len(probabilities):
        raise ValueError("one probability per support matrix required")
    mats = [as_matrix(m, f"support matrix {i}") for i, m in enumerate(matrices)]
    dim = mats[0].shape[-1]
    for i, m in enumerate(mats):
        if m.ndim != 2:
            raise ValueError(f"support matrix {i} must be one matrix, got shape {m.shape}")
        if m.shape[0] != dim:
            raise ValueError(f"support matrix {i} has dimension {m.shape[0]}, expected {dim}")
    probs = np.array(probabilities, dtype=float)
    if not np.all(np.isfinite(probs)):
        raise ValueError(f"probabilities must be finite, got {reprlib.repr(probs.tolist())}")
    if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    support = np.array(mats)
    rho = float(op_norm(support).max())
    probs.flags.writeable = support.flags.writeable = False
    return Ensemble(
        dim=dim,
        family=family,
        support=support,
        probabilities=probs,
        low=None,
        high=None,
        rho=rho,
    )


def two_point(a0, a1, p: float) -> Ensemble:
    """Draw ``a0`` with probability ``p``, else ``a1``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return finite_support([a0, a1], [p, 1.0 - p], family="two_point")


def deterministic(matrix) -> Ensemble:
    """Degenerate single-matrix ensemble (the zero-variance oracle)."""
    return finite_support([matrix], [1.0], family="deterministic")


def diagonal_uniform(dim: int, low: float, high: float) -> Ensemble:
    """Diagonal matrices with i.i.d. Uniform[low, high] diagonal entries."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not np.isfinite(low) or not np.isfinite(high) or high < low:
        raise ValueError(f"need finite low <= high, got [{low}, {high}]")
    return Ensemble(
        dim=int(dim),
        family="diagonal_uniform",
        support=None,
        probabilities=None,
        low=float(low),
        high=float(high),
        rho=max(abs(low), abs(high)),
    )
