"""Product dynamics: xi_n, its martingale approximation, and rate curves.

Objects of study, for i.i.d. bounded draws A_1 ... A_n:

    xi_n  = sqrt(n) (e^{A_1/n} ... e^{A_n/n} - e^{EA})
    S_n   = (1/sqrt(n)) sum_k e^{EA(k-1)/n} (A_k - EA) e^{EA(n-k)/n}
    xi'_n = sqrt(n) (e^{A_1/n} ... e^{A_n/n} - (E e^{A/n})^n) = S'_n + R_n
    M_k   = e^{A_1/n} ... e^{A_k/n} x - (E e^{A/n})^k x

plus the Doob expansion M_k = sum_m D_{k,m} over subset products.  Matrix
products are never materialized; everything is applied to probe vectors
right to left, except the small-k Doob enumeration which is an explicit
brute-force oracle.

Monte Carlo curves run on the replicate driver of :mod:`expclt.engine`, where
each pass keys one RngStream and each replicate owns a fixed range of its
words, so they are reproducible for any chunking or worker count.
:func:`dot_moments`, which the martingale suite shares, reduces
difference-row dots to moments and orthogonality statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .covariance import sigma_projected
from .ensembles import Ensemble, RngStream
from .linalg import as_vector, exp_block, mat_exp, op_norm

__all__ = [
    "TrajectorySample",
    "PrecomputedKernel",
    "precompute_kernel",
    "sample_xi",
    "martingale_difference",
    "dnk_norm_bound",
    "max_dnk_norm",
    "lindeberg_threshold",
    "lindeberg_max_norm",
    "LemmaSpeedPoint",
    "lemma_speed_curve",
    "xi_prime_telescoping",
    "decompose_xi_prime",
    "doob_decomposition",
    "DoobCheck",
    "doob_check",
    "DiffMomentPoint",
    "dot_moments",
    "diff_moment_curve",
    "riemann_cov_value",
]


@dataclass(frozen=True)
class TrajectorySample:
    """One replicate of the normalized product and its approximation."""

    n: int
    xi_x: np.ndarray  # xi_n applied to the probe x
    s_x: np.ndarray  # S_n applied to x, from the same draws


@dataclass(frozen=True)
class PrecomputedKernel:
    """Per-(ensemble, n) tables, read-only: the run's reference set builds one
    per n in each process, and no task carries one.

    p_powers[k] = e^{EA k/n} and q_powers[k] = (E e^{A/n})^k for k = 0..n,
    both filled by index doubling (k = floor(k/2) + ceil(k/2)), so the
    rounding error stays O(log n) units.  ``exps`` stacks e^{A_i/n} for each
    support matrix of a finite-support family, ``(m, d, d)``, or ``(0, d, d)``
    for diagonal_uniform, which makes a replicate pure table lookup.
    """

    ensemble: Ensemble
    n: int
    exps: np.ndarray  # (m, d, d)
    p_powers: np.ndarray  # (n+1, d, d)
    q_powers: np.ndarray  # (n+1, d, d)


def _doubling_table(first: np.ndarray, n: int) -> np.ndarray:
    """t[k] = first^k for k = 0..n, as t[floor(k/2)] @ t[ceil(k/2)], level by
    level: t[2j] = t[j] t[j], then t[2j + 1] = t[j] t[j + 1], each in one
    stacked matmul on views.  A stacked matmul makes the BLAS call per
    matrix that a matmul of one pair makes, so every power has the bits of
    a per-k loop."""
    d = first.shape[0]
    t = np.empty((n + 1, d, d))
    t[0] = np.eye(d)
    if n >= 1:
        t[1] = first
    h = 1
    while 2 * h <= n:  # this level: k = 2h .. min(4h, n + 1) - 1
        end = min(4 * h, n + 1)
        np.matmul(t[h : (end + 1) // 2], t[h : (end + 1) // 2], out=t[2 * h : end : 2])
        np.matmul(t[h : end // 2], t[h + 1 : end // 2 + 1], out=t[2 * h + 1 : end : 2])
        h *= 2
    return t


def precompute_kernel(e: Ensemble, n: int) -> PrecomputedKernel:
    """Build the per-(ensemble, n) exponential tables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if e.is_finite_support:  # each support exponential once, and E e^{A/n} from them
        exps = mat_exp(e.support / n)
        q1 = e._expect(exps)
    else:
        exps, q1 = np.empty((0, e.dim, e.dim)), e.mean_exp_scaled(n)
    p = _doubling_table(mat_exp(e.mean() / n), n)
    q = _doubling_table(q1, n)
    for table in (exps, p, q):
        table.flags.writeable = False
    return PrecomputedKernel(ensemble=e, n=n, exps=exps, p_powers=p, q_powers=q)


def kernel_consistency(kern: PrecomputedKernel) -> float:
    """Max relative defect of p_powers[k] against a direct e^{EA k/n}, at a
    few k within [1, n], rows of p_powers."""
    n = kern.n
    ks = np.array(sorted({1, min(2, n), min(3, n), n // 3, n // 2, n - 1, n} - {0}))
    direct = mat_exp(kern.ensemble.mean() * (ks / n)[:, None, None])
    scale = np.maximum(op_norm(direct), 1.0)
    return float(np.max(op_norm(kern.p_powers[ks] - direct) / scale, initial=0.0))


def sample_xi(e: Ensemble, n: int, x, r: RngStream,
              kern: PrecomputedKernel | None = None) -> TrajectorySample:
    """One replicate of (xi_n x, S_n x) from a single stream of draws.

    Replicate i of a :func:`engine.simulate_paths` pass over the stream
    ``stream`` is the one of ``stream.at(i * n * e.entries_per_draw)``.
    Reference (unbatched) implementation for every family: the draws of
    :meth:`Ensemble.sample`, one at a time, enter as e^{A_k/n} and as
    P_{k-1} (A_k - EA) P_{n-k} x; O(n d^3) per call.
    """
    kern = kern if kern is not None else precompute_kernel(e, n)
    if kern.n != n or kern.ensemble is not e:
        raise ValueError("kernel was built for a different (ensemble, n)")
    x = as_vector(x, e.dim, "x")
    root_n = np.sqrt(float(n))
    draws = np.array([e.sample(r) for _ in range(n)])
    v = x.copy()
    for exp_a in mat_exp(draws / n)[::-1]:
        v = exp_a @ v
    px = np.einsum("kij,j->ki", kern.p_powers, x)
    mean, s = e.mean(), np.zeros(e.dim)
    for k, a in enumerate(draws, 1):
        s += kern.p_powers[k - 1] @ ((a - mean) @ px[n - k])

    return TrajectorySample(n=n, xi_x=root_n * (v - kern.p_powers[n] @ x), s_x=s / root_n)


def dnk_norm_bound(e: Ensemble, n: int, *, tight: bool = False) -> float:
    """The uniform bound (2 rho / sqrt(n)) e^{rho} on ||d_{n,k}||.

    ``tight=True`` gives the sharper per-draw constant e^{rho (n-1)/n}.
    """
    expo = e.rho * (n - 1) / n if tight else e.rho
    return 2.0 * e.rho / np.sqrt(float(n)) * np.exp(expo)


def martingale_difference(e: Ensemble, n: int, k: int, a_k: np.ndarray,
                          kern: PrecomputedKernel) -> np.ndarray:
    """d_{n,k} = (1/sqrt(n)) e^{EA(k-1)/n} (A_k - EA) e^{EA(n-k)/n}.

    The uniform norm bound is checked on every call; a violation would mean
    a draw outside the ensemble's certified support.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    d = kern.p_powers[k - 1] @ (np.asarray(a_k, dtype=float) - e.mean()) @ kern.p_powers[n - k]
    d /= np.sqrt(float(n))
    bound = dnk_norm_bound(e, n, tight=True)
    if op_norm(d) > bound * (1.0 + 1e-9):
        raise AssertionError(f"||d_n,k|| exceeds the uniform bound {bound}")
    return d


def max_dnk_norm(e: Ensemble, n: int, k: int, kern: PrecomputedKernel) -> float:
    """Exact max of ||d_{n,k}|| over every possible draw (not just sampled)."""
    root_n = np.sqrt(float(n))
    if e.is_finite_support:
        # one batched norm of P_{k-1} (A_i - EA) P_{n-k} over the support
        stack = kern.p_powers[k - 1] @ e._deltas @ kern.p_powers[n - k]
        return float(op_norm(stack).max()) / root_n
    # Diagonal-uniform: all factors diagonal, mean is mid*I, so the norm is
    # e^{mid(n-1)/n} times the largest attainable |entry| of A - EA.
    mid = 0.5 * (e.low + e.high)
    return np.exp(mid * (n - 1) / n) * (0.5 * (e.high - e.low)) / root_n


def lindeberg_threshold(e: Ensemble, eps: float) -> float:
    """n beyond which {||d_{n,k}|| > eps} must be empty: (2 rho e^rho / eps)^2."""
    return (2.0 * e.rho * np.exp(e.rho) / eps) ** 2


def lindeberg_max_norm(e: Ensemble, n: int, kern: PrecomputedKernel) -> float:
    """max over k = 1..n of the exact per-k maximum of ||d_{n,k}||."""
    return max(max_dnk_norm(e, n, k, kern) for k in range(1, n + 1))


@dataclass(frozen=True)
class LemmaSpeedPoint:
    """Exact norms behind the O(1/n) mean-exponential comparison at one n."""

    n: int
    norm_outer: float  # ||(E e^{A/n})^n - e^{EA}||
    norm_inner: float  # ||E e^{A/n} - e^{EA/n}||
    k_max_norm: float  # max over k in {1, ceil(n/2), n} of ||(E e^{A/n})^k - e^{EA k/n}||


def lemma_speed_curve(e: Ensemble, n_grid) -> list:
    """Quadrature-free norm curves for the mean-exponential comparison.

    Both sides of the outer norm are raised with the same binary powering of
    the *same-shape* factors, so a deterministic family (where
    E e^{A/n} = e^{EA/n} bitwise) yields exactly zero at every n.
    """
    points = []
    for n in n_grid:
        x_mat = e.mean_exp_scaled(n)  # E e^{A/n}, closed form
        y_mat = mat_exp(e.mean() / n)  # e^{EA/n}
        inner = op_norm(x_mat - y_mat)
        k_norms = op_norm(np.array([
            np.linalg.matrix_power(x_mat, k) - np.linalg.matrix_power(y_mat, k)
            for k in engine.probe_steps(n)]))
        points.append(
            LemmaSpeedPoint(
                n=n, norm_outer=float(k_norms[-1]), norm_inner=inner,
                k_max_norm=float(k_norms.max())
            )
        )
    return points


def xi_prime_telescoping(e: Ensemble, n: int, draws, x,
                         kern: PrecomputedKernel) -> np.ndarray:
    """xi'_n x by the telescoping sum over k of prefix (e^{A_k/n} - Q) Q^{n-k}.

    Evaluated by the backward recurrence u_k = z_k + e^{A_k/n} u_{k+1} with
    z_k = (e^{A_k/n} - E e^{A/n}) Q^{n-k} x, so u_1 is the full sum.
    """
    x = as_vector(x, e.dim, "x")
    exps = mat_exp(np.asarray(draws, dtype=float) / n)
    q1 = kern.q_powers[1]
    u = np.zeros(e.dim)
    for k in range(n, 0, -1):
        qx = kern.q_powers[n - k] @ x
        u = (exps[k - 1] - q1) @ qx + exps[k - 1] @ u
    return np.sqrt(float(n)) * u


def decompose_xi_prime(e: Ensemble, n: int, draws, x,
                       kern: PrecomputedKernel) -> tuple:
    """Split xi'_n x into its first-order part S'_n x and remainder norm.

    S'_n replaces each (e^{A_k/n} - E e^{A/n}) in the telescoping sum by
    (A_k - EA)/n; returns (S'_n x, ||R_n x||) with R_n x = xi'_n x - S'_n x.
    """
    if len(draws) != n:
        raise ValueError(f"need n={n} draws, got {len(draws)}")
    x = as_vector(x, e.dim, "x")
    root_n = np.sqrt(float(n))
    mean = e.mean()
    exps = mat_exp(np.asarray(draws, dtype=float) / n)

    v = x.copy()
    u = np.zeros(e.dim)
    for k in range(n, 0, -1):
        qx = kern.q_powers[n - k] @ x
        u = (np.asarray(draws[k - 1], dtype=float) - mean) @ qx + exps[k - 1] @ u
        v = exps[k - 1] @ v
    xi_prime_x = root_n * (v - kern.q_powers[n] @ x)
    s_prime_x = u / root_n
    return s_prime_x, float(np.linalg.norm(xi_prime_x - s_prime_x))


def _subset_blocks(exps, q1):
    """Yield (masks, F) over the nonempty subsets P of [k], k = len(exps), in
    mask order, at most ``exp_block(d)`` at a time: F[i] multiplies, left to
    right, B_j = e^{A_j/n} - Q for j in masks[i] and Q otherwise.  The low
    bits' products come by doubling and each block extends them over its
    high bits, so every product keeps the association of a left fold."""
    k, d = exps.shape[:2]
    pairs = [(q1, b) for b in exps - q1]  # factor j of F_P: Q, or B_j when j is in P
    low = min(k, exp_block(d).bit_length() - 1)
    head = None
    for q, b in pairs[:low]:
        head = np.stack((q, b)) if head is None else np.concatenate((head @ q, head @ b))
    for high in range(1 << (k - low)):
        f = head
        for j, pair in enumerate(pairs[low:]):
            g = pair[(high >> j) & 1]
            f = g[None] if f is None else f @ g
        first = int(high == 0)  # mask 0, the empty subset, is no product of the sum
        if len(f) > first:
            yield range((high << low) + first, (high + 1) << low), f[first:]


def _doob(e: Ensemble, n: int, k: int, draws, x, kern: PrecomputedKernel, bounds):
    """(M_k x, [D_{k,m} x], max_P ||F_P|| / bounds[|P|]) in one enumeration;
    no norms, and a ratio of 0, when ``bounds`` is None.

    ||F_P|| <= ||F_P||_F, so a product whose Frobenius ratio is below the
    largest ratio so far cannot raise it.  Each block visits its products by
    descending Frobenius ratio, widened by 1e-10 against its rounding, and
    takes the spectral norm of each until that ratio falls below the
    maximum.  A stack's norms are those of its matrices alone, so the ratio
    has the bits of a norm of every product."""
    if k > 12:
        raise ValueError(f"subset enumeration capped at k=12, got {k}")
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    x = as_vector(x, e.dim, "x")
    exps = mat_exp(np.asarray(draws[:k], dtype=float) / n)
    v = x.copy()
    for j in range(k, 0, -1):
        v = exps[j - 1] @ v
    d_list, ratio = np.zeros((k, e.dim)), 0.0
    for masks, f in _subset_blocks(exps, kern.q_powers[1]):
        # D_{k,m} adds F_P x, in mask order, over the P whose maximum element is m
        np.add.at(d_list, [mask.bit_length() - 1 for mask in masks], f @ x)
        if bounds is not None:
            # at rho = 0 the bound and every product are exactly 0
            frob = np.linalg.norm(f, axis=(1, 2))
            held = np.flatnonzero(frob > 0.0)
            bound = bounds[[masks[i].bit_count() for i in held]]
            reach = frob[held] * (1.0 + 1e-10) / bound
            while reach.size:  # by descending reach, the first of equal ones first
                i = int(np.argmax(reach))
                if reach[i] < ratio:
                    break
                reach[i] = -1.0
                norm = op_norm(f[held[i]])
                if norm > 0.0:
                    ratio = max(ratio, float(norm / bound[i]))
    return v - kern.q_powers[k] @ x, list(d_list), ratio


def doob_decomposition(e: Ensemble, n: int, k: int, draws, x,
                       kern: PrecomputedKernel) -> tuple:
    """(M_k x, [D_{k,1} x, ..., D_{k,k} x]) by explicit subset enumeration.

    D_{k,m} collects the subset products whose maximum element is m; the
    identity M_k = sum_m D_{k,m} is the brute-force oracle for the Doob
    martingale. Enumeration is capped at k = 12 (2^k products).
    """
    return _doob(e, n, k, draws, x, kern, None)[:2]


@dataclass(frozen=True)
class DoobCheck:
    """Doob identity residual and the worst subset-product bound ratio at one k."""

    k: int
    identity_residual: float  # ||M_k - sum_m D_{k,m}|| / max(||M_k||, floor)
    max_subset_bound_ratio: float  # max_P ||F_{k,P}|| / ((2rho/n)^|P| e^{k rho/n})


def doob_check(e: Ensemble, n: int, k: int, draws, x,
               kern: PrecomputedKernel) -> DoobCheck:
    """Run the decomposition and the per-subset norm bound in one enumeration.

    The residual denominator is floored at 1e-3 of the natural scale
    e^{k rho/n} ||x||: when the true M_k is an exact zero (point-mass laws),
    both routes return pure rounding noise and a bare relative measure would
    be meaningless; any structural error still lands orders of magnitude
    above 1e-10.
    """
    base = 2.0 * e.rho / n
    bounds = np.array([base ** j * np.exp(k * e.rho / n) for j in range(k + 1)])  # by |P|
    m_k, d_list, ratio = _doob(e, n, k, draws, x, kern, bounds)
    floor = 1e-3 * np.exp(k * e.rho / n) * np.linalg.norm(x)
    residual = float(
        np.linalg.norm(m_k - np.sum(d_list, axis=0))
        / max(np.linalg.norm(m_k), floor, np.finfo(float).tiny)
    )
    return DoobCheck(k=k, identity_residual=residual, max_subset_bound_ratio=ratio)


@dataclass(frozen=True)
class DiffMomentPoint:
    """Second moments of d_{n,k} x - d'_{n,k} x at the probe ks for one n."""

    n: int
    mean_sq: float  # mean over the probe ks of E||d - d'||^2
    per_k: dict  # k -> E||d_{n,k} x - d'_{n,k} x||^2
    ortho: tuple  # ((k, l, mean <delta_k, delta_l>, stderr), ...)


def dot_moments(n: int, ks, dots) -> DiffMomentPoint:
    """Second moments and cross-k orthogonality of difference rows at one n,
    from their per-replicate dots ``dots[k, l]`` (:func:`engine.diff_dots`) at
    the sorted probe ``ks``.  Each pair k < l gets the mean of its dots and
    their standard error std(ddof=1) / sqrt(reps).
    """
    per_k = {k: float(np.mean(dots[k, k])) for k in ks}
    ortho = tuple((k, l, float(np.mean(dots[k, l])),
                   float(np.std(dots[k, l], ddof=1) / np.sqrt(dots[k, l].size)))
                  for a, k in enumerate(ks) for l in ks[a + 1 :])
    return DiffMomentPoint(n=n, mean_sq=float(np.mean(list(per_k.values()))),
                           per_k=per_k, ortho=ortho)


def diff_moment_curve(e: Ensemble, n_grid, x, reps: int, r: RngStream) -> list:
    """:func:`dot_moments` of d_{n,k} x - d'_{n,k} x at the
    :func:`engine.probe_steps` of each n of the grid, from the dots of a
    martingale :func:`engine.simulate_paths` pass with y = x; the pass at
    size n draws from the pass stream r.child(n)."""
    if reps < 100:
        raise ValueError("reps must be >= 100")
    x = as_vector(x, e.dim, "x")
    return [dot_moments(n, engine.probe_steps(n),
                        engine.simulate_paths(e, precompute_kernel(e, n), x, x, r.child(n),
                                              reps, want_s_prime=True))
            for n in n_grid]


def riemann_cov_value(e: Ensemble, n: int, x, y,
                      kern: PrecomputedKernel | None = None) -> float:
    """The deterministic Riemann sum (1/n) sum_k E <y, e^{EA(k-1)/n} (A - EA)
    e^{EA(n-k)/n} x>^2 that the variance condition compares against Sigma."""
    kern = kern if kern is not None else precompute_kernel(e, n)
    x = as_vector(x, e.dim, "x")
    y = as_vector(y, e.dim, "y")
    p = kern.p_powers
    # row k - 1 of w is P_{k-1}^T y and of u is P_{n-k} x, for k = 1..n
    w, u = y @ p[:n], p[n - 1 :: -1] @ x
    return float(np.sum(e.centered_projection(w, u))) / n


def riemann_cov_error(e: Ensemble, n: int, x, y,
                      kern: PrecomputedKernel | None = None) -> float:
    """|Riemann sum - sigma_projected|; decays O(1/n) for smooth integrands."""
    return abs(riemann_cov_value(e, n, x, y, kern) - sigma_projected(e, x, y))
