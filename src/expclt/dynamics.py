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
each replicate owns a derived RngStream, so they are reproducible for any
chunking or worker count.  :func:`diff_moments`, which the martingale suite
shares, reduces difference rows to moments and orthogonality statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .covariance import sigma_projected
from .ensembles import Ensemble, RngStream
from .linalg import as_vector, mat_exp, op_norm

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
    "mk_moment_curve",
    "DiffMomentPoint",
    "diff_moments",
    "diff_moment_curve",
    "riemann_cov_value",
]


@dataclass(frozen=True)
class TrajectorySample:
    """One replicate of the normalized product and its approximation."""

    n: int
    xi_x: np.ndarray  # xi_n applied to the probe x
    s_x: np.ndarray  # S_n applied to x, from the same draws
    diff_norm: float  # || xi_n x - S_n x ||
    projected_xi: float  # <y, xi_n x>
    projected_s: float  # <y, S_n x>


@dataclass(frozen=True)
class PrecomputedKernel:
    """Shared per-(ensemble, n) tables; immutable, safe to share across workers.

    p_powers[k] = e^{EA k/n} and q_powers[k] = (E e^{A/n})^k for k = 0..n,
    both filled by index doubling (k = floor(k/2) + ceil(k/2)), so the
    rounding error stays O(log n) units.  ``exps`` holds e^{A_i/n} for each
    support matrix of a finite-support family, which makes a replicate pure
    table lookup.
    """

    ensemble: Ensemble
    n: int
    exps: tuple | None
    p_powers: np.ndarray  # (n+1, d, d)
    q_powers: np.ndarray  # (n+1, d, d)

    @property
    def exp_mean(self) -> np.ndarray:
        """e^{EA}."""
        return self.p_powers[self.n]


def _doubling_table(first: np.ndarray, n: int) -> np.ndarray:
    d = first.shape[0]
    t = np.empty((n + 1, d, d))
    t[0] = np.eye(d)
    if n >= 1:
        t[1] = first
    for k in range(2, n + 1):
        h = k // 2
        t[k] = t[h] @ t[k - h]
    return t


def precompute_kernel(e: Ensemble, n: int) -> PrecomputedKernel:
    """Build the per-(ensemble, n) exponential tables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exps = None
    if e.is_finite_support:
        exps = tuple(mat_exp(a / n) for a in e.support)
        for m in exps:
            m.flags.writeable = False
    p = _doubling_table(mat_exp(e.mean() / n), n)
    q = _doubling_table(e.mean_exp_scaled(n), n)
    p.flags.writeable = False
    q.flags.writeable = False
    return PrecomputedKernel(ensemble=e, n=n, exps=exps, p_powers=p, q_powers=q)


def kernel_consistency(kern: PrecomputedKernel, ks=None) -> float:
    """Max relative defect of p_powers[k] against a direct e^{EA k/n}."""
    n = kern.n
    ks = ks if ks is not None else sorted({1, 2, 3, n // 3, n // 2, n - 1, n} - {0})
    mean = kern.ensemble.mean()
    worst = 0.0
    for k in ks:
        direct = mat_exp(mean * (k / n))
        scale = max(op_norm(direct), 1.0)
        worst = max(worst, op_norm(kern.p_powers[k] - direct) / scale)
    return worst


def sample_xi(e: Ensemble, n: int, x, r: RngStream,
              kern: PrecomputedKernel | None = None, y=None) -> TrajectorySample:
    """One replicate of (xi_n x, S_n x) from a single stream of draws.

    ``y`` is the projection probe for the scalar records; it defaults to x.
    Reference (unbatched) implementation: O(n d^2) per call for finite
    support and diagonal families alike.
    """
    kern = kern if kern is not None else precompute_kernel(e, n)
    if kern.n != n or kern.ensemble is not e:
        raise ValueError("kernel was built for a different (ensemble, n)")
    x = as_vector(x, e.dim, "x")
    y = x if y is None else as_vector(y, e.dim, "y")
    root_n = np.sqrt(float(n))

    if e.is_finite_support:
        idx = e.sample_indices(r, n)
        v = x.copy()
        for k in range(n, 0, -1):
            v = kern.exps[idx[k - 1]] @ v
        px = np.einsum("kij,j->ki", kern.p_powers, x)
        s = np.zeros(e.dim)
        for k in range(1, n + 1):
            s += kern.p_powers[k - 1] @ (e._deltas[idx[k - 1]] @ px[n - k])
    else:
        vals = e.sample_diagonal_values(r, n)
        mid = 0.5 * (e.low + e.high)
        v = x * np.prod(np.exp(vals / n), axis=0)
        pk = np.exp(mid * np.arange(n + 1) / n)
        coeff = pk[: n][::-1] * pk[:n]  # pk[n-k] * pk[k-1] for k = 1..n
        s = x * ((vals - mid) * coeff[:, None]).sum(axis=0)

    xi_x = root_n * (v - kern.exp_mean @ x)
    s_x = s / root_n
    return TrajectorySample(
        n=n,
        xi_x=xi_x,
        s_x=s_x,
        diff_norm=float(np.linalg.norm(xi_x - s_x)),
        projected_xi=float(y @ xi_x),
        projected_s=float(y @ s_x),
    )


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
        return max(
            op_norm(kern.p_powers[k - 1] @ delta @ kern.p_powers[n - k])
            for delta in e._deltas
        ) / root_n
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
    k_max_norm: float  # max over k in {1, n/2, n} of ||(E e^{A/n})^k - e^{EA k/n}||


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
        k_norms = []
        for k in sorted({1, max(1, n // 2), n}):
            k_norms.append(
                op_norm(
                    np.linalg.matrix_power(x_mat, k) - np.linalg.matrix_power(y_mat, k)
                )
            )
        points.append(
            LemmaSpeedPoint(
                n=n, norm_outer=k_norms[-1], norm_inner=inner, k_max_norm=max(k_norms)
            )
        )
    return points


def _exp_draws(n: int, draws):
    """e^{A_k/n} for explicit draws."""
    return [mat_exp(np.asarray(a, dtype=float) / n) for a in draws]


def xi_prime_telescoping(e: Ensemble, n: int, draws, x,
                         kern: PrecomputedKernel) -> np.ndarray:
    """xi'_n x by the telescoping sum over k of prefix (e^{A_k/n} - Q) Q^{n-k}.

    Evaluated by the backward recurrence u_k = z_k + e^{A_k/n} u_{k+1} with
    z_k = (e^{A_k/n} - E e^{A/n}) Q^{n-k} x, so u_1 is the full sum.
    """
    x = as_vector(x, e.dim, "x")
    exps = _exp_draws(n, draws)
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
    exps = _exp_draws(n, draws)

    v = x.copy()
    u = np.zeros(e.dim)
    for k in range(n, 0, -1):
        qx = kern.q_powers[n - k] @ x
        u = (np.asarray(draws[k - 1], dtype=float) - mean) @ qx + exps[k - 1] @ u
        v = exps[k - 1] @ v
    xi_prime_x = root_n * (v - kern.q_powers[n] @ x)
    s_prime_x = u / root_n
    return s_prime_x, float(np.linalg.norm(xi_prime_x - s_prime_x))


def _doob_subset_products(exps_k, q1, k: int):
    """Yield (mask, F_P) over all nonempty P of [k]; F_P multiplies, position
    by position, B_j = e^{A_j/n} - Q for j in P and Q otherwise."""
    bs = [ek - q1 for ek in exps_k]
    for mask in range(1, 1 << k):
        f = None
        for j in range(k):
            factor = bs[j] if (mask >> j) & 1 else q1
            f = factor if f is None else f @ factor
        yield mask, f


def doob_decomposition(e: Ensemble, n: int, k: int, draws, x,
                       kern: PrecomputedKernel) -> tuple:
    """(M_k x, [D_{k,1} x, ..., D_{k,k} x]) by explicit subset enumeration.

    D_{k,m} collects the subset products whose maximum element is m; the
    identity M_k = sum_m D_{k,m} is the brute-force oracle for the Doob
    martingale. Enumeration is capped at k = 12 (2^k products).
    """
    if k > 12:
        raise ValueError(f"subset enumeration capped at k=12, got {k}")
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    x = as_vector(x, e.dim, "x")
    exps = _exp_draws(n, draws[:k])

    v = x.copy()
    for j in range(k, 0, -1):
        v = exps[j - 1] @ v
    m_k = v - kern.q_powers[k] @ x

    d_list = [np.zeros(e.dim) for _ in range(k)]
    for mask, f in _doob_subset_products(exps, kern.q_powers[1], k):
        d_list[mask.bit_length() - 1] += f @ x
    return m_k, d_list


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
    m_k, d_list = doob_decomposition(e, n, k, draws, x, kern)
    floor = 1e-3 * np.exp(k * e.rho / n) * np.linalg.norm(x)
    residual = float(
        np.linalg.norm(m_k - np.sum(d_list, axis=0))
        / max(np.linalg.norm(m_k), floor, np.finfo(float).tiny)
    )
    exps = _exp_draws(n, draws[:k])
    base = 2.0 * e.rho / n
    ratio = 0.0
    for mask, f in _doob_subset_products(exps, kern.q_powers[1], k):
        bound = base ** int(mask.bit_count()) * np.exp(k * e.rho / n)
        norm = op_norm(f)
        if norm > 0.0:  # at rho = 0 the bound and every product are exactly 0
            ratio = max(ratio, norm / bound)
    return DoobCheck(k=k, identity_residual=residual, max_subset_bound_ratio=ratio)


def mk_moment_curve(e: Ensemble, n_grid, x, reps: int, r: RngStream) -> list:
    """(n, mean ||M_n x||, mean ||M_n x||^2) over the grid, by Monte Carlo.

    M_n is computed directly as (product - mean-power) applied to x, O(n d^2)
    per replicate; replicate i at size n draws from r.child(n, i).
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    x = as_vector(x, e.dim, "x")
    out = []
    for n in n_grid:
        kern = precompute_kernel(e, n)
        stats = engine.simulate_paths(
            e, kern, x, x, lambda i, n=n: r.child(n, i), reps, want_s_prime=True
        )
        mk = stats["mk_norm"]
        out.append((n, float(np.mean(mk)), float(np.mean(mk**2))))
    return out


@dataclass(frozen=True)
class DiffMomentPoint:
    """Second moments of d_{n,k} x - d'_{n,k} x at the probe ks for one n."""

    n: int
    mean_sq: float  # mean over the probe ks of E||d - d'||^2
    per_k: dict  # k -> E||d_{n,k} x - d'_{n,k} x||^2
    ortho: tuple  # ((k, l, mean <delta_k, delta_l>, stderr), ...)


def diff_moments(n: int, deltas) -> DiffMomentPoint:
    """Second moments and cross-k orthogonality of difference rows at one n.

    ``deltas`` maps each probe k to its ``(reps, d)`` rows of
    d_{n,k} x - d'_{n,k} x.  Each pair k < l gets the mean of the per-replicate
    dots <delta_k, delta_l> and its standard error std(ddof=1) / sqrt(reps).
    """
    ks = sorted(deltas)
    per_k = {k: float(np.mean(np.sum(deltas[k] ** 2, axis=1))) for k in ks}
    ortho = []
    for a, k in enumerate(ks):
        for l in ks[a + 1 :]:
            dots = np.sum(deltas[k] * deltas[l], axis=1)
            se = float(np.std(dots, ddof=1) / np.sqrt(dots.size))
            ortho.append((k, l, float(np.mean(dots)), se))
    return DiffMomentPoint(n=n, mean_sq=float(np.mean(list(per_k.values()))),
                           per_k=per_k, ortho=tuple(ortho))


def diff_moment_curve(e: Ensemble, n_grid, x, reps: int, r: RngStream) -> list:
    """:func:`diff_moments` at k in {1, ceil(n/2), n} over the grid;
    replicate i at size n draws from r.child(n, i)."""
    if reps < 100:
        raise ValueError("reps must be >= 100")
    x = as_vector(x, e.dim, "x")
    out = []
    for n in n_grid:
        deltas = engine.diff_pairs(e, precompute_kernel(e, n), x,
                                   lambda i, n=n: r.child(n, i), reps,
                                   ks=sorted({1, (n + 1) // 2, n}))
        out.append(diff_moments(n, deltas))
    return out


def riemann_cov_value(e: Ensemble, n: int, x, y,
                      kern: PrecomputedKernel | None = None) -> float:
    """The deterministic Riemann sum (1/n) sum_k E <y, e^{EA(k-1)/n} (A - EA)
    e^{EA(n-k)/n} x>^2 that the variance condition compares against Sigma."""
    kern = kern if kern is not None else precompute_kernel(e, n)
    x = as_vector(x, e.dim, "x")
    y = as_vector(y, e.dim, "y")
    total = 0.0
    for k in range(1, n + 1):
        w = kern.p_powers[k - 1].T @ y
        u = kern.p_powers[n - k] @ x
        total += e.centered_projection(w, u)
    return total / n


def riemann_cov_error(e: Ensemble, n: int, x, y,
                      kern: PrecomputedKernel | None = None) -> float:
    """|Riemann sum - sigma_projected|; decays O(1/n) for smooth integrands."""
    return abs(riemann_cov_value(e, n, x, y, kern) - sigma_projected(e, x, y))
