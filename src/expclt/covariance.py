"""Limit covariance of the normalized exponential product, three ways.

The limiting Gaussian variance of the projected product is the quadratic
form <y (x) y, Sigma (x (x) x)> with

    Sigma = int_0^1 (e^{Es})^{(x)2}  C  (e^{E(1-s)})^{(x)2} ds,

where E is the ensemble mean and C the centered second tensor moment.
Three independent routes compute it:

* :func:`sigma_full`             -- materialized d^2 x d^2 Gauss-Legendre
  quadrature (d <= 16 only);
* :func:`sigma_projected`        -- matrix-free scalar quadrature of
  q(s) = E <w(s), (A - EA) u(s)>^2, never touching d^4 storage;
* :func:`sigma_commuting_oracle` -- exact entrywise closed form for
  diagonal families, no quadrature at all.

Route agreement is the correctness oracle; nothing here is stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .linalg import as_vector, gauss_legendre, mat_exp

__all__ = [
    "CovarianceOperator",
    "sigma_full",
    "sigma_full_at",
    "sigma_projected",
    "sigma_projected_at",
    "sigma_commuting_oracle",
    "symmetry_defect",
]

# Adaptive quadrature policy: start small, double until the answer moves by
# less than TOL relative, never past MAX (the integrand is entire in s, so
# Gauss-Legendre converges superexponentially and the cap is generous).
_QUAD_TOL = 1e-12
_QUAD_START = 8
_QUAD_MAX = 256


@dataclass(frozen=True)
class CovarianceOperator:
    """The limit covariance as a materialized matrix.

    ``full`` is the d^2 x d^2 matrix.  ``nodes`` and ``rel_change`` record
    where the adaptive quadrature stopped (nodes=0, rel_change=0 for the
    quadrature-free oracle).
    """

    dim: int
    full: np.ndarray
    nodes: int
    rel_change: float

    def project(self, x, y) -> float:
        """Projected variance <y^{(x)2}, Sigma x^{(x)2}>."""
        x = as_vector(x, self.dim, "x")
        y = as_vector(y, self.dim, "y")
        return float(np.kron(y, y) @ self.full @ np.kron(x, x))


def sigma_full_at(e: Ensemble, m: int) -> np.ndarray:
    """Sigma by m-node Gauss-Legendre quadrature, materialized (d <= 16)."""
    d = e.dim
    if d > 16:
        raise ValueError(f"d={d} too large to materialize Sigma; use sigma_projected")
    rule = gauss_legendre(m)
    mean = e.mean()
    c = e.central_second_moment()
    # One integrand slab per node, combined in fixed node order (numpy's
    # pairwise-summing dot), so the result is scheduling independent.
    slabs = np.empty((m, d * d, d * d))
    for j, s in enumerate(rule.nodes):
        p = mat_exp(mean * s)
        q = mat_exp(mean * (1.0 - s))
        slabs[j] = np.kron(p, p) @ c @ np.kron(q, q)
    return np.tensordot(rule.weights, slabs, axes=1)


def sigma_projected_at(e: Ensemble, x, y, m: int) -> float:
    """<y^{(x)2}, Sigma x^{(x)2}> by m-node quadrature, matrix-free.

    At each node: u = e^{E(1-s)} x, w = e^{Es}^T y, and the integrand
    q(s) = E <w, (A - EA) u>^2 is a probability-weighted sum of squares,
    hence >= 0 pointwise. Only d x d intermediates are formed.
    """
    x = as_vector(x, e.dim, "x")
    y = as_vector(y, e.dim, "y")
    rule = gauss_legendre(m)
    mean = e.mean()
    values = np.empty(m)
    for j, s in enumerate(rule.nodes):
        u = mat_exp(mean * (1.0 - s)) @ x
        w = mat_exp(mean * s).T @ y
        values[j] = e.centered_projection(w, u)
    return float(rule.weights @ values)


def _adapt(evaluate, norm, tol: float):
    """Double the node count until the result stabilizes to tol relative."""
    m = _QUAD_START
    prev = evaluate(m)
    while True:
        m *= 2
        cur = evaluate(m)
        denom = max(norm(cur), np.finfo(float).tiny)
        delta = norm(cur - prev) / denom
        if delta <= tol or m >= _QUAD_MAX:
            return cur, m, delta
        prev = cur


def sigma_full(e: Ensemble, *, tol: float = _QUAD_TOL) -> CovarianceOperator:
    """Materialized Sigma with adaptive node doubling (d <= 16)."""
    full, m, delta = _adapt(lambda k: sigma_full_at(e, k), np.linalg.norm, tol)
    full.flags.writeable = False
    return CovarianceOperator(
        dim=e.dim,
        full=full,
        nodes=m,
        rel_change=delta,
    )


def sigma_projected(e: Ensemble, x, y, *, tol: float = _QUAD_TOL) -> float:
    """Matrix-free projected variance with the same adaptive policy."""
    value, _, _ = _adapt(lambda k: sigma_projected_at(e, x, y, k), abs, tol)
    return value


def _interval_exp_integral(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Entrywise ``int_0^1 e^{alpha s} e^{beta (1-s)} ds``.

    Equals (e^alpha - e^beta)/(alpha - beta) off the diagonal alpha = beta
    and e^alpha on it; evaluated as e^beta expm1(delta)/delta to keep full
    precision as delta -> 0.
    """
    delta = alpha - beta
    near = np.abs(delta) < 1e-8
    safe = np.where(near, 1.0, delta)
    ratio = np.where(near, 1.0 + delta / 2.0 + delta * delta / 6.0, np.expm1(safe) / safe)
    return np.exp(beta) * ratio


def sigma_commuting_oracle(e: Ensemble) -> CovarianceOperator:
    """Closed-form Sigma for diagonal families; no quadrature involved.

    With E[A] = diag(b), the propagators are diagonal, so entry
    ((i,j),(k,l)) of Sigma is C[(i,j),(k,l)] times the scalar integral
    int_0^1 e^{(b_i+b_j)s} e^{(b_k+b_l)(1-s)} ds in closed form.
    """
    if not e.is_diagonal:
        raise ValueError("commuting oracle requires a diagonal ensemble")
    d = e.dim
    b = np.diagonal(e.mean())
    pair = (b[:, None] + b[None, :]).reshape(d * d)  # alpha_(i,j) = b_i + b_j
    factors = _interval_exp_integral(pair[:, None], pair[None, :])
    full = e.central_second_moment() * factors
    full.flags.writeable = False
    return CovarianceOperator(
        dim=d,
        full=full,
        nodes=0,
        rel_change=0.0,
    )


def symmetry_defect(op: CovarianceOperator) -> float:
    """Relative Frobenius asymmetry of the materialized matrix.

    Reported, never asserted: Sigma is symmetric as an operator on the
    tensor square, but its matrix need not equal its transpose entrywise
    for non-symmetric A.
    """
    scale = max(float(np.linalg.norm(op.full)), np.finfo(float).tiny)
    return float(np.linalg.norm(op.full - op.full.T)) / scale
