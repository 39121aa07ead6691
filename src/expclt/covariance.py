"""Limit covariance of the normalized exponential product, three ways.

The limiting Gaussian variance of the projected product is the quadratic
form <y (x) y, Sigma (x (x) x)> with

    Sigma = int_0^1 (e^{Es})^{(x)2}  C  (e^{E(1-s)})^{(x)2} ds,

where E is the ensemble mean and C the centered second tensor moment.
Three independent routes compute it:

* :func:`sigma_full`             -- Van Loan's block exponential, exact and
  matrix-free at any d (``.full`` materializes Sigma for d <= 16);
* :func:`sigma_projected`        -- matrix-free scalar quadrature of q(s) =
  E <w(s), (A - EA) u(s)>^2 on :func:`quadrature_nodes` nodes, no d^4 storage;
* :func:`sigma_commuting_oracle` -- exact entrywise closed form for
  diagonal families, no quadrature at all.

Route agreement is the correctness oracle; nothing here is stochastic.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import count

import numpy as np

from .ensembles import Ensemble
from .linalg import as_vector, exp_block, gauss_legendre, mat_exp

__all__ = [
    "CovarianceOperator",
    "sigma_full",
    "sigma_projected",
    "sigma_projected_at",
    "quadrature_nodes",
    "sigma_commuting_oracle",
]


class CovarianceOperator:
    """Sigma of one ensemble, by Van Loan's block exponential.

    On d x d matrices X (x x^T stands for x (x) x), K X = E X + X E^T and
    C X = E[(A - EA) X (A - EA)^T].  L(T, B) = (K T + C B, K B) has
    exp(L)(0, X) = (Sigma X, e^K X) (C. Van Loan, IEEE TAC 23(3), 1978), so
    :meth:`project` is exact and matrix-free at any d.  ``full`` is built on
    first access, d <= 16 only; ``nodes`` is 0, as no quadrature runs.
    """

    nodes = 0

    def __init__(self, e: Ensemble):
        self.ensemble, self.dim = e, e.dim

    def project(self, x, y) -> float:
        """Projected variance <y^{(x)2}, Sigma x^{(x)2}>."""
        return self._project(as_vector(x, self.dim, "x"), as_vector(y, self.dim, "y"))

    @cached_property
    def full(self) -> np.ndarray:
        """The d^2 x d^2 matrix of Sigma, read-only (d <= 16)."""
        if self.dim > 16:
            raise ValueError(f"d={self.dim} too large to materialize Sigma; use project")
        full = self._full()
        full.flags.writeable = False
        return full

    def _project(self, x, y) -> float:
        # s steps of exp(L/s), with s >= 2 rho >= ||K||; each step sums its
        # Taylor series until the next term leaves both blocks unchanged.
        e, mean = self.ensemble, self.ensemble.mean()
        steps = max(1, math.ceil(2.0 * e.rho))
        t, b = np.zeros((self.dim, self.dim)), np.outer(x, x)
        for _ in range(steps):
            dt, db = t, b
            for j in count(1):
                dt, db = ((mean @ dt + dt @ mean.T + e.centered_action(db)) / (steps * j),
                          (mean @ db + db @ mean.T) / (steps * j))
                nt, nb = t + dt, b + db
                if np.array_equal(nt, t) and np.array_equal(nb, b):
                    break
                t, b = nt, nb
        return float(y @ t @ y)

    def _full(self) -> np.ndarray:
        # the top-right block of exp [[K, C], [0, K]] as d^2 x d^2 matrices
        e, n = self.ensemble, self.dim * self.dim
        eye = np.eye(self.dim)
        k = np.kron(e.mean(), eye) + np.kron(eye, e.mean())
        block = np.block([[k, e.central_second_moment()], [np.zeros((n, n)), k]])
        return mat_exp(block)[:n, n:].copy()


def sigma_full(e: Ensemble) -> CovarianceOperator:
    """Sigma by Van Loan's block exponential: exact, at any d."""
    return CovarianceOperator(e)


def quadrature_nodes(e: Ensemble) -> int:
    """Node count of :func:`sigma_projected`: max(16, 2^ceil(log2(2 rho + 8))), at most 512.  A
    mostly rotating mean makes the integrand oscillate like cos(4 ||EA|| s) and the m-node rule's
    error go like J_2m(2 ||EA||) (Davis & Rabinowitz 1984, 2.7), below 1e-16 at m >= 2 rho + 8."""
    return min(512, max(16, 2 ** math.ceil(math.log2(2.0 * e.rho + 8.0))))


def sigma_projected_at(e: Ensemble, x, y, m: int) -> float:
    """<y^{(x)2}, Sigma x^{(x)2}> by m-node quadrature, matrix-free.

    At each node: u = e^{E(1-s)} x, w = e^{Es}^T y, and the integrand
    q(s) = E <w, (A - EA) u>^2 is a probability-weighted sum of squares,
    hence >= 0 pointwise; one batched call takes every node's row.  Only d x d
    propagators are formed, one stacked exponential per side and block of nodes.
    """
    x, y = as_vector(x, e.dim, "x"), as_vector(y, e.dim, "y")
    rule, mean, step = gauss_legendre(m), e.mean(), exp_block(e.dim)
    u, w = np.empty((2, m, e.dim))
    for lo in range(0, m, step):
        s = rule.nodes[lo:lo + step, None, None]
        u[lo:lo + step] = mat_exp(mean * (1.0 - s)) @ x
        w[lo:lo + step] = np.swapaxes(mat_exp(mean * s), -1, -2) @ y
    return float(rule.weights @ e.centered_projection(w, u))


def sigma_projected(e: Ensemble, x, y) -> float:
    """Matrix-free projected variance on :func:`quadrature_nodes` nodes."""
    return sigma_projected_at(e, x, y, quadrature_nodes(e))


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


class _CommutingOracle(CovarianceOperator):
    """Closed-form Sigma of a diagonal ensemble; no quadrature involved.

    With E[A] = diag(b), the propagators are diagonal, so entry
    ((i,j),(k,l)) of Sigma is C[(i,j),(k,l)] times the scalar integral
    int_0^1 e^{(b_i+b_j)s} e^{(b_k+b_l)(1-s)} ds in closed form.  Diagonal
    draws make C vanish off (i,j) = (k,l), where C is E[delta_i delta_j] =
    C(ones)_ij and the integral is e^{b_i+b_j}: a projection costs O(d^2).
    """

    def _project(self, x, y) -> float:
        b = np.diagonal(self.ensemble.mean())
        moment = self.ensemble.centered_action(np.ones((self.dim, self.dim)))
        z = x * y
        return float(z @ (moment * np.exp(b[:, None] + b[None, :])) @ z)

    def _full(self) -> np.ndarray:
        b = np.diagonal(self.ensemble.mean())
        pair = (b[:, None] + b[None, :]).reshape(-1)  # alpha_(i,j) = b_i + b_j
        factors = _interval_exp_integral(pair[:, None], pair[None, :])
        return self.ensemble.central_second_moment() * factors


def sigma_commuting_oracle(e: Ensemble) -> CovarianceOperator:
    """Closed-form Sigma for diagonal families (see :class:`_CommutingOracle`)."""
    if not e.is_diagonal:
        raise ValueError("commuting oracle requires a diagonal ensemble")
    return _CommutingOracle(e)
