"""Dense small-matrix numerics shared by every other module.

Everything here operates on plain float64 numpy arrays: square ``(d, d)``
matrices stand for bounded operators on a truncated space, length-``d``
vectors for probe directions.  All functions are pure; no input is ever
mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "as_matrix",
    "as_vector",
    "mat_exp",
    "op_norm",
    "gauss_legendre",
]

# Pade-13 numerator coefficients for the scaling-and-squaring exponential.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)

# Largest 1-norm for which the degree-13 approximant alone is accurate.
_PADE13_THETA = 5.371920351148152


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite square float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-d float64 array."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"{name} has dimension {x.shape[0]}, expected {dim}")
    return x


def _is_diagonal(a: np.ndarray) -> bool:
    return np.count_nonzero(a - np.diag(np.diagonal(a))) == 0


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring.

    Diagonal input takes an exact elementwise path, so 1x1 matrices and
    diagonal operators are as accurate as ``exp`` itself.
    """
    m = as_matrix(a)
    if _is_diagonal(m):
        return np.diag(np.exp(np.diagonal(m)))

    norm1 = float(np.max(np.sum(np.abs(m), axis=0)))
    squarings = 0
    if norm1 > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm1 / _PADE13_THETA)))
        m = m / (2.0**squarings)

    b = _PADE13_B
    ident = np.eye(m.shape[0])
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident
    f = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        f = f @ f
    return f


def op_norm(a) -> float:
    """Spectral norm (largest singular value), via full SVD."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a rule normalized to the unit interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie strictly inside (0, 1)")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(weights)) - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1 within 1e-14")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of per-node values (fixed node order)."""
        return float(np.sum(self.weights * np.asarray(values, dtype=float)))


@functools.cache
def gauss_legendre(m: int) -> QuadratureRule:
    """m-node Gauss-Legendre rule mapped from [-1, 1] to [0, 1], solved once
    per m (the rule's arrays are read-only, so callers share them).

    Exact for polynomials of degree <= 2m - 1.
    """
    if not 1 <= m <= 512:
        raise ValueError(f"node count must be in [1, 512], got {m}")
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return QuadratureRule(nodes=(nodes + 1.0) / 2.0, weights=weights / 2.0)
