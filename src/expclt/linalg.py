"""Dense small-matrix numerics shared by every other module.

Everything here operates on plain float64 numpy arrays: square ``(d, d)``
matrices stand for bounded operators on a truncated space, ``(..., d, d)``
arrays for stacks of them, length-``d`` vectors for probe directions.  All
functions are pure; no input is ever mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "as_matrix",
    "as_vector",
    "exp_block",
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

# Entries per block of a stack that mat_exp takes at once: the Pade step holds
# about a dozen temporaries the size of its block, not of the whole stack.
_EXP_BLOCK = 65_536


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 square matrix, or a
    ``(..., d, d)`` stack of them."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(m).all():
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


def _pade_squared(x: np.ndarray) -> np.ndarray:
    """Pade-13 exp of each matrix of the ``(k, d, d)`` stack ``x``, scaled by its
    own power of two and squared back (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)."""
    norm1 = np.abs(x).sum(axis=1).max(axis=1)
    squarings = np.ceil(np.log2(np.maximum(norm1, _PADE13_THETA) / _PADE13_THETA))
    counts = squarings.tolist()
    fewest, most = int(min(counts)), int(max(counts))
    if most:  # else every divisor is 1
        x = x / (2.0**squarings)[:, None, None]
    b = _PADE13_B
    ident = np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    f = np.linalg.solve(v - u, v + u)
    for _ in range(fewest):
        f = f @ f
    for j in range(fewest, most):  # the matrices that need more squarings
        todo = squarings > j
        f[todo] = f[todo] @ f[todo]
    return f


def exp_block(d: int) -> int:
    """Matrices per block that :func:`mat_exp` takes at once: ``_EXP_BLOCK`` entries, or one."""
    return max(1, _EXP_BLOCK // (d * d))


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring, of one matrix or of
    each matrix of a ``(..., d, d)`` stack.

    Each matrix is taken as if alone: a diagonal one by the exact elementwise
    ``exp`` (so 1x1 matrices and diagonal operators are as accurate as ``exp``
    itself), a dense one with its own number of squarings.  Stacked ``matmul``
    and ``solve`` make the same BLAS and LAPACK call per matrix, so a matrix
    gets the same bits in a stack as alone.
    """
    m = as_matrix(a)
    d = m.shape[-1]
    k, step = m.size // (d * d), exp_block(d)
    if k > step:
        blocks = np.split(m.reshape(k, d, d), range(step, k, step))
        return np.concatenate([mat_exp(b) for b in blocks]).reshape(m.shape)
    rows = m.reshape(k, d * d)  # row i holds matrix i, its diagonal at steps of d + 1
    # a matrix is dense when one of its off-diagonal entries is nonzero
    dense = rows[:, 1:].reshape(k, d - 1, d + 1)[:, :, :d].any(axis=(1, 2))
    count = np.count_nonzero(dense)
    if k and count == k:
        return _pade_squared(m.reshape(k, d, d)).reshape(m.shape)
    out = np.zeros((k, d * d))
    diagonal = ~dense if count else slice(None)
    out[diagonal, :: d + 1] = np.exp(rows[diagonal, :: d + 1])
    if count:
        out[dense] = _pade_squared(m.reshape(k, d, d)[dense]).reshape(count, d * d)
    return out.reshape(m.shape)


def op_norm(a):
    """Spectral norm (largest singular value) of one matrix, as a float, or of
    each matrix of a ``(..., d, d)`` stack: an absolute value at d = 1, else
    the first singular value of a full SVD."""
    m = as_matrix(a)
    norms = np.abs(m[..., 0, 0]) if m.shape[-1] == 1 else np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


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
