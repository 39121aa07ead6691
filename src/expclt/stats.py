"""Goodness-of-fit and rate-estimation statistics for the Monte Carlo suites.

The distributional claim under test is always one-dimensional: a scalar
projection of the normalized product against the centered normal with the
quadrature variance.  Accordingly this module provides exactly a normal CDF,
a one-sample Kolmogorov-Smirnov distance with the asymptotic critical value,
two-pass sample moments, and log-log slope fits for the O(n^-a)
rate claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "normal_cdf",
    "ks_test",
    "KS_CRITICAL_01",
    "SampleStatistics",
    "summarize",
    "SlopeFit",
    "fit_slope",
]

# Asymptotic one-sample KS critical value at alpha = 0.01: c(alpha)/sqrt(N).
KS_CRITICAL_01 = 1.628


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))


_erfc_vec = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf_array(z: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc_vec(-z / math.sqrt(2.0)).astype(float)


def ks_test(samples, sigma2: float) -> tuple:
    """One-sample KS distance against N(0, sigma2), with the 1% threshold.

    Returns (distance, threshold) where threshold = 1.628/sqrt(N) is the
    asymptotic alpha = 0.01 critical value.  It lies above the exact finite-N
    value, so the test rejects less often than 1%: Stephens' finite-N form
    1.628/(sqrt(N) + 0.12 + 0.11/sqrt(N)) (J. R. Stat. Soc. B 32, 1970) is
    0.3% lower at N = 2000 (the README and benchmark configs), 1.3% at N = 100,
    and at N <= 2 (configs allow 2 replicates) the threshold exceeds 1, the
    largest possible distance.  sigma2 must be positive; the degenerate
    sigma2 = 0 case is a caller-side policy.

    A sample with ties is read as a lattice sample (a d = 1 finite-support
    law at finite n puts its mass on atoms): its empirical CDF is compared
    with the normal CDF at the midpoints between consecutive distinct values,
    Esseen's continuity correction (Acta Math. 77, 1945), and at the two ends
    at the outer atoms, below the first and from the last on.  A sample
    without ties takes the plain statistic.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("ks_test needs at least one sample")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    n = x.size
    x = np.sort(x)
    new = np.concatenate([[True], x[1:] != x[:-1]])  # first of each run of ties
    if new.all():
        f = _normal_cdf_array(x / math.sqrt(sigma2))
        i = np.arange(1, n + 1, dtype=float)
        distance = max(float(np.max(i / n - f)), float(np.max(f - (i - 1.0) / n)))
        return distance, KS_CRITICAL_01 / math.sqrt(n)
    atoms = x[new]
    below = np.flatnonzero(new)[1:] / n  # the empirical CDF between consecutive atoms
    at = np.concatenate([atoms[:1], 0.5 * (atoms[:-1] + atoms[1:]), atoms[-1:]])
    f = _normal_cdf_array(at / math.sqrt(sigma2))
    distance = float(np.max(np.abs(np.concatenate([[0.0], below, [1.0]]) - f)))
    return distance, KS_CRITICAL_01 / math.sqrt(n)


@dataclass(frozen=True)
class SampleStatistics:
    """Empirical summary of one scalar Monte Carlo sample."""

    count: int
    mean: float
    variance: float  # unbiased
    skewness: float
    excess_kurtosis: float
    ks_distance: float  # vs N(0, sigma2_ref); NaN when sigma2_ref = 0
    min: float
    max: float


def summarize(samples, sigma2_ref: float) -> SampleStatistics:
    """Two-pass moments plus the KS distance against N(0, sigma2_ref).

    The central sums are taken about the sample mean over the whole sample;
    the reference variance is the exact quadrature value, so the KS distance
    tests the claimed limit law rather than the sampler against itself.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("summarize needs at least two samples")
    if sigma2_ref < 0.0:
        raise ValueError(f"sigma2_ref must be >= 0, got {sigma2_ref}")
    n, mean = x.size, float(np.mean(x))
    d = x - mean
    d2 = d * d
    m2, m3, m4 = float(np.sum(d2)), float(np.sum(d2 * d)), float(np.sum(d2 * d2))
    variance = m2 / (n - 1)
    if m2 > 0.0 and m2 * m2 < np.finfo(float).tiny:
        # m2^2 is subnormal or 0 for samples below about 1e-77; skewness and
        # kurtosis are scale-free, so take them from x / max|x|
        scaled = summarize(x / np.max(np.abs(x)), 1.0)
        skew, kurt = scaled.skewness, scaled.excess_kurtosis
    elif m2 > 0.0:
        skew = math.sqrt(float(n)) * m3 / m2**1.5
        kurt = n * m4 / (m2 * m2) - 3.0
    else:
        skew = 0.0
        kurt = 0.0
    ks = ks_test(x, sigma2_ref)[0] if sigma2_ref > 0.0 else float("nan")
    return SampleStatistics(
        count=int(n),
        mean=mean,
        variance=variance,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_distance=ks,
        min=float(np.min(x)),
        max=float(np.max(x)),
    )


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log(value) against log(n) for a rate measurement."""

    slope: float
    r_squared: float


def fit_slope(points) -> SlopeFit:
    """Least-squares slope on log-log axes over the positive-valued points.

    Zero or negative values cannot be logged; they are excluded (an
    all-zero curve is the caller's exact-zero case, not a rate).
    """
    kept = [(float(n), float(v)) for n, v in points if v > 0.0]
    if len(kept) < 3:
        raise ValueError(f"fit_slope needs >= 3 positive points, got {len(kept)}")
    lx = np.log([n for n, _ in kept])
    ly = np.log([v for _, v in kept])
    mx, my = np.mean(lx), np.mean(ly)
    sxx = float(np.sum((lx - mx) ** 2))
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = float(my - slope * mx)
    resid = ly - (slope * lx + intercept)
    syy = float(np.sum((ly - my) ** 2))
    r2 = 1.0 if syy == 0.0 else max(0.0, 1.0 - float(np.sum(resid**2)) / syy)
    return SlopeFit(slope=float(slope), r_squared=r2)
