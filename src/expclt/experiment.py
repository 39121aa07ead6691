"""Experiment orchestration: config in, suites out, everything reproducible.

A run is described by one JSON config file:

    {
      "ensemble": {"family": "two_point", "a0": [[0.0]], "a1": [[1.0]], "p": 0.5},
      "probes": "canonical",            // or {"x": [...], "y": [...]}
      "n_grid": [1024, 2048, 4096],
      "replicates": 20000,
      "master_seed": 20260818,
      "suites": ["clt", "covariance"],
      "output_dir": "results",
      "variance_rtol": 0.05,            // optional, default 0.07
      "structure_draws": 100000         // optional, default 100000
    }

Families and their parameters: ``two_point`` (a0, a1, p), ``finite_support``
(matrices, probabilities), ``diagonal_uniform`` (dim, low, high),
``deterministic`` (matrix).  Matrices are row-major nested arrays.  The
"canonical" probe token means x = e1, y = e2 (x = y = e1 when dim is 1).

Each suite writes one CSV (RFC-4180, LF, shortest round-trip floats) and the
run writes a summary.json mirroring the RunReport.  Replicate streams are
keyed by (master_seed, suite tag, n, replicate index), replicate chunks are a
fixed function of the problem shape, and chunk results are reduced in index
order, so all emitted numbers are independent of the worker count.  A run
keeps at most one process pool, which every Monte Carlo pass shares.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, engine
from .covariance import (
    sigma_commuting_oracle,
    sigma_full,
    sigma_projected,
    sigma_projected_at,
    symmetry_defect,
)
from .dynamics import (
    diff_moments,
    dnk_norm_bound,
    doob_check,
    lemma_speed_curve,
    lindeberg_max_norm,
    lindeberg_threshold,
    max_dnk_norm,
    precompute_kernel,
    riemann_cov_error,
)
from .ensembles import (
    Ensemble,
    RngStream,
    deterministic,
    diagonal_uniform,
    finite_support,
    two_point,
)
from .linalg import as_vector, op_norm
from .stats import KS_CRITICAL_01, fit_slope, summarize

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "read_config",
    "validate_config",
    "config_digest",
    "SuiteResult",
    "RunReport",
    "run",
    "emit_csv",
    "SUITE_NAMES",
]

SUITE_NAMES = ("clt", "lemma_speed", "martingale", "doob", "covariance")

_LINDEBERG_EPS = 0.1

# Largest accepted rho = max ||A||: statistics grow like powers of e^rho, and
# at rho = 200 an orthogonality SE overflows to inf (all suites, n = 16..64).
_MAX_RHO = 100.0

# Largest accepted ensemble.dim: memory grows like d^2. On a 2-core host the
# smallest clt, lemma_speed and martingale run of a diagonal law (n = 4, 8,
# 16, two replicates) peaks at 575 MiB in 14 s at d = 1024, and at 2.1 GiB in
# 75 s at d = 2048.
_MAX_DIM = 1024


class ConfigError(ValueError):
    """Config rejected; the message lists every violation found."""


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: Ensemble
    x: np.ndarray
    y: np.ndarray
    n_grid: tuple
    replicates: int
    master_seed: int
    suites: tuple
    output_dir: str
    variance_rtol: float = 0.07
    structure_draws: int = 100000


# --- config schema ----------------------------------------------------------
#
# A table maps each field of a JSON object to (default, check); the default
# _REQUIRED marks a field that must be given. A check returns the field's
# converted value, or raises ValueError, TypeError or OverflowError, whose text
# follows the field's path in the error.

_REQUIRED = object()


def _test(ok, what, convert=lambda v: v):
    """Check that converts the values ``ok`` accepts; the rest must be ``what``."""
    def check(v):
        if not ok(v):
            raise ValueError(f"must be {what}, got {v!r}")
        return convert(v)
    return check


def _probe(v):
    x = as_vector(v, None, "probe")
    if not np.any(x):  # a zero probe makes sigma^2 = 0 and every check vacuous
        raise ValueError("must not be the zero vector")
    return x


def _fields(raw: dict, table: dict, path: str = "", label: str = ""):
    """The fields of ``raw`` that pass ``table``, with the defaults of optional
    fields left out, and the violations; a nested object, which has a path,
    raises them as the args of a ConfigError. Unknown keys are listed under
    the object's path, or one per line at the root."""
    out, errors = {}, []
    extra = sorted(set(raw) - set(table))
    if extra and path:
        errors.append(f"{path}: unknown fields for {label}: {extra}")
    else:
        errors += [f"{k}: unknown field" for k in extra]
    for name, (default, check) in table.items():
        where = f"{path}.{name}" if path else name
        if name not in raw:
            if default is _REQUIRED:
                errors.append(f"{where}: required field missing")
            else:
                out[name] = default
            continue
        try:
            out[name] = check(raw[name])
        except ConfigError as exc:
            errors += exc.args
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append(f"{where}: {exc}")
    if errors and path:
        raise ConfigError(*errors)
    return out, errors


# type(v) is int, not isinstance: JSON true and false are not counts or seeds
_DIM = _test(lambda v: type(v) is int and 1 <= v <= _MAX_DIM,
             f"an integer >= 1 and <= {_MAX_DIM}")
_REAL = (_REQUIRED, _test(lambda v: type(v) in (int, float) and math.isfinite(v),
                          "a finite number"))


def _matrices(ndim: int, what: str):
    """Check for ``ndim`` nested lists whose matrices are at most _MAX_DIM on a
    side, so the factory's SVD never runs on a larger one."""
    def check(v):
        shape = np.shape(v)
        if len(shape) != ndim:
            raise ValueError(f"must be {what}, got {v!r}")
        if max(shape[-2:]) > _MAX_DIM:
            raise ValueError(f"must be at most {_MAX_DIM} x {_MAX_DIM}, got shape {shape}")
        return v
    return _REQUIRED, check


_MATRIX = _matrices(2, "a matrix (a list of rows)")

# Each family's fields besides "family" and an optional "dim", and the factory
# that takes them as keyword arguments. The factory converts them and checks
# the law itself (probabilities, support size, p and low <= high).
_FAMILIES = {
    "two_point": (two_point, {"a0": _MATRIX, "a1": _MATRIX, "p": _REAL}),
    "finite_support": (finite_support, {
        "matrices": _matrices(3, "a list of matrices of one shape"),
        "probabilities": (_REQUIRED, _test(lambda v: np.ndim(v) == 1,
                                           "a list of numbers"))}),
    "diagonal_uniform": (diagonal_uniform, {"dim": (_REQUIRED, _DIM),
                                            "low": _REAL, "high": _REAL}),
    "deterministic": (deterministic, {"matrix": _MATRIX}),
}


def _ensemble(spec) -> Ensemble:
    if type(spec) is not dict:
        raise ValueError("must be an object")
    family = spec.get("family")
    if not (type(family) is str and family in _FAMILIES):
        raise ConfigError(f"ensemble.family: must be one of {sorted(_FAMILIES)}, "
                          f"got {family!r}")
    factory, table = _FAMILIES[family]
    args, errors = _fields(spec, {"family": (_REQUIRED, str), "dim": (None, _DIM), **table},
                           "ensemble", f"family {family}")
    e = factory(**{k: args[k] for k in table})
    if args["dim"] not in (None, e.dim):
        errors.append(f"ensemble.dim: declared {args['dim']} but matrices have "
                      f"dimension {e.dim}")
    if e.rho > _MAX_RHO:
        errors.append(f"ensemble: rho = max ||A|| is {float(e.rho)!r}, above the cap "
                      f"{_MAX_RHO:g}")
    if errors:
        raise ConfigError(*errors)
    return e


def _probes(spec):
    if spec == "canonical":
        return spec
    if type(spec) is not dict:
        raise ValueError('must be "canonical" or an object with fields x, y')
    f, _ = _fields(spec, {"x": (_REQUIRED, _probe), "y": (_REQUIRED, _probe)},
                   "probes", "explicit probes")
    return f["x"], f["y"]


_FIELDS = {
    "ensemble": (_REQUIRED, _ensemble),
    "probes": ("canonical", _probes),
    "n_grid": (_REQUIRED, _test(
        lambda v: type(v) is list and v and all(type(n) is int for n in v)
        and all(a < b for a, b in zip([0] + v, v)),
        "a nonempty strictly increasing list of integers >= 1", tuple)),
    # sample variances, KS and the slope fits need at least two samples
    "replicates": (_REQUIRED, _test(lambda v: type(v) is int and v >= 2,
                                    "an integer >= 2")),
    "master_seed": (_REQUIRED, _test(lambda v: type(v) is int and 0 <= v < 2**64,
                                     "an integer in [0, 2^64)")),
    "suites": (_REQUIRED, _test(
        lambda v: type(v) is list and v and all(s in SUITE_NAMES for s in v)
        and len(set(v)) == len(v),
        f"a nonempty list of suite names from {list(SUITE_NAMES)}, without duplicates",
        tuple)),
    "output_dir": (_REQUIRED, _test(lambda v: type(v) is str and v, "a nonempty string")),
    "variance_rtol": (ExperimentConfig.variance_rtol, _test(
        lambda v: type(v) in (int, float) and 0 < v < 1, "a number in (0, 1)")),
    "structure_draws": (ExperimentConfig.structure_draws, _test(
        lambda v: type(v) is int and v >= 100, "an integer >= 100")),
}


def read_config(path) -> dict:
    """The JSON object in the config file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, an integer past Python's digit limit, or nested
        # deeper than the parser recurses
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def validate_config(raw: dict) -> ExperimentConfig:
    """Check a config object against the field tables, reporting every violation."""
    f, errors = _fields(raw, _FIELDS)
    e, probes = f.get("ensemble"), f.pop("probes", None)
    if e is not None and probes is not None:
        x, y = np.eye(e.dim)[[0, min(1, e.dim - 1)]] if probes == "canonical" else probes
        errors += [f"probes.{name}: probe has dimension {len(v)}, expected {e.dim}"
                   for name, v in zip("xy", (x, y)) if len(v) != e.dim]
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return ExperimentConfig(x=x, y=y, **f)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, reporting every violation at once."""
    return validate_config(read_config(path))


def config_digest(cfg: ExperimentConfig) -> str:
    """SHA-256 over the canonical semantic content of the config.

    Whitespace, field order, and the "canonical" probe shorthand do not
    matter; the output directory and worker count are execution parameters,
    not semantics, and are excluded.
    """
    e = cfg.ensemble
    payload = {
        "family": e.family,
        "dim": e.dim,
        "support": None if e.support is None else [m.tolist() for m in e.support],
        "probabilities": None if e.probabilities is None else e.probabilities.tolist(),
        "low": e.low,
        "high": e.high,
        "x": cfg.x.tolist(),
        "y": cfg.y.tolist(),
        "n_grid": list(cfg.n_grid),
        "replicates": cfg.replicates,
        "master_seed": cfg.master_seed,
        "suites": sorted(cfg.suites),
        "variance_rtol": cfg.variance_rtol,
        "structure_draws": cfg.structure_draws,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --- CSV emission -----------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def emit_csv(header, rows, path) -> None:
    """RFC-4180-style CSV with LF endings and round-trip-exact floats."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([str(h) for h in header])
        for row in rows:
            w.writerow([_cell(v) for v in row])


# --- parallel replicate machinery -------------------------------------------

# Kernels by (config digest, n), shared by the suites of one run() and emptied
# when it returns: a kernel holds about 16 MB at d=16, n=4096.  Each worker
# process keeps its own for the run, as its pool lives as long as the run.
_KERNEL_CACHE: dict = {}


def _kernel(e: Ensemble, key: str, n: int):
    kern = _KERNEL_CACHE.get((key, n))
    if kern is None:
        kern = precompute_kernel(e, n)
        _KERNEL_CACHE[(key, n)] = kern
    return kern


def _chunk_task(payload):
    fn, e, key, n, probes, seed, tag, lo, hi, kw = payload
    root = RngStream(seed)
    return fn(e, _kernel(e, key, n), *probes, lambda i: root.child(tag, n, lo + i),
              hi - lo, **kw)


def _run_chunks(cfg, key, tag, n, pool, fn, probes, **kw):
    """Engine pass ``fn`` over all replicates at one n, keyed by (tag, n, index):
    one call per chunk of :func:`engine.chunk_ranges`, on the run's process
    pool when there is one and the pass has more than one chunk."""
    e = cfg.ensemble
    payloads = [(fn, e, key, n, probes, cfg.master_seed, tag, lo, hi, kw)
                for lo, hi in engine.chunk_ranges(e, n, cfg.replicates)]
    if pool is None or len(payloads) <= 1:
        return engine.concat_chunks([_chunk_task(p) for p in payloads])
    return engine.concat_chunks(list(pool.map(_chunk_task, payloads)))


# --- suites ------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: dict
    header: tuple
    rows: tuple


def _degenerate_bound(e: Ensemble, n: int) -> float:
    return math.sqrt(n) * math.exp(e.rho) * 1e-11


def _is_effectively_deterministic(e: Ensemble) -> bool:
    """True when the law is a point mass, so every fluctuation is exactly 0."""
    if e.family == "deterministic":
        return True
    if e.is_finite_support:
        # a zero-weight matrix is never drawn, so it does not make the law random
        drawn = [m for p, m in zip(e.probabilities, e.support) if p > 0.0]
        return all(np.array_equal(m, drawn[0]) for m in drawn[1:])
    return e.low == e.high


def _suite_clt(cfg: ExperimentConfig, key: str, pool) -> SuiteResult:
    e = cfg.ensemble
    sigma2_ref = sigma_projected(e, cfg.x, cfg.y)
    degenerate = _is_effectively_deterministic(e)
    header = ("n", "replicate_count", "sigma2_ref", "sample_mean", "sample_variance",
              "skewness", "excess_kurtosis", "ks_distance", "ks_threshold_01")
    if sigma2_ref == 0.0 and not degenerate:
        # A random law seen through probes that project its limit to zero
        # (canonical probes on a diagonal family): every check would be vacuous.
        details = {"sigma2_ref": sigma2_ref, "degenerate": False,
                   "variance_rtol": cfg.variance_rtol, "per_n": {},
                   "pass_rule": "never: sigma2_ref = 0 for a law that is not a point mass",
                   "error": "probes: the projected limit variance is 0 although the "
                            "law is not a point mass; choose probes x, y that see "
                            "its fluctuations"}
        return SuiteResult("clt", False, details, header, ())
    rows = []
    per_n = {}
    checks = {}
    for n in cfg.n_grid:
        samples = _run_chunks(cfg, key, "clt", n, pool, engine.simulate_paths,
                              (cfg.x, cfg.y))["proj_xi"]
        stats = summarize(samples, sigma2_ref)
        if degenerate:
            bound = _degenerate_bound(e, n)
            max_abs = max(abs(stats.min), abs(stats.max))
            rows.append((n, stats.count, sigma2_ref, stats.mean, stats.variance,
                         stats.skewness, stats.excess_kurtosis, "degenerate", "degenerate"))
            per_n[n] = {"max_abs": max_abs, "zero_bound": bound,
                        "ks": "skipped (degenerate sigma2_ref = 0)"}
            checks[n] = max_abs <= bound
        else:
            threshold = KS_CRITICAL_01 / math.sqrt(stats.count)
            rows.append((n, stats.count, sigma2_ref, stats.mean, stats.variance,
                         stats.skewness, stats.excess_kurtosis, stats.ks_distance,
                         threshold))
            rel_var_err = abs(stats.variance - sigma2_ref) / sigma2_ref
            per_n[n] = {"sample_variance": stats.variance,
                        "relative_variance_error": rel_var_err,
                        "ks_distance": stats.ks_distance, "ks_threshold": threshold}
            checks[n] = stats.ks_distance < threshold and rel_var_err <= cfg.variance_rtol
    n_pass = cfg.n_grid[-1]  # the distributional claim is asymptotic in n
    details = {
        "sigma2_ref": sigma2_ref,
        "degenerate": bool(degenerate),
        "variance_rtol": cfg.variance_rtol,
        "per_n": {str(n): v for n, v in per_n.items()},
        "pass_rule": ("max|sample| within the zero bound at every n" if degenerate
                      else f"KS below threshold and variance within rtol at n = {n_pass}"),
    }
    passed = all(checks.values()) if degenerate else checks[n_pass]
    return SuiteResult("clt", bool(passed), details, header, tuple(rows))


def _suite_lemma_speed(cfg: ExperimentConfig, key: str, pool) -> SuiteResult:
    e = cfg.ensemble
    points = lemma_speed_curve(e, cfg.n_grid)
    header = ("n", "norm_outer", "norm_inner", "k_max_norm")
    rows = tuple((p.n, p.norm_outer, p.norm_inner, p.k_max_norm) for p in points)
    if _is_effectively_deterministic(e):
        # Point mass: each norm compares powers, of order k <= n, of one
        # matrix computed two ways.  The two differ by under 1e-10 relative
        # (weights sum to 1 within 1e-12; a weighted sum of up to 65,536 terms
        # rounds by under 2e-11), which a k-th power grows by at most n e^rho.
        per_n = {str(p.n): {"max_norm": max(p.norm_outer, p.norm_inner, p.k_max_norm),
                            "zero_bound": p.n * math.exp(e.rho) * 1e-10} for p in points}
        details = {"marker": "exact-zero", "per_n": per_n,
                   "pass_rule": "every norm within the zero bound n e^rho 1e-10"}
        ok = all(v["max_norm"] <= v["zero_bound"] for v in per_n.values())
        return SuiteResult("lemma_speed", ok, details, header, rows)
    # the norms of a law that is not a point mass can still round to 0
    if len(rows) < 3 or min(v for row in rows for v in row[1:]) <= 0.0:
        details = {"error": "need >= 3 grid points, and norms > 0 at each, for slope fits"}
        return SuiteResult("lemma_speed", False, details, header, rows)
    outer = fit_slope([(p.n, p.norm_outer) for p in points])
    inner = fit_slope([(p.n, p.norm_inner) for p in points])
    kmax = fit_slope([(p.n, p.k_max_norm) for p in points])
    ok = (abs(outer.slope + 1.0) <= 0.1 and abs(inner.slope + 2.0) <= 0.1
          and abs(kmax.slope + 1.0) <= 0.1)
    details = {
        "outer_slope": outer.slope, "outer_r2": outer.r_squared,
        "inner_slope": inner.slope, "inner_r2": inner.r_squared,
        "k_max_slope": kmax.slope,
        "bands": {"outer": [-1.1, -0.9], "inner": [-2.1, -1.9], "k_max": [-1.1, -0.9]},
    }
    return SuiteResult("lemma_speed", bool(ok), details, header, rows)


def _structure_check(cfg: ExperimentConfig, key: str, n: int):
    """MC mean of d_{n,k} at k in {1, n/2, n}: ||mean|| against 4 SEs of zero."""
    e = cfg.ensemble
    kern = _kernel(e, key, n)
    root = RngStream(cfg.master_seed)
    reps = cfg.structure_draws
    out = {}
    for k in sorted({1, max(1, n // 2), n}):
        r = root.child("martingale-structure", n, k)
        if e.is_finite_support:
            idx = e.sample_indices(r, reps)
            counts = np.bincount(idx, minlength=len(e.support)) / reps
            mats = [
                kern.p_powers[k - 1] @ delta @ kern.p_powers[n - k] / math.sqrt(n)
                for delta in e._deltas
            ]
            mean_mat = sum(c * m for c, m in zip(counts, mats))
            var_entries = sum(c * (m - mean_mat) ** 2 for c, m in zip(counts, mats))
        else:
            vals = e.sample_diagonal_values(r, reps) - 0.5 * (e.low + e.high)
            coeff = math.exp(0.5 * (e.low + e.high) * (n - 1) / n) / math.sqrt(n)
            diag_mean = coeff * vals.mean(axis=0)
            diag_var = coeff**2 * vals.var(axis=0)
            mean_mat = np.diag(diag_mean)
            var_entries = np.diag(diag_var)
        se_frob = math.sqrt(float(np.sum(var_entries)) / reps)
        out[k] = {
            "mean_norm": float(op_norm(mean_mat)),
            "se_4": 4.0 * se_frob,
            "ok": bool(op_norm(mean_mat) <= 4.0 * se_frob + 1e-15),
        }
    return out


def _suite_martingale(cfg: ExperimentConfig, key: str, pool) -> SuiteResult:
    e = cfg.ensemble
    header = ("n", "mean_Rn_norm", "mean_diff_sq", "mean_Mn_norm", "mean_Mn_norm_sq",
              "riemann_cov_error", "median_Rn_norm", "q90_diff_norm")
    rows = []
    bound_ok = True
    lindeberg = {}
    ortho_ok = True
    ortho_stats = {}
    n_star = lindeberg_threshold(e, _LINDEBERG_EPS)
    for n in cfg.n_grid:
        stats = _run_chunks(cfg, key, "martingale", n, pool, engine.simulate_paths,
                            (cfg.x, cfg.y), want_s=True, want_s_prime=True)
        kern = _kernel(e, key, n)
        ks = sorted({1, (n + 1) // 2, n})
        diff = diff_moments(n, _run_chunks(cfg, key, "martingale-diff", n, pool,
                                           engine.diff_pairs, (cfg.x,), ks=ks))
        for _, _, mean_dot, se in diff.ortho:
            if abs(mean_dot) > 4.0 * se + 1e-30:
                ortho_ok = False
        ortho_stats[str(n)] = [
            {"k": a, "l": b, "mean_dot": m, "se": s} for a, b, m, s in diff.ortho
        ]

        rn, mkn = stats["r_norm"], stats["mk_norm"]
        rows.append((n, float(np.mean(rn)), diff.mean_sq, float(np.mean(mkn)),
                     float(np.mean(mkn**2)),
                     float(riemann_cov_error(e, n, cfg.x, cfg.y, kern)),
                     float(np.median(rn)), float(np.quantile(stats["diff_norm"], 0.9))))

        # Exact per-draw bound: the max is over the whole support, which
        # dominates anything actually sampled.
        bound = dnk_norm_bound(e, n) * (1.0 + 1e-12)
        if any(max_dnk_norm(e, n, k, kern) > bound for k in ks):
            bound_ok = False
        if n > n_star:
            worst = lindeberg_max_norm(e, n, kern)
            lindeberg[str(n)] = worst
            if worst > _LINDEBERG_EPS:
                bound_ok = False

    structure = _structure_check(cfg, key, cfg.n_grid[-1])
    structure_ok = all(v["ok"] for v in structure.values())
    curve = {h: [(r[0], r[j]) for r in rows] for j, h in enumerate(header)}  # (n, value)

    slopes_ok = True
    fits = {}

    def fit(name):
        """Slope fit of one curve, or None with its marker or error in ``fits``."""
        nonlocal slopes_ok
        pts = curve[name]
        if all(v == 0.0 for _, v in pts):
            # Identically zero for this law and probe pair (e.g. projections
            # that vanish structurally, or remainders of commuting draws); the
            # decay claim holds trivially.
            fits[name] = {"marker": "exact-zero"}
            return None
        if sum(v > 0.0 for _, v in pts) < 3:
            fits[name] = {"error": "need >= 3 positive values for a slope fit"}
            slopes_ok = False
            return None
        return fit_slope(pts)

    point_mass = _is_effectively_deterministic(e)
    if point_mass:
        # Point-mass law: every martingale quantity is an exact zero up to
        # rounding, so there is no decay rate to fit.
        fits["marker"] = "exact-zero"
        for (n, v), (_, m2) in zip(curve["median_Rn_norm"], curve["mean_Mn_norm_sq"]):
            zb = _degenerate_bound(e, n)
            if v > 1e-10 * math.sqrt(n) or m2 > zb * zb:
                slopes_ok = False
    elif len(cfg.n_grid) >= 3:
        bands = {
            "mean_diff_sq": (-2.0, 0.3),
            "mean_Mn_norm": (-0.5, 0.2),
            "mean_Mn_norm_sq": (-1.0, 0.25),
            "riemann_cov_error": (-1.0, 0.2),
        }
        for name, (target, tol) in bands.items():
            f = fit(name)
            if f is None:
                continue
            fits[name] = {"slope": f.slope, "target": target, "tol": tol,
                          "r_squared": f.r_squared}
            if abs(f.slope - target) > tol:
                slopes_ok = False
        # The remainder is only upper-bounded by O(1/sqrt(n)); its true decay
        # is O(1/n) (the Taylor remainders are themselves conditionally
        # centered, so they add in quadrature). Check the bound one-sided.
        rn_fit = fit("median_Rn_norm")
        if rn_fit is not None:
            fits["median_Rn_norm"] = {"slope": rn_fit.slope, "max_allowed": -0.3,
                                      "r_squared": rn_fit.r_squared}
            if rn_fit.slope > -0.3:
                slopes_ok = False
        q90_fit = fit("q90_diff_norm")
        if q90_fit is not None:
            q90 = [v for _, v in curve["q90_diff_norm"]]
            q90_monotone = all(b <= a for a, b in zip(q90, q90[1:]))
            fits["q90_diff_norm"] = {"slope": q90_fit.slope, "max_allowed": -0.4,
                                     "monotone_decreasing": q90_monotone}
            if q90_fit.slope > -0.4 or not q90_monotone:
                slopes_ok = False
    else:
        slopes_ok = False
        fits["error"] = "need >= 3 grid points for slope fits"

    details = {
        "slopes": fits,
        "draw_bound_ok": bool(bound_ok),
        "lindeberg_threshold_n": n_star,
        "lindeberg_eps": _LINDEBERG_EPS,
        "lindeberg_max_norms": lindeberg,
        "structure_check": {str(k): v for k, v in structure.items()},
        "orthogonality": ortho_stats,
        "orthogonality_ok": bool(ortho_ok),
    }
    if not point_mass and all(v == 0.0 for r in rows for v in r[1:]):
        # A random law whose every curve is exactly 0: the probes miss its
        # fluctuations, and each decay claim would hold vacuously.
        details["error"] = ("probes: every martingale curve is exactly 0 although the "
                            "law is not a point mass; choose probes x, y that see its "
                            "fluctuations")
    passed = (slopes_ok and bound_ok and structure_ok and ortho_ok
              and "error" not in details)
    return SuiteResult("martingale", bool(passed), details, header, tuple(rows))


def _suite_doob(cfg: ExperimentConfig, key: str, pool) -> SuiteResult:
    e = cfg.ensemble
    n = cfg.n_grid[-1]
    kern = _kernel(e, key, n)
    root = RngStream(cfg.master_seed)
    header = ("k", "identity_residual", "max_subset_bound_ratio")
    rows = []
    ok = True
    for k in range(1, min(10, n) + 1):
        r = root.child("doob", n, k)
        draws = [e.sample(r) for _ in range(k)]
        chk = doob_check(e, n, k, draws, cfg.x, kern)
        rows.append((k, chk.identity_residual, chk.max_subset_bound_ratio))
        if chk.identity_residual > 1e-10 or chk.max_subset_bound_ratio > 1.0 + 1e-9:
            ok = False
    details = {
        "n": n,
        "max_identity_residual": max(r[1] for r in rows),
        "max_subset_bound_ratio": max(r[2] for r in rows),
        "tolerances": {"identity": 1e-10, "bound_ratio": 1.0},
    }
    return SuiteResult("doob", bool(ok), details, header, tuple(rows))


def _suite_covariance(cfg: ExperimentConfig, key: str, pool) -> SuiteResult:
    e = cfg.ensemble
    header = ("max_route_delta", "oracle_delta", "node_doubling_delta",
              "min_projected_variance", "max_shift_delta", "symmetry_defect")
    if e.dim > 16:
        details = {"error": f"d={e.dim} cannot materialize sigma_full (cap 16)"}
        return SuiteResult("covariance", False, details, header, ())

    op = sigma_full(e)
    probes = [(cfg.x, cfg.y)]
    r = RngStream(cfg.master_seed).child("covariance-probes")
    for _ in range(20):
        probes.append((2.0 * r.uniform(e.dim) - 1.0, 2.0 * r.uniform(e.dim) - 1.0))

    max_route = 0.0
    min_proj = np.inf
    scale_floor = 0.0
    values = [op.full]  # every sigma computed, for the point-mass check
    for px, py in probes:
        proj = sigma_projected(e, px, py)
        qf = op.project(px, py)
        values += [proj, qf]
        scale = max(abs(proj), abs(qf), np.finfo(float).tiny)
        max_route = max(max_route, abs(proj - qf) / scale)
        min_proj = min(min_proj, proj)
        scale_floor = max(scale_floor,
                          float(px @ px) * float(py @ py) * max(1.0, scale))

    v1 = sigma_projected_at(e, cfg.x, cfg.y, 64)
    v2 = sigma_projected_at(e, cfg.x, cfg.y, 128)
    doubling = abs(v2 - v1) / max(abs(v2), np.finfo(float).tiny)

    oracle_delta = float("nan")
    if e.is_diagonal:
        oracle = sigma_commuting_oracle(e)
        denom = max(float(np.linalg.norm(op.full)), np.finfo(float).tiny)
        oracle_delta = float(np.linalg.norm(op.full - oracle.full)) / denom
        values.append(oracle.full)

    base = sigma_projected(e, cfg.x, cfg.y)
    max_shift = 0.0
    for c in (-1.0, 0.5):
        shifted = sigma_projected(e.shifted(c), cfg.x, cfg.y)
        target = math.exp(2.0 * c) * base
        denom = max(abs(target), np.finfo(float).tiny)
        max_shift = max(max_shift, abs(shifted - target) / denom)
        values.append(shifted)
    values += [v1, v2, base]

    sym = symmetry_defect(op)
    rows = ((max_route, oracle_delta, doubling, min_proj, max_shift, sym),)
    details = {
        "quadrature_nodes": op.nodes,
        "max_route_delta": max_route,
        "oracle_delta": None if math.isnan(oracle_delta) else oracle_delta,
        "node_doubling_delta": doubling,
        "min_projected_variance": float(min_proj),
        "max_shift_delta": max_shift,
        "symmetry_defect": sym,
        "probe_pairs_checked": len(probes),
    }
    if _is_effectively_deterministic(e):
        # Point mass: Sigma = 0, so every value above is rounding noise and
        # the relative deltas divide it by zero.  Each centered draw A_i - EA
        # rounds a weighted mean, to under 1e-10 (rho + 1) for the law and
        # its shifts by c in {-1, 0.5}, and Sigma is quadratic in it with
        # factors of at most e^{2 (rho + 1)} |x|^2 |y|^2.
        probe_scale = max(float(px @ px) * float(py @ py) for px, py in probes)
        zero_bound = ((1e-10 * (e.rho + 1.0) * math.exp(e.rho + 1.0)) ** 2
                      * max(1.0, probe_scale))
        max_abs = max(float(np.max(np.abs(v))) for v in values)
        details.update({"marker": "exact-zero", "max_abs_sigma": max_abs,
                        "zero_bound": zero_bound,
                        "pass_rule": "every sigma within the zero bound "
                                     "(1e-10 (rho+1) e^(rho+1))^2 max(1, |x|^2 |y|^2)"})
        return SuiteResult("covariance", bool(max_abs <= zero_bound), details, header, rows)
    ok = (max_route <= 1e-10
          and (math.isnan(oracle_delta) or oracle_delta <= 1e-10)
          and doubling < 1e-12
          and min_proj >= -1e-12 * scale_floor
          and max_shift <= 1e-10)
    return SuiteResult("covariance", bool(ok), details, header, rows)


_SUITES = {
    "clt": _suite_clt,
    "lemma_speed": _suite_lemma_speed,
    "martingale": _suite_martingale,
    "doob": _suite_doob,
    "covariance": _suite_covariance,
}


# --- run ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    version: str
    config_digest: str
    suites: dict  # name -> {"passed": bool, "details": {...}} (deterministic)
    timings_seconds: dict  # name -> wall clock (not part of the determinism contract)
    csv_paths: dict
    all_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config_digest": self.config_digest,
            "suites": self.suites,
            "timings_seconds": self.timings_seconds,
            "csv_paths": self.csv_paths,
            "all_passed": self.all_passed,
        }


def default_workers() -> int:
    """EXPCLT_WORKERS, an integer >= 1, when it is set; else min(4, cpu_count)."""
    env = os.environ.get("EXPCLT_WORKERS")
    if not env:
        return min(4, os.cpu_count() or 1)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"EXPCLT_WORKERS must be an integer >= 1, got {env!r}")
    return int(env)


def run(cfg: ExperimentConfig, workers: int | None = None) -> RunReport:
    """Execute the configured suites and write CSVs plus summary.json.

    Every number in the CSVs and in the deterministic part of the report is
    a pure function of the config; the worker count only changes wall time.
    A failing suite is recorded and the run continues.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    key = config_digest(cfg)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"output_dir: cannot create {cfg.output_dir!r}: {exc}") from exc

    suites = {}
    timings = {}
    csv_paths = {}
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for name in cfg.suites:
            t0 = time.perf_counter()
            result = _SUITES[name](cfg, key, pool)
            timings[name] = time.perf_counter() - t0
            path = os.path.join(cfg.output_dir, f"{name}.csv")
            emit_csv(result.header, result.rows, path)
            csv_paths[name] = path
            suites[name] = {"passed": result.passed, "details": result.details}
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _KERNEL_CACHE.clear()

    report = RunReport(
        version=__version__,
        config_digest=key,
        suites=suites,
        timings_seconds=timings,
        csv_paths=csv_paths,
        all_passed=all(s["passed"] for s in suites.values()),
    )
    # built before the file is opened: a NaN raises and leaves no summary.json
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(cfg.output_dir, "summary.json"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return report
