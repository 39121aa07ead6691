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
      "variance_rtol": 0.05             // optional, default 0.07
    }

Families and their parameters: ``two_point`` (a0, a1, p), ``finite_support``
(matrices, probabilities), ``diagonal_uniform`` (dim, low, high),
``deterministic`` (matrix).  Matrices are row-major nested arrays.  The
"canonical" probe token means x = e1, y = e2 (x = y = e1 when dim is 1).

Each suite writes one CSV (RFC-4180, LF, shortest round-trip floats) and the
run writes a summary.json mirroring the RunReport.  The clt and martingale
suites share one Monte Carlo pass per n, computed once: the pass draws from
the stream keyed by (master_seed, "clt", n), replicate i's path from its own
range of that stream's words, and each path is reduced row by row in its
chunk; the martingale suite's structure check
reads a tally of the draws at the largest n.  Chunks are a fixed function of
the problem shape and their results are joined in index order, so no emitted
number depends on the worker count or on the other suites configured.  A run
keeps at most one process pool, with no more processes than a pass has
chunks.  The suites that draw no pass run first, then martingale, then clt.
The chunks of every pass are sent to the pool as the run starts, in grid
order.  A run's suites and chunks read its references, Sigma(x, y) when first
read and the kernel of one n at a time; each pool worker builds its own once,
as it starts, so a chunk task carries only its n, wants, stream and bounds.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import operator
import os
import pickle
import reprlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, engine
from .covariance import (
    quadrature_nodes,
    sigma_commuting_oracle,
    sigma_full,
    sigma_projected,
    sigma_projected_at,
)
from .dynamics import (
    dnk_norm_bound,
    doob_check,
    dot_moments,
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
    "Check",
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

# Byte cap on each of the largest arrays of a run, checked before it starts,
# so that a config too large for memory exits 2 instead of raising
# MemoryError: the kernel tables of every n of the grid, an upper bound on the
# one kernel a process keeps at a time, plus the martingale suite's S and S'
# tables at the largest n; one chunk of draw rows; and the per-replicate
# results of every pass, which the run keeps until it ends. On a 2-core host a
# clt run of a diagonal law at d = 1024, n = 63 (1 GiB of tables, two
# replicates) peaks at 1080 MiB in 5.8 s. A pool has no more workers than
# leave a copy of the tables at the largest n in every process under the cap.
_MAX_BYTES = 1 << 30


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


# --- config schema ----------------------------------------------------------
#
# A table maps each field of a JSON object to (default, check); the default
# _REQUIRED marks a field that must be given. A check returns the field's
# converted value, or raises ValueError, TypeError or OverflowError, whose text
# follows the field's path in the error.

_REQUIRED = object()

# Echoes a rejected value in at most a few hundred characters, however large.
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 2


def _test(ok, what, convert=lambda v: v):
    """Check that converts the values ``ok`` accepts; the rest must be ``what``."""
    def check(v):
        if not ok(v):
            raise ValueError(f"must be {what}, got {_BRIEF.repr(v)}")
        return convert(v)
    return check


def _only_numbers(v) -> bool:
    """Whether every entry of the nested lists ``v`` is a JSON number: numpy
    would read a string, true or false as one."""
    return all(map(_only_numbers, v)) if type(v) is list else type(v) in (int, float)


def _probe(v):
    x = as_vector(v, None, "probe")
    if not _only_numbers(v):
        raise ValueError(f"must be a list of numbers, got {_BRIEF.repr(v)}")
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
        if len(shape) != ndim or not _only_numbers(v):
            raise ValueError(f"must be {what}, got {_BRIEF.repr(v)}")
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
        "probabilities": (_REQUIRED, _test(lambda v: np.ndim(v) == 1 and _only_numbers(v),
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
                          f"got {_BRIEF.repr(family)}")
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
    if e is not None and {"n_grid", "suites"} <= set(f):
        errors += _size_errors(e, f)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return ExperimentConfig(x=x, y=y, **f)


def _table_bytes(e: Ensemble, n_grid, suites) -> int:
    """Bytes of each n's kernel tables, plus the martingale S tables at the last n."""
    s_tables = engine.pass_bytes(e, n_grid[-1])[0] * ("martingale" in suites)
    return sum(16 * (k + 1) * e.dim**2 for k in n_grid) + s_tables


def _result_bytes(e: Ensemble, n_grid, reps: int, suites) -> int:
    """At most the bytes of the arrays that the grid's passes return: 8 a
    replicate for proj_xi and, for martingale, 72 for 9 more statistics and
    dots, and each chunk's tally rows, as many chunks as chunk_ranges makes."""
    wants = "martingale" in suites
    return sum(8 * reps + wants * (72 * reps + -(-reps // engine.batch_size(e, n))
                                   * engine.pass_bytes(e, n)[2]) for n in n_grid)


def _size_errors(e: Ensemble, f: dict) -> list:
    """A line naming ``n_grid`` or ``replicates`` for each array of the run
    whose bytes would pass the cap."""
    n, suites = f["n_grid"][-1], set(f["suites"])
    sizes = []  # (field, arrays, bytes) of the arrays the suites allocate
    if suites & {"clt", "martingale", "doob"}:
        sizes.append(("n_grid", f"the kernel tables of the grid and the S tables at n = {n}",
                      _table_bytes(e, f["n_grid"], suites)))
    if suites & {"clt", "martingale"}:
        sizes.append(("n_grid", f"the draw rows of one chunk at n = {n}",
                      engine.pass_bytes(e, n)[1]))
        if "replicates" in f:
            sizes.append(("replicates", "the per-replicate results of the passes",
                          _result_bytes(e, f["n_grid"], f["replicates"], suites)))
    return [f"{field}: {arrays} take {size / 2**30:.4g} GiB, above the cap of "
            f"{_MAX_BYTES / 2**30:g} GiB" for field, arrays, size in sizes if size > _MAX_BYTES]


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
        "support": None if e.support is None else e.support.tolist(),
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


class _References:
    """The references of one run of ``cfg``: Sigma(x, y) of its law and
    probes, computed when first read, and the kernel of one n at a time, whose
    tables go before another n's are built (16 MB at d=16, n=4096)."""

    worker = None  # a pool worker's own references, set by start_worker

    def __init__(self, cfg: ExperimentConfig):
        self.cfg, self._kern = cfg, None

    @classmethod
    def start_worker(cls, cfg: ExperimentConfig) -> None:
        """Pool initializer: the worker builds its own references of the run."""
        cls.worker = cls(cfg)

    @functools.cached_property
    def sigma2(self) -> float:
        return sigma_projected(self.cfg.ensemble, self.cfg.x, self.cfg.y)

    @property
    def clt_vacuous(self) -> bool:
        """Whether the clt suite stops before its first pass: probes that project
        the limit of a random law to zero would make every check vacuous."""
        return self.sigma2 == 0.0 and not self.cfg.ensemble.is_point_mass

    def kernel(self, n: int):
        if self._kern is None or self._kern.n != n:
            self._kern = None
            self._kern = precompute_kernel(self.cfg.ensemble, n)
        return self._kern


def _pass_kw(cfg: ExperimentConfig, n: int) -> dict:
    """The wants of the path pass at n: the clt suite reads its projections,
    which no want changes, and the martingale suite what it wants of the same
    draws."""
    if "martingale" not in cfg.suites:
        return {}
    # ks: the steps of the difference pairs
    return {"want_s_prime": True, "ks": sorted({1, (n + 1) // 2, n})}


def _passes(refs: _References) -> list:
    """The n of each path pass of the run, in grid order, when a suite takes
    them: the martingale suite, or a clt suite that does not stop early."""
    cfg = refs.cfg
    drawn = "martingale" in cfg.suites or ("clt" in cfg.suites and not refs.clt_vacuous)
    return list(cfg.n_grid) if drawn else []


def _chunk_task(refs, n, kw, stream, bounds):
    """The path pass at n over the replicates [lo, hi) = ``bounds`` of its pass
    ``stream``, with the kernel of ``refs``, or of the pool worker's when None."""
    (lo, hi), refs = bounds, refs or _References.worker
    return engine.simulate_paths(refs.cfg.ensemble, refs.kernel(n), refs.cfg.x, refs.cfg.y,
                                 stream, hi - lo, first=lo, **kw)


def _map_pass(refs: _References, n: int, pool):
    """The chunk results of the path pass at n, one per range of
    :func:`engine.chunk_ranges` in index order, from the pass stream keyed
    ``("clt", n)``: all sent now to the pool ``pool``, whose workers start with
    :meth:`_References.start_worker`, or computed here as read when it is None.
    A pooled task is pickled here first: one that cannot be raises in the run,
    where the pool's feeder thread would leave its results waited for forever."""
    cfg = refs.cfg
    task = functools.partial(_chunk_task, None if pool else refs, n, _pass_kw(cfg, n),
                             RngStream(cfg.master_seed).child("clt", n))
    if pool is not None:
        pickle.dumps(task)
    return (map if pool is None else pool.map)(
        task, engine.chunk_ranges(cfg.ensemble, n, cfg.replicates))


# --- suites ------------------------------------------------------------------

# The comparison of each Check rule: value <rule> bound holds
_RULES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One gate of a suite: ``value`` against ``bound`` by ``rule``, one of
    ``<=``, ``<`` or ``>=``.  ``margin`` is how far the value lies on the
    holding side of the bound, negative past it (0 at equality, where ``<``
    fails)."""

    name: str
    value: float
    bound: float
    rule: str

    @property
    def ok(self) -> bool:
        return bool(_RULES[self.rule](self.value, self.bound))

    @property
    def margin(self) -> float:
        return float(self.value - self.bound if self.rule == ">=" else self.bound - self.value)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple
    details: dict  # evidence, and an "error" when the suite could not judge
    header: tuple
    rows: tuple

    @property
    def passed(self) -> bool:
        """Every check holds and no error stopped the suite."""
        return "error" not in self.details and all(c.ok for c in self.checks)


def _degenerate_bound(e: Ensemble, n: int) -> float:
    return math.sqrt(n) * math.exp(e.rho) * 1e-11


def _suite_clt(cfg: ExperimentConfig, refs: _References, paths) -> SuiteResult:
    e, sigma2_ref = cfg.ensemble, refs.sigma2
    degenerate = e.is_point_mass
    header = ("n", "replicate_count", "sigma2_ref", "sample_mean", "sample_variance",
              "skewness", "excess_kurtosis", "ks_distance", "ks_threshold_01")
    if refs.clt_vacuous:
        details = {"sigma2_ref": sigma2_ref, "degenerate": False,
                   "variance_rtol": cfg.variance_rtol, "per_n": {},
                   "pass_rule": "never: sigma2_ref = 0 for a law that is not a point mass",
                   "error": "probes: the projected limit variance is 0 although the "
                            "law is not a point mass; choose probes x, y that see "
                            "its fluctuations"}
        return SuiteResult("clt", (), details, header, ())
    n_pass = cfg.n_grid[-1]  # the distributional claim is asymptotic in n
    rows, per_n, checks = [], {}, []
    for n in cfg.n_grid:
        stats = summarize(paths(n)["proj_xi"], sigma2_ref)
        if degenerate:
            bound = _degenerate_bound(e, n)
            max_abs = max(abs(stats.min), abs(stats.max))
            ks = ("degenerate", "degenerate")
            per_n[n] = {"max_abs": max_abs, "zero_bound": bound,
                        "ks": "skipped (degenerate sigma2_ref = 0)"}
            checks.append(Check(f"max_abs n={n}", max_abs, bound, "<="))
        else:
            ks = (stats.ks_distance, KS_CRITICAL_01 / math.sqrt(stats.count))
            rel_var_err = abs(stats.variance - sigma2_ref) / sigma2_ref
            per_n[n] = {"sample_variance": stats.variance,
                        "relative_variance_error": rel_var_err,
                        "ks_distance": ks[0], "ks_threshold": ks[1]}
            if n == n_pass:
                checks += [Check(f"ks_distance n={n}", *ks, "<"),
                           Check(f"relative_variance_error n={n}", rel_var_err,
                                 cfg.variance_rtol, "<=")]
        rows.append((n, stats.count, sigma2_ref, stats.mean, stats.variance,
                     stats.skewness, stats.excess_kurtosis, *ks))
    details = {
        "sigma2_ref": sigma2_ref,
        "degenerate": bool(degenerate),
        "variance_rtol": cfg.variance_rtol,
        "per_n": {str(n): v for n, v in per_n.items()},
        "pass_rule": ("max|sample| within the zero bound at every n" if degenerate
                      else f"KS below threshold and variance within rtol at n = {n_pass}"),
    }
    return SuiteResult("clt", tuple(checks), details, header, tuple(rows))


def _suite_lemma_speed(cfg: ExperimentConfig, refs: _References, paths) -> SuiteResult:
    e = cfg.ensemble
    points = lemma_speed_curve(e, cfg.n_grid)
    header = ("n", "norm_outer", "norm_inner", "k_max_norm")
    rows = tuple((p.n, p.norm_outer, p.norm_inner, p.k_max_norm) for p in points)
    if e.is_point_mass:
        # Point mass: each norm compares powers, of order k <= n, of one
        # matrix computed two ways.  The two differ by under 1e-10 relative
        # (weights sum to 1 within 1e-12; a weighted sum of up to 65,536 terms
        # rounds by under 2e-11), which a k-th power grows by at most n e^rho.
        checks = tuple(Check(f"max_norm n={p.n}", max(p.norm_outer, p.norm_inner, p.k_max_norm),
                             p.n * math.exp(e.rho) * 1e-10, "<=") for p in points)
        details = {"marker": "exact-zero",
                   "per_n": {str(p.n): {"max_norm": c.value} for p, c in zip(points, checks)},
                   "pass_rule": "every norm within the zero bound n e^rho 1e-10"}
        return SuiteResult("lemma_speed", checks, details, header, rows)
    # the norms of a law that is not a point mass can still round to 0
    if len(rows) < 3 or min(v for row in rows for v in row[1:]) <= 0.0:
        details = {"error": "need >= 3 grid points, and norms > 0 at each, for slope fits"}
        return SuiteResult("lemma_speed", (), details, header, rows)
    outer = fit_slope([(p.n, p.norm_outer) for p in points])
    inner = fit_slope([(p.n, p.norm_inner) for p in points])
    kmax = fit_slope([(p.n, p.k_max_norm) for p in points])
    checks = (Check("|outer_slope + 1|", abs(outer.slope + 1.0), 0.1, "<="),
              Check("|inner_slope + 2|", abs(inner.slope + 2.0), 0.1, "<="),
              Check("|k_max_slope + 1|", abs(kmax.slope + 1.0), 0.1, "<="))
    details = {
        "outer_slope": outer.slope, "outer_r2": outer.r_squared,
        "inner_slope": inner.slope, "inner_r2": inner.r_squared,
        "k_max_slope": kmax.slope,
    }
    return SuiteResult("lemma_speed", checks, details, header, rows)


def _structure_checks(cfg: ExperimentConfig, refs: _References, tally) -> list:
    """Mean of d_{n,k} = P_{k-1} (A - EA) P_{n-k} / sqrt(n) over the draws that
    ``tally`` holds of the path pass at the largest n, at k in {1, n/2, n}:
    ||mean|| against 4 standard errors of zero, from the law's exact moment."""
    e, n = cfg.ensemble, cfg.n_grid[-1]
    kern = refs.kernel(n)
    draws = n * cfg.replicates
    mean = e.centered_total(tally) / draws
    ks = sorted({1, max(1, n // 2), n})
    ps, qs = kern.p_powers[[k - 1 for k in ks]], kern.p_powers[[n - k for k in ks]]
    checks = []
    for k, p, q, norm in zip(ks, ps, qs, op_norm(ps @ mean @ qs)):
        # n E ||d_{n,k}||_F^2 = tr(P^T P C(Q Q^T)) = tr(P C(Q Q^T) P^T) >= 0, up to rounding
        second = float(np.sum(p @ e.centered_action(q @ q.T) * p))
        se_4 = 4.0 * math.sqrt(max(0.0, second) / (n * draws))
        checks.append(Check(f"structure |mean d_n,k| k={k}", float(norm) / math.sqrt(n),
                            se_4 + 1e-15, "<="))
    return checks


def _suite_martingale(cfg: ExperimentConfig, refs: _References, paths) -> SuiteResult:
    e = cfg.ensemble
    header = ("n", "mean_Rn_norm", "mean_diff_sq", "mean_Mn_norm", "mean_Mn_norm_sq",
              "riemann_cov_error", "median_Rn_norm", "q90_diff_norm")
    rows, checks = [], []
    n_star = lindeberg_threshold(e, _LINDEBERG_EPS)
    for n in cfg.n_grid:
        stats = paths(n)
        kern = refs.kernel(n)
        ks = _pass_kw(cfg, n)["ks"]
        diff = dot_moments(n, ks, stats)
        checks += [Check(f"|mean_dot| n={n} k={a} l={b}", abs(m), 4.0 * s + 1e-30, "<=")
                   for a, b, m, s in diff.ortho]

        rn, mkn = stats["r_norm"], stats["mk_norm"]
        rows.append((n, float(np.mean(rn)), diff.mean_sq, float(np.mean(mkn)),
                     float(np.mean(mkn**2)),
                     float(riemann_cov_error(e, n, cfg.x, cfg.y, kern)),
                     float(np.median(rn)), float(np.quantile(stats["diff_norm"], 0.9))))

        # Exact per-draw bound: the max is over the whole support, which
        # dominates anything actually sampled.
        bound = dnk_norm_bound(e, n) * (1.0 + 1e-12)
        checks += [Check(f"max_dnk_norm n={n} k={k}", max_dnk_norm(e, n, k, kern), bound, "<=")
                   for k in ks]
        if n > n_star:
            checks.append(Check(f"lindeberg_max_norm n={n}", lindeberg_max_norm(e, n, kern),
                                _LINDEBERG_EPS, "<="))

    checks += _structure_checks(cfg, refs, paths(cfg.n_grid[-1])["tally"])
    curve = {h: [(r[0], r[j]) for r in rows] for j, h in enumerate(header)}  # (n, value)
    fits = {}
    if e.is_point_mass:
        # Point-mass law: every martingale quantity is an exact zero up to
        # rounding, so there is no decay rate to fit.
        fits["marker"] = "exact-zero"
        for (n, v), (_, m2) in zip(curve["median_Rn_norm"], curve["mean_Mn_norm_sq"]):
            zb = _degenerate_bound(e, n)
            checks += [Check(f"median_Rn_norm n={n}", v, 1e-10 * math.sqrt(n), "<="),
                       Check(f"mean_Mn_norm_sq n={n}", m2, zb * zb, "<=")]
    elif len(cfg.n_grid) >= 3:
        # (curve, target, tol): |slope - target| <= tol, or slope <= tol
        # without a target.  The remainder is only upper-bounded by
        # O(1/sqrt(n)); its true decay is O(1/n) (the Taylor remainders are
        # themselves conditionally centered, so they add in quadrature), so
        # its bound is checked one-sided, as is the q90 difference's.
        for name, target, tol in (("mean_diff_sq", -2.0, 0.3), ("mean_Mn_norm", -0.5, 0.2),
                                  ("mean_Mn_norm_sq", -1.0, 0.25),
                                  ("riemann_cov_error", -1.0, 0.2),
                                  ("median_Rn_norm", None, -0.3), ("q90_diff_norm", None, -0.4)):
            pts = curve[name]
            positive = sum(v > 0.0 for _, v in pts)
            if all(v == 0.0 for _, v in pts):
                # Identically zero for this law and probe pair (e.g. projections
                # that vanish structurally, or remainders of commuting draws);
                # the decay claim holds trivially.
                fits[name] = {"marker": "exact-zero"}
            elif positive < 3:
                fits[name] = {"error": "need >= 3 positive values for a slope fit"}
                checks.append(Check(f"{name} positive values", positive, 3, ">="))
            else:
                f = fit_slope(pts)
                fits[name] = {"slope": f.slope, "r_squared": f.r_squared}
                checks.append(Check(f"{name} slope", f.slope, tol, "<=") if target is None
                              else Check(f"|{name} slope - ({target:g})|",
                                         abs(f.slope - target), tol, "<="))
        if "slope" in fits["q90_diff_norm"]:  # a fitted q90 must also fall at each step
            q90 = curve["q90_diff_norm"]
            checks += [Check(f"q90_diff_norm n={n}", v, prev, "<=")
                       for (_, prev), (n, v) in zip(q90, q90[1:])]
    else:
        fits["error"] = "need >= 3 grid points for slope fits"
        checks.append(Check("n_grid points", len(cfg.n_grid), 3, ">="))

    details = {
        "slopes": fits,
        "lindeberg_threshold_n": n_star,
        "lindeberg_eps": _LINDEBERG_EPS,
        "structure_draws": cfg.n_grid[-1] * cfg.replicates,
    }
    if not e.is_point_mass and all(v == 0.0 for r in rows for v in r[1:]):
        # A random law whose every curve is exactly 0: the probes miss its
        # fluctuations, and each decay claim would hold vacuously.
        details["error"] = ("probes: every martingale curve is exactly 0 although the "
                            "law is not a point mass; choose probes x, y that see its "
                            "fluctuations")
    return SuiteResult("martingale", tuple(checks), details, header, tuple(rows))


def _suite_doob(cfg: ExperimentConfig, refs: _References, paths) -> SuiteResult:
    e = cfg.ensemble
    n = cfg.n_grid[-1]
    kern = refs.kernel(n)
    root = RngStream(cfg.master_seed)
    header = ("k", "identity_residual", "max_subset_bound_ratio")
    rows, checks = [], []
    for k in range(1, min(10, n) + 1):
        r = root.child("doob", n, k)
        draws = [e.sample(r) for _ in range(k)]
        chk = doob_check(e, n, k, draws, cfg.x, kern)
        rows.append((k, chk.identity_residual, chk.max_subset_bound_ratio))
        checks += [Check(f"identity_residual k={k}", chk.identity_residual, 1e-10, "<="),
                   Check(f"max_subset_bound_ratio k={k}", chk.max_subset_bound_ratio,
                         1.0 + 1e-9, "<=")]
    details = {
        "n": n,
        "max_identity_residual": max(r[1] for r in rows),
        "max_subset_bound_ratio": max(r[2] for r in rows),
    }
    return SuiteResult("doob", tuple(checks), details, header, tuple(rows))


def _suite_covariance(cfg: ExperimentConfig, refs: _References, paths) -> SuiteResult:
    e, sigma2 = cfg.ensemble, refs.sigma2
    header = ("max_route_delta", "oracle_delta", "node_doubling_delta",
              "min_projected_variance", "max_shift_delta", "symmetry_defect")
    op = sigma_full(e)
    oracle = sigma_commuting_oracle(e) if e.is_diagonal else None
    probes = [(cfg.x, cfg.y)]
    r = RngStream(cfg.master_seed).child("covariance-probes")
    for _ in range(20):
        probes.append((2.0 * r.uniform(e.dim) - 1.0, 2.0 * r.uniform(e.dim) - 1.0))

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)

    max_route, scale_floor, min_proj = 0.0, 0.0, np.inf
    oracle_delta = float("nan") if oracle is None else 0.0
    values = []  # every sigma computed, for the point-mass check
    for i, (px, py) in enumerate(probes):
        proj = sigma_projected(e, px, py) if i else sigma2
        qf = op.project(px, py)
        values += [proj, qf]
        max_route = max(max_route, rel(proj, qf))
        if oracle is not None:
            values.append(oracle.project(px, py))
            oracle_delta = max(oracle_delta, rel(values[-1], qf))
        min_proj = min(min_proj, proj)
        scale_floor = max(scale_floor,
                          float(px @ px) * float(py @ py) * max(1.0, abs(proj), abs(qf)))

    # the rule of every sigma_projected value, sigma2's too, against twice its nodes
    doubled = sigma_projected_at(e, cfg.x, cfg.y, 2 * quadrature_nodes(e))
    doubling = abs(doubled - sigma2) / max(abs(doubled), np.finfo(float).tiny)

    max_shift = 0.0
    for c in (-1.0, 0.5):
        shifted = sigma_projected(e.shifted(c), cfg.x, cfg.y)
        target = math.exp(2.0 * c) * sigma2
        denom = max(abs(target), np.finfo(float).tiny)
        max_shift = max(max_shift, abs(shifted - target) / denom)
        values.append(shifted)
    # reported, never asserted: Sigma(x, y) need not equal Sigma(y, x)
    swapped = op.project(cfg.y, cfg.x)
    values += [doubled, swapped]  # sigma2 is values[0]
    sym = rel(values[1], swapped)  # values[1] is op.project(cfg.x, cfg.y)
    rows = ((max_route, oracle_delta, doubling, min_proj, max_shift, sym),)
    details = dict(zip(header, rows[0]), probe_pairs_checked=len(probes),
                   oracle_delta=None if math.isnan(oracle_delta) else oracle_delta)
    if e.is_point_mass:
        # Point mass: Sigma = 0, so every value above is rounding noise and
        # the relative deltas divide it by zero.  Each centered draw A_i - EA
        # rounds a weighted mean, to under 1e-10 (rho + 1) for the law and
        # its shifts by c in {-1, 0.5}, and Sigma is quadratic in it with
        # factors of at most e^{2 (rho + 1)} |x|^2 |y|^2.
        probe_scale = max(float(px @ px) * float(py @ py) for px, py in probes)
        zero_bound = ((1e-10 * (e.rho + 1.0) * math.exp(e.rho + 1.0)) ** 2
                      * max(1.0, probe_scale))
        checks = (Check("max_abs_sigma", max(float(np.max(np.abs(v))) for v in values),
                        zero_bound, "<="),)
        details.update({"marker": "exact-zero",
                        "pass_rule": "every sigma within the zero bound "
                                     "(1e-10 (rho+1) e^(rho+1))^2 max(1, |x|^2 |y|^2)"})
        return SuiteResult("covariance", checks, details, header, rows)
    checks = [Check("max_route_delta", max_route, 1e-10, "<="),
              Check("node_doubling_delta", doubling, 1e-12, "<"),
              Check("min_projected_variance", min_proj, -1e-12 * scale_floor, ">="),
              Check("max_shift_delta", max_shift, 1e-10, "<=")]
    if not math.isnan(oracle_delta):
        checks.append(Check("oracle_delta", oracle_delta, 1e-10, "<="))
    return SuiteResult("covariance", tuple(checks), details, header, rows)


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
    # name -> {"passed": bool, "checks": [...], "details": {...}} (deterministic)
    suites: dict
    # name -> the main process's wall clock in the suite, which pool work
    # overlaps (not part of the determinism contract)
    timings_seconds: dict
    csv_paths: dict
    all_passed: bool


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
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"output_dir: cannot create {cfg.output_dir!r}: {exc}") from exc

    refs = _References(cfg)
    passes = _passes(refs)
    # a process beyond the largest pass's chunk count would only be forked to idle
    chunks = (len(engine.chunk_ranges(cfg.ensemble, n, cfg.replicates)) for n in passes)
    per_process = _table_bytes(cfg.ensemble, cfg.n_grid[-1:], cfg.suites)
    processes = min(workers, max(chunks, default=1), _MAX_BYTES // per_process - 1)
    pool = (ProcessPoolExecutor(max_workers=processes, initializer=_References.start_worker,
                                initargs=(cfg,)) if processes > 1 else None)
    # keyed in config order, whatever order the suites run in
    suites, timings, csv_paths = (dict.fromkeys(cfg.suites) for _ in range(3))
    try:
        mapped = {n: _map_pass(refs, n, pool) for n in passes}
        # the path pass at n, joined for the first suite that asks and kept
        paths = functools.cache(lambda n: engine.concat_chunks(list(mapped.pop(n))))
        # the suites that draw no pass run first, while a pool runs the passes;
        # then martingale, which asks for the kernels in grid order, then clt
        for name in sorted(cfg.suites, key=lambda s: {"martingale": 1, "clt": 2}.get(s, 0)):
            t0 = time.perf_counter()
            result = _SUITES[name](cfg, refs, paths)
            timings[name] = time.perf_counter() - t0
            path = os.path.join(cfg.output_dir, f"{name}.csv")
            emit_csv(result.header, result.rows, path)
            csv_paths[name] = path
            suites[name] = {"passed": result.passed, "details": result.details, "checks": [
                {**vars(c), "margin": c.margin, "ok": c.ok} for c in result.checks]}
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    report = RunReport(
        version=__version__,
        config_digest=config_digest(cfg),
        suites=suites,
        timings_seconds=timings,
        csv_paths=csv_paths,
        all_passed=all(s["passed"] for s in suites.values()),
    )
    # built before the file is opened: a NaN raises and leaves no summary.json
    text = json.dumps(asdict(report), indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(cfg.output_dir, "summary.json"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return report
