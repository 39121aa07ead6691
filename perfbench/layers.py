"""Which expclt functions the traced run wraps, and the per-layer metrics.

``experiment`` and ``dynamics`` bind several layer functions by name at
import time (``precompute_kernel``, the ``sigma_*`` routes, ``mat_exp``,
``op_norm``), so each name is wrapped where its caller looks it up.
``engine.simulate_paths`` finds ``simulate_block`` through the engine
module, so wrapping it there is enough. Counters are taken inside the
wrappers, where the work happens; they repeat exactly from run to run.
"""

from __future__ import annotations

from spans import layer_time, self_times


def _uniforms(args, kwargs, result):
    return {"ensembles.uniforms": result.size}


def _one_draw(args, kwargs, result):
    e = args[0]
    return {"ensembles.uniforms": 1 if e.is_finite_support else e.dim}


def _sweep(args, kwargs, result):
    kern, _, rows = args[:3]
    e = kern.ensemble
    steps = rows.shape[0] * rows.shape[1]
    # Computed, not measured: multiply-adds of the per-step products only,
    # a (d, d) matvec for finite support and d products for diagonal draws;
    # a second product runs for the backward recurrence (want_s_prime).
    per_product = 2 * e.dim * e.dim if e.is_finite_support else e.dim
    products = 1 + bool(kwargs.get("want_s_prime"))
    return {"engine.sweep_steps": steps, "engine.sweep_flops": steps * products * per_product}


def _diff(args, kwargs, result):
    rows, ks = args[2], args[3]
    return {"engine.diff_steps": rows.shape[0] * sum(k - 1 for k in ks)}


def _nodes(args, kwargs, result):
    return {"covariance.sigma_full_nodes": result.nodes}


def wrap_targets(expclt) -> list:
    """(owner, attribute, span name, counter) for every wrapped call site."""
    ens, eng, dyn = expclt.ensembles, expclt.engine, expclt.dynamics
    cov, exp, lin = expclt.covariance, expclt.experiment, expclt.linalg
    return [
        (ens.RngStream, "child", "ensembles.child", None),
        (ens.Ensemble, "sample_indices", "ensembles.sample", _uniforms),
        (ens.Ensemble, "sample_diagonal_values", "ensembles.sample", _uniforms),
        (ens.Ensemble, "sample", "ensembles.sample", _one_draw),
        (eng, "simulate_paths", "engine.simulate_paths", None),
        (eng, "simulate_block", "engine.simulate_block", _sweep),
        (eng, "diff_pair_block", "engine.diff_pair_block", _diff),
        (exp, "precompute_kernel", "dynamics.precompute_kernel", None),
        (dyn, "precompute_kernel", "dynamics.precompute_kernel", None),
        (exp, "doob_check", "dynamics.doob_check", None),
        (exp, "riemann_cov_error", "dynamics.riemann_cov_error", None),
        (exp, "lemma_speed_curve", "dynamics.lemma_speed_curve", None),
        (exp, "max_dnk_norm", "dynamics.norm_bound", None),
        (exp, "lindeberg_max_norm", "dynamics.norm_bound", None),
        (dyn, "max_dnk_norm", "dynamics.norm_bound", None),
        (exp, "sigma_full", "covariance.sigma_full", _nodes),
        (exp, "sigma_projected", "covariance.sigma_projected", None),
        (exp, "sigma_projected_at", "covariance.sigma_projected", None),
        (dyn, "sigma_projected", "covariance.sigma_projected", None),
        (exp, "sigma_commuting_oracle", "covariance.oracle", None),
        (exp, "summarize", "stats.summarize", None),
        (exp, "fit_slope", "stats.fit_slope", None),
        (lin, "mat_exp", "linalg.mat_exp", None),
        (dyn, "mat_exp", "linalg.mat_exp", None),
        (cov, "mat_exp", "linalg.mat_exp", None),
        (exp, "op_norm", "linalg.op_norm", None),
        (dyn, "op_norm", "linalg.op_norm", None),
        (ens, "op_norm", "linalg.op_norm", None),
        (exp, "emit_csv", "experiment.emit_csv", None),
    ]


def _per(total_s: float, work: float, scale: float) -> float:
    return total_s * scale / work if work else 0.0


def span_metrics(spans, counts) -> dict:
    """Per-layer metric name -> (value, unit), from one traced run."""
    calls = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    selfs = self_times(spans)

    def t(*names):
        return layer_time(spans, names)

    def own(name):
        return sum(selfs[s.id] for s in spans if s.name == name)

    def n(name):
        return calls.get(name, 0)

    c = dict(counts)
    sample_s = t("ensembles.sample")
    block_s = t("engine.simulate_block")
    diff_s = t("engine.diff_pair_block")
    out = {
        "ensembles.child_calls": (n("ensembles.child"), "count"),
        "ensembles.child_s": (t("ensembles.child"), "s"),
        "ensembles.sample_calls": (n("ensembles.sample"), "count"),
        "ensembles.uniforms": (c.get("ensembles.uniforms", 0), "count"),
        "ensembles.sample_s": (sample_s, "s"),
        "ensembles.ns_per_uniform": (_per(sample_s, c.get("ensembles.uniforms", 0), 1e9), "ns"),
        "engine.simulate_paths_calls": (n("engine.simulate_paths"), "count"),
        "engine.simulate_paths_self_s": (own("engine.simulate_paths"), "s"),
        "engine.simulate_block_s": (block_s, "s"),
        "engine.sweep_steps": (c.get("engine.sweep_steps", 0), "count"),
        "engine.ns_per_sweep_step": (_per(block_s, c.get("engine.sweep_steps", 0), 1e9), "ns"),
        "engine.sweep_flops": (c.get("engine.sweep_flops", 0), "flop"),
        "engine.sweep_gflops": (_per(c.get("engine.sweep_flops", 0), block_s, 1e-9), "Gflop/s"),
        "engine.diff_pair_block_calls": (n("engine.diff_pair_block"), "count"),
        "engine.diff_pair_block_s": (diff_s, "s"),
        "engine.diff_steps": (c.get("engine.diff_steps", 0), "count"),
        "engine.ns_per_diff_step": (_per(diff_s, c.get("engine.diff_steps", 0), 1e9), "ns"),
        "dynamics.precompute_kernel_calls": (n("dynamics.precompute_kernel"), "count"),
        "dynamics.precompute_kernel_s": (t("dynamics.precompute_kernel"), "s"),
        "dynamics.doob_check_s": (t("dynamics.doob_check"), "s"),
        "dynamics.riemann_cov_error_s": (t("dynamics.riemann_cov_error"), "s"),
        "dynamics.lemma_speed_curve_s": (t("dynamics.lemma_speed_curve"), "s"),
        "dynamics.norm_bound_s": (t("dynamics.norm_bound"), "s"),
        "covariance.sigma_full_s": (t("covariance.sigma_full"), "s"),
        "covariance.sigma_full_nodes": (c.get("covariance.sigma_full_nodes", 0), "count"),
        "covariance.sigma_projected_calls": (n("covariance.sigma_projected"), "count"),
        "covariance.sigma_projected_s": (t("covariance.sigma_projected"), "s"),
        "covariance.oracle_s": (t("covariance.oracle"), "s"),
        "stats.summarize_s": (t("stats.summarize"), "s"),
        "stats.fit_slope_s": (t("stats.fit_slope"), "s"),
        "linalg.mat_exp_calls": (n("linalg.mat_exp"), "count"),
        "linalg.mat_exp_s": (t("linalg.mat_exp"), "s"),
        "linalg.op_norm_calls": (n("linalg.op_norm"), "count"),
        "linalg.op_norm_s": (t("linalg.op_norm"), "s"),
        "experiment.emit_csv_s": (t("experiment.emit_csv"), "s"),
        "experiment.run_self_s": (own("experiment.run"), "s"),
    }
    return out
