"""A traced run with every wrap of the benchmark in place completes and counts.

``perfbench/layers.py`` wraps expclt functions in span recorders and its
counters read their arguments and results: ``Ensemble.is_finite_support``,
``sigma_full(...).nodes`` and ``diff_pair_block``'s positional
``(kern, x, rows, ks)``. A rename there crashes only the traced benchmark
run, so this test runs a tiny all-suite config of each family through the
same wraps. The benchmark files are imported without writing bytecode next
to them, and monkeypatch restores every wrapped attribute.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import expclt
from expclt.experiment import SUITE_NAMES, run, validate_config

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

ENSEMBLES = {
    "two_point": {"family": "two_point", "a0": [[0.1, -0.3], [0.2, 0.0]],
                  "a1": [[-0.2, 0.1], [0.0, 0.4]], "p": 0.5},
    "finite_support": {"family": "finite_support",
                       "matrices": [[[0.3, 0.1], [0.0, -0.2]], [[0.0, -0.4], [0.1, 0.2]],
                                    [[-0.1, 0.0], [0.3, 0.1]]],
                       "probabilities": [0.2, 0.5, 0.3]},
    "diagonal_uniform": {"family": "diagonal_uniform", "dim": 2, "low": -0.5, "high": 1.0},
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = _load("spans")
    monkeypatch.setitem(sys.modules, "spans", spans)  # layers imports its sibling
    return _load("layers"), spans


@pytest.mark.parametrize("family", sorted(ENSEMBLES))
def test_traced_all_suite_run_counts_spans(bench, monkeypatch, tmp_path, family):
    layers, spans = bench
    rec = spans.SpanRecorder(run_id=family)
    for owner, attr, name, count in layers.wrap_targets(expclt):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored afterwards
        rec.wrap(owner, attr, name, count)
    cfg = validate_config({
        "ensemble": ENSEMBLES[family],
        "probes": {"x": [1.0, 0.5], "y": [0.3, -1.0]},
        "n_grid": [8, 16, 32], "replicates": 20, "master_seed": 3,
        "suites": list(SUITE_NAMES),
        "output_dir": str(tmp_path / "out"),
    })
    report = rec.call("experiment.run", run, cfg, workers=1)
    assert set(report.suites) == set(SUITE_NAMES)
    metrics = layers.span_metrics(rec.spans, rec.counts)
    counted = {"ensembles.sample_calls", "engine.simulate_paths_calls",
               "engine.diff_pair_block_calls", "covariance.sigma_projected_calls",
               "linalg.mat_exp_calls", "engine.sweep_steps", "engine.diff_steps"}
    assert all(metrics[name][0] > 0 for name in counted)
    assert metrics["covariance.sigma_full_nodes"][0] == 0
    assert "covariance.sigma_full_nodes" in rec.counts
