"""What the benchmark reads of expclt must exist.

``perfbench/layers.py`` names its wrap targets as (owner, attribute) pairs.
A renamed or removed function would only surface when a traced benchmark
run crashes, so the pairs are resolved here. ``perfbench/run.py`` judges
each suite of a run from its exit code and summary.json, so a small run of
each family goes through those same functions.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import expclt
import expclt.experiment  # noqa: F401  (wrap_targets reads expclt.experiment)
from expclt.cli import main
from expclt.experiment import SUITE_NAMES

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, with its siblings importable and
    no bytecode written next to them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_callable(monkeypatch):
    targets = _load(monkeypatch, "layers").wrap_targets(expclt)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


ENSEMBLES = {
    "two_point": {"family": "two_point", "a0": [[0.1, -0.3], [0.2, 0.0]],
                  "a1": [[-0.2, 0.1], [0.0, 0.4]], "p": 0.5},
    "finite_support": {"family": "finite_support",
                       "matrices": [[[0.3, 0.1], [0.0, -0.2]], [[0.0, -0.4], [0.1, 0.2]],
                                    [[-0.1, 0.0], [0.3, 0.1]]],
                       "probabilities": [0.2, 0.5, 0.3]},
    "diagonal_uniform": {"family": "diagonal_uniform", "dim": 2, "low": -0.5, "high": 1.0},
}


@pytest.mark.parametrize("family", sorted(ENSEMBLES))
def test_benchmark_reads_every_operation_of_a_run(monkeypatch, tmp_path, family):
    # perfbench/run.py judges each (run, suite) operation from summary.json:
    # a schema change that breaks its reading fails here before it fails
    # every benchmark operation
    bench = _load(monkeypatch, "run")
    raw = {"ensemble": ENSEMBLES[family], "probes": {"x": [1.0, 0.5], "y": [0.3, -1.0]},
           "n_grid": [64, 128, 256], "replicates": 400, "master_seed": 1,
           "suites": list(SUITE_NAMES), "output_dir": str(tmp_path / "out")}
    (tmp_path / "c.json").write_text(json.dumps(raw))
    code = main(["run", str(tmp_path / "c.json"), "--workers", "1"])
    digest, summary, _ = bench.read_outputs(tmp_path / "out")
    assert bench.clt_consistent(summary["suites"]["clt"])
    ops = bench.check_operations([{"exit": code, "digest": digest, "summary": summary}],
                                 SUITE_NAMES)
    assert len(ops) == len(SUITE_NAMES)
    assert [op for op in ops if op[2] is not None] == []
