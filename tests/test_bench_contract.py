"""Every function the benchmark's traced run wraps must exist in expclt.

``perfbench/layers.py`` names its wrap targets as (owner, attribute) pairs.
A renamed or removed function would only surface when a traced benchmark
run crashes, so the pairs are resolved here.
"""

import importlib.util
from pathlib import Path

import expclt
import expclt.experiment  # noqa: F401  (wrap_targets reads expclt.experiment)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrap_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # layers imports its sibling spans
    spec = importlib.util.spec_from_file_location("perfbench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.wrap_targets(expclt)


def test_every_wrapped_name_is_callable(monkeypatch):
    targets = _wrap_targets(monkeypatch)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
