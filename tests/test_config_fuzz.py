"""Property tests of config validation, with strategies built from the field tables.

A config is drawn field by field from ``experiment._FIELDS`` and the chosen
family's table in ``experiment._FAMILIES``: each field gets a valid value,
and an optional one may be left out. Mutations then replace values with junk
(wrong types, bools, NaN, infinities, huge integers, nested lists and
objects), delete keys and add unknown ones.
"""

import functools
import json
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from expclt import experiment
from expclt.cli import main
from expclt.experiment import SUITE_NAMES, ConfigError, load_config

_REQUIRED = experiment._REQUIRED

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.sampled_from([2**64, 2**200, -2**200]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
)
_KEYS = st.text(alphabet=string.ascii_letters + "_", min_size=1, max_size=8)


def _ensemble_table(family):
    return {"family": (_REQUIRED, None), "dim": (None, None),
            **experiment._FAMILIES[family][1]}


def _matrix(d):
    row = st.lists(st.floats(-1, 1), min_size=d, max_size=d)
    return st.lists(row, min_size=d, max_size=d)


def _vector(d):
    return st.lists(st.floats(-1, 1), min_size=d, max_size=d).filter(any)


def _weights(m):
    return st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any).map(
        lambda w: [k / sum(w) for k in w])


@functools.cache  # a strategy is checked on its first draw; reuse it
def _valid(d, m, family):
    """A valid value for each field path, small enough to run in well under 1 s."""
    return {
        "ensemble.family": st.just(family),
        "ensemble.dim": st.just(d),
        "ensemble.a0": _matrix(d),
        "ensemble.a1": _matrix(d),
        "ensemble.p": st.floats(0, 1),
        "ensemble.matrices": st.lists(_matrix(d), min_size=m, max_size=m),
        "ensemble.probabilities": _weights(m),
        "ensemble.low": st.floats(-1, 0),
        "ensemble.high": st.floats(0, 1),
        "ensemble.matrix": _matrix(d),
        "probes": st.just("canonical") | st.fixed_dictionaries(
            {"x": _vector(d), "y": _vector(d)}),
        "n_grid": st.lists(st.integers(1, 64), min_size=1, max_size=3,
                           unique=True).map(sorted),
        "replicates": st.integers(2, 64),
        "master_seed": st.integers(0, 2**64 - 1),
        "suites": st.lists(st.sampled_from(SUITE_NAMES), min_size=1, unique=True),
        "output_dir": st.just("out"),
        "variance_rtol": st.floats(0.01, 0.99),
    }


def _paths():
    top = {name for name in experiment._FIELDS if name != "ensemble"}
    return top | {f"ensemble.{name}" for family in experiment._FAMILIES
                  for name in _ensemble_table(family)}


@st.composite
def configs(draw, mutations=0):
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    family = draw(st.sampled_from(sorted(experiment._FAMILIES)))
    valid = _valid(d, m, family)

    def fill(table, prefix):
        return {name: draw(valid[prefix + name]) for name, (default, _) in table.items()
                if default is _REQUIRED or draw(st.booleans())}

    raw = fill({k: v for k, v in experiment._FIELDS.items() if k != "ensemble"}, "")
    raw["ensemble"] = fill(_ensemble_table(family), "ensemble.")
    for _ in range(draw(st.integers(0, mutations))):
        objects = [raw] + [v for v in raw.values() if isinstance(v, dict)]
        target = draw(st.sampled_from(objects))
        op = draw(st.sampled_from(["junk", "delete", "add"] if target else ["add"]))
        if op == "add":
            target[draw(_KEYS)] = draw(_JUNK)
        else:
            key = draw(st.sampled_from(sorted(target)))
            if op == "junk":
                target[key] = draw(_JUNK)
            else:
                del target[key]
    return raw


def test_strategies_cover_the_tables():
    assert set(_valid(1, 1, "two_point")) == _paths()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.json"


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs(mutations=4))
def test_load_config_accepts_or_names_a_field(raw, config_path):
    config_path.write_text(json.dumps(raw))
    try:
        load_config(str(config_path))
    except ConfigError as exc:
        head, *lines = str(exc).split("\n  ")
        assert head == "invalid config:" and lines
        # a line names a table path, or an unknown key the config gave
        names = _paths() | {"ensemble", "probes.x", "probes.y"} | set(raw)
        for line in lines:
            assert line.split(": ", 1)[0] in names, line


def _reject(token):
    raise ValueError(f"non-finite JSON token {token}")


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs())
def test_accepted_configs_run_to_a_verdict(raw, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    raw = dict(raw, output_dir=str(out))
    path = out / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--workers", "1"]) in (0, 1)
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject)
    assert set(summary["suites"]) == set(raw["suites"])


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(raw=configs(mutations=4))
def test_accepted_mutated_configs_run_to_a_verdict(raw, tmp_path_factory):
    out = tmp_path_factory.mktemp("mutated")
    path = out / "c.json"
    path.write_text(json.dumps(raw))
    try:
        load_config(str(path))
    except ConfigError:
        assume(False)
    # junk that happens to validate can be a huge count; keep each run small
    raw = dict(raw, output_dir=str(out), replicates=min(raw["replicates"], 64),
               n_grid=sorted({min(n, 64) for n in raw["n_grid"]}))
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--workers", "1"]) in (0, 1)
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject)
    assert set(summary["suites"]) == set(raw["suites"])
