import gc
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from expclt import RngStream, diagonal_uniform, engine, experiment
from expclt.cli import main
from expclt.covariance import CovarianceOperator, quadrature_nodes, sigma_projected_at
from expclt.dynamics import precompute_kernel, sample_xi
from expclt.experiment import (
    Check,
    ConfigError,
    SUITE_NAMES,
    _cell,
    config_digest,
    emit_csv,
    load_config,
    run,
)
from expclt.linalg import op_norm


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def _base_config(tmp_path, **over):
    cfg = {
        "ensemble": {"family": "two_point", "dim": 1,
                     "a0": [[0.0]], "a1": [[2.0]], "p": 0.5},
        "n_grid": [16, 32, 64, 128],
        "replicates": 300,
        "master_seed": 7,
        "suites": ["lemma_speed", "doob", "covariance"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(over)
    return cfg


# a matrix one row and one column past the dimension cap
_BIG = [[0.0] * (experiment._MAX_DIM + 1)] * (experiment._MAX_DIM + 1)

_SCALAR = {"family": "two_point", "a0": [[0.0]], "a1": [[1.0]], "p": 0.5}
_DIAG_MAX = {"family": "diagonal_uniform", "dim": experiment._MAX_DIM, "low": -0.5,
             "high": 1.0}
_PROBES_MAX = {"x": [1.0] * experiment._MAX_DIM, "y": [0.5] * experiment._MAX_DIM}


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(_write(tmp_path, "c.json", _base_config(tmp_path)))
        assert cfg.ensemble.family == "two_point"
        assert cfg.n_grid == (16, 32, 64, 128)
        assert cfg.replicates == 300 and cfg.master_seed == 7
        assert cfg.variance_rtol == 0.07
        # canonical probes default: x = e1, y = e2 (or e1 in dimension 1)
        assert np.array_equal(cfg.x, [1.0]) and np.array_equal(cfg.y, [1.0])

    def test_canonical_probes_d3(self, tmp_path):
        raw = _base_config(tmp_path, ensemble={
            "family": "diagonal_uniform", "dim": 3, "low": -0.5, "high": 1.0})
        cfg = load_config(_write(tmp_path, "c.json", raw))
        assert np.array_equal(cfg.x, [1.0, 0.0, 0.0])
        assert np.array_equal(cfg.y, [0.0, 1.0, 0.0])

    def test_explicit_probes(self, tmp_path):
        raw = _base_config(tmp_path, probes={"x": [0.5], "y": [-1.0]})
        cfg = load_config(_write(tmp_path, "c.json", raw))
        assert cfg.x[0] == 0.5 and cfg.y[0] == -1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.json"))

    def test_parse_error_reports_position(self, tmp_path):
        path = _write(tmp_path, "bad.json", '{\n  "a": ,\n}')
        with pytest.raises(ConfigError, match=r"line 2, column \d+"):
            load_config(path)

    def test_non_increasing_grid(self, tmp_path):
        raw = _base_config(tmp_path, n_grid=[16, 16, 32])
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_probe_dimension_mismatch_names_both_fields(self, tmp_path):
        raw = _base_config(tmp_path, probes={"x": [1.0, 0.0], "y": [0.0, 1.0]})
        with pytest.raises(ConfigError) as exc:
            load_config(_write(tmp_path, "c.json", raw))
        assert "probes.x" in str(exc.value) and "probes.y" in str(exc.value)

    def test_unknown_top_level_field(self, tmp_path):
        raw = _base_config(tmp_path, bogus=1)
        with pytest.raises(ConfigError, match="bogus: unknown field"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_unknown_ensemble_field(self, tmp_path):
        raw = _base_config(tmp_path)
        raw["ensemble"]["scale"] = 2.0
        with pytest.raises(ConfigError, match="unknown fields for family"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_unknown_family(self, tmp_path):
        raw = _base_config(tmp_path, ensemble={"family": "gaussian"})
        with pytest.raises(ConfigError, match="ensemble.family"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_dim_cross_check(self, tmp_path):
        raw = _base_config(tmp_path)
        raw["ensemble"]["dim"] = 2
        with pytest.raises(ConfigError, match="declared 2"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_all_errors_reported_at_once(self, tmp_path):
        raw = _base_config(tmp_path, n_grid=[8, 4], master_seed=-1,
                           suites=["doob", "nope"])
        with pytest.raises(ConfigError) as exc:
            load_config(_write(tmp_path, "c.json", raw))
        msg = str(exc.value)
        assert "n_grid" in msg and "master_seed" in msg and "nope" in msg

    def test_suite_validation(self, tmp_path):
        raw = _base_config(tmp_path, suites=["doob", "doob"])
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(_write(tmp_path, "c.json", raw))
        raw = _base_config(tmp_path, suites=[])
        with pytest.raises(ConfigError, match="nonempty"):
            load_config(_write(tmp_path, "c.json", raw))

    @pytest.mark.parametrize("field, value", [
        ("replicates", True),
        ("replicates", 1),
        ("master_seed", True),
        ("n_grid", [True, 32]),
    ])
    def test_integer_fields_reject_bool_and_too_few_replicates(self, tmp_path,
                                                               field, value):
        raw = _base_config(tmp_path, **{field: value})
        with pytest.raises(ConfigError, match=f"{field}: must be"):
            load_config(_write(tmp_path, "c.json", raw))

    @pytest.mark.parametrize("family", ["two_point", "diagonal_uniform"])
    @pytest.mark.parametrize("dim", [True, "abc", 0, 1.0, experiment._MAX_DIM + 1, 2**70])
    def test_dim_must_be_a_positive_integer(self, tmp_path, family, dim):
        ens = ({"family": "two_point", "a0": [[0.0]], "a1": [[2.0]], "p": 0.5}
               if family == "two_point" else
               {"family": "diagonal_uniform", "low": -0.5, "high": 1.0})
        raw = _base_config(tmp_path, ensemble=dict(ens, dim=dim))
        with pytest.raises(ConfigError, match="ensemble.dim: must be an integer >= 1"):
            load_config(_write(tmp_path, "c.json", raw))

    @pytest.mark.parametrize("path, ensemble", [
        ("ensemble.family", {"family": ["two_point"]}),
        ("ensemble.probabilities", {"family": "finite_support", "matrices": [[[0.5]]],
                                    "probabilities": "1"}),
        ("ensemble.p", {"family": "two_point", "a0": [[0.0]], "a1": [[2.0]], "p": "0.5"}),
        ("ensemble.p", {"family": "two_point", "a0": [[0.0]], "a1": [[2.0]], "p": True}),
        ("ensemble.low", {"family": "diagonal_uniform", "dim": 2, "low": True, "high": 1.0}),
        ("ensemble.high", {"family": "diagonal_uniform", "dim": 2, "low": 0.0,
                           "high": False}),
        # matrices past the ensemble.dim cap, rejected before any SVD runs
        ("ensemble.a0", {"family": "two_point", "a0": _BIG, "a1": [[2.0]], "p": 0.5}),
        ("ensemble.matrices", {"family": "finite_support", "matrices": [_BIG],
                               "probabilities": [1.0]}),
        ("ensemble.matrix", {"family": "deterministic", "matrix": _BIG}),
    ])
    def test_ensemble_fields_are_named_by_path(self, tmp_path, path, ensemble):
        raw = _base_config(tmp_path, ensemble=ensemble)
        with pytest.raises(ConfigError, match=f"\n  {re.escape(path)}: must be"):
            load_config(_write(tmp_path, "c.json", raw))

    @pytest.mark.parametrize("payload", [
        b'{"replicates": "\xff"}',
        b'{"replicates": ' + b"1" * 5000 + b"}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not_utf8", "too_many_digits", "too_deep"])
    def test_unreadable_json_is_a_config_error(self, tmp_path, payload):
        path = tmp_path / "c.json"
        path.write_bytes(payload)
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))

    @pytest.mark.parametrize("path, over", [
        ("ensemble.probabilities", {"ensemble": {
            "family": "finite_support", "matrices": [[[0.0]], [[1.0]]],
            "probabilities": ["0.5", "0.5"]}}),
        ("ensemble.probabilities", {"ensemble": {
            "family": "finite_support", "matrices": [[[0.0]], [[1.0]]],
            "probabilities": [True, False]}}),
        ("ensemble.a0", {"ensemble": {"family": "two_point", "a0": [["0.1"]],
                                      "a1": [[2.0]], "p": 0.5}}),
        ("ensemble.matrices", {"ensemble": {"family": "finite_support",
                                            "matrices": [[[0.5]], [[True]]],
                                            "probabilities": [0.5, 0.5]}}),
        ("ensemble.matrix", {"ensemble": {"family": "deterministic", "matrix": [[False]]}}),
        ("probes.x", {"probes": {"x": ["1", True], "y": [1.0, 0.0]},
                      "ensemble": {"family": "diagonal_uniform", "dim": 2, "low": -0.5,
                                   "high": 1.0}}),
        ("probes.y", {"probes": {"x": [1.0], "y": [True]}}),
    ], ids=["string_probabilities", "bool_probabilities", "string_a0", "bool_matrices",
            "bool_matrix", "string_and_bool_probe", "bool_probe"])
    def test_array_entries_must_be_json_numbers(self, tmp_path, capsys, path, over):
        # numpy reads "0.5", true and false as numbers, so they used to pass
        raw = _base_config(tmp_path, **over)
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        assert f"\n  {path}: must be a" in capsys.readouterr().err

    def test_support_size_fits_uint16_indices(self, tmp_path):
        raw = _base_config(tmp_path, ensemble={
            "family": "finite_support", "matrices": [[[0.0]]] * 65_537,
            "probabilities": [1.0 / 65_537] * 65_537})
        with pytest.raises(ConfigError, match="ensemble: at most 65536 support"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_largest_arrays_at_the_caps_are_accepted(self, tmp_path):
        # 2 (63 + 1) tables of 1024 x 1024 float64: 1 GiB, the table cap
        ok = _base_config(tmp_path, ensemble=_DIAG_MAX, probes=_PROBES_MAX, n_grid=[63],
                          suites=["clt", "martingale", "doob"])
        assert load_config(_write(tmp_path, "ok.json", ok)).n_grid == (63,)
        # the grid's kernels are all kept for the run, so they count together
        for grid in ([64], [31, 32]):
            raw = dict(ok, n_grid=grid)
            with pytest.raises(ConfigError, match=r"n_grid: the kernel tables"):
                load_config(_write(tmp_path, "big.json", raw))
        # suites that build no kernel and draw no rows are not capped by n
        raw = dict(ok, n_grid=[4096], suites=["lemma_speed", "covariance"])
        assert load_config(_write(tmp_path, "free.json", raw)).n_grid == (4096,)

    def test_support_tables_count_toward_the_cap(self, tmp_path):
        # 65,536 matrices of 2 x 2: the S and S' tables at n = 1024 take 2 GiB,
        # the kernel tables 66 kB and a chunk of draw rows 16 MiB
        mats = [[[i / 65_536, 0.0], [0.0, 0.0]] for i in range(65_536)]
        ens = {"family": "finite_support", "matrices": mats,
               "probabilities": [1 / 65_536] * 65_536}
        raw = _base_config(tmp_path, ensemble=ens, n_grid=[1024], suites=["martingale"])
        with pytest.raises(ConfigError, match=r"S tables at n = 1024 take 2(\.\d+)? GiB"):
            load_config(_write(tmp_path, "c.json", raw))
        # without the martingale suite no S tables are built
        ok = dict(raw, suites=["clt", "doob"])
        assert load_config(_write(tmp_path, "ok.json", ok)).n_grid == (1024,)

    def test_entrywise_support_has_no_support_tables(self, tmp_path):
        # 65,536 scalar matrices take the entrywise path, which builds no
        # (m, n, d) S tables: the martingale suite at n = 2048 fits the caps
        mats = [[[i / 65_536]] for i in range(65_536)]
        ens = {"family": "finite_support", "matrices": mats,
               "probabilities": [1 / 65_536] * 65_536}
        raw = _base_config(tmp_path, ensemble=ens, n_grid=[1024, 2048],
                           suites=["martingale"])
        assert load_config(_write(tmp_path, "c.json", raw)).n_grid == (1024, 2048)

    def test_optional_field_ranges(self, tmp_path):
        raw = _base_config(tmp_path, variance_rtol=1.5)
        with pytest.raises(ConfigError, match="variance_rtol"):
            load_config(_write(tmp_path, "c.json", raw))


class TestConfigDigest:
    def test_formatting_invariance(self, tmp_path):
        raw = _base_config(tmp_path)
        a = load_config(_write(tmp_path, "a.json", raw))
        pretty = json.dumps(raw, indent=4, sort_keys=True)
        b = load_config(_write(tmp_path, "b.json", pretty))
        assert config_digest(a) == config_digest(b)

    def test_canonical_probe_shorthand_invariance(self, tmp_path):
        raw = _base_config(tmp_path)
        a = load_config(_write(tmp_path, "a.json", raw))
        raw["probes"] = {"x": [1.0], "y": [1.0]}
        b = load_config(_write(tmp_path, "b.json", raw))
        assert config_digest(a) == config_digest(b)

    def test_suite_order_invariance(self, tmp_path):
        a = load_config(_write(tmp_path, "a.json",
                               _base_config(tmp_path, suites=["doob", "clt"])))
        b = load_config(_write(tmp_path, "b.json",
                               _base_config(tmp_path, suites=["clt", "doob"])))
        assert config_digest(a) == config_digest(b)

    def test_semantic_fields_change_digest(self, tmp_path):
        base = load_config(_write(tmp_path, "a.json", _base_config(tmp_path)))
        for over in ({"replicates": 301}, {"master_seed": 8},
                     {"n_grid": [16, 32, 64]}):
            other = load_config(_write(tmp_path, "b.json",
                                       _base_config(tmp_path, **over)))
            assert config_digest(base) != config_digest(other)

    @pytest.mark.parametrize("ensemble, digest", [
        ({"family": "two_point", "a0": [[0.1, -0.2], [0.3, 0.0]],
          "a1": [[-0.4, 0.2], [0.1, 0.5]], "p": 0.3},
         "e7d76a722a36bc875cd25f90c49d9d999c7f75819de6d9c6e3ef291fa5eb5109"),
        ({"family": "finite_support", "matrices": [[[0.5]], [[-0.25]], [[1.0]]],
          "probabilities": [0.5, 0.25, 0.25]},
         "602a5f076073dbe47c3bb97978d8d556d2a90c5e2b3edf8cb260c76b686f92d6"),
        ({"family": "diagonal_uniform", "dim": 3, "low": -0.5, "high": 1.0},
         "84868647dff76030e35bea4c57f30eae482fccfb22f6797396c6beb1069496f4"),
        ({"family": "deterministic", "matrix": [[0.3, 0.1], [0.0, -0.2]]},
         "0793104116d0b4568cb89481e1345457280dc63ff0752a2779796b7c182f7774"),
    ], ids=["two_point", "finite_support", "diagonal_uniform", "deterministic"])
    def test_digest_literals(self, tmp_path, ensemble, digest):
        # the digest of one config of each family, as version 0.7.0 computed it:
        # it does not depend on how the law stores its support
        raw = {"ensemble": ensemble, "n_grid": [16, 32], "replicates": 300,
               "master_seed": 7, "suites": ["clt"], "output_dir": "out"}
        assert config_digest(load_config(_write(tmp_path, "c.json", raw))) == digest

    def test_output_dir_is_not_semantic(self, tmp_path):
        a = load_config(_write(tmp_path, "a.json", _base_config(tmp_path)))
        b = load_config(_write(tmp_path, "b.json",
                               _base_config(tmp_path, output_dir="/tmp/elsewhere")))
        assert config_digest(a) == config_digest(b)


class TestEmitCsv:
    def test_shortest_round_trip_decimals(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_csv(["a", "b"], [[0.1, 1.0 / 3.0]], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].split(",")[0] == "0.1"
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0

    def test_empty_table_is_header_only(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_csv(["n", "v"], [], path)
        data = open(path, "rb").read()
        assert data == b"n,v\n"

    def test_line_endings_are_lf(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_csv(["n"], [[1], [2], [3]], path)
        data = open(path, "rb").read()
        assert b"\r" not in data
        assert data.count(b"\n") == 4

    def test_cell_typing(self):
        assert _cell(True) == "true" and _cell(np.bool_(False)) == "false"
        assert _cell(np.int64(3)) == "3" and _cell(7) == "7"
        assert _cell(np.float64(0.1)) == "0.1"
        assert _cell(6.02e23) == "6.02e+23"
        assert _cell("degenerate") == "degenerate"

    def test_round_trip_exactness(self, tmp_path):
        vals = [1e-17, 2**-52, 1.7976931348623157e308, 5e-324]
        path = str(tmp_path / "t.csv")
        emit_csv(["v"], [[v] for v in vals], path)
        back = [float(l) for l in open(path).read().splitlines()[1:]]
        assert back == vals


@pytest.fixture
def executors(monkeypatch):
    """Every process pool that experiment starts, each marked when shut down."""
    made = []

    class Counting(experiment.ProcessPoolExecutor):
        shut_down = False
        tasks = 0

        def submit(self, *args, **kwargs):
            self.tasks += 1
            return super().submit(*args, **kwargs)

        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.shut_down = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", Counting)
    return made


@pytest.fixture
def fake_pools(monkeypatch):
    """The ``max_workers`` of every pool that experiment creates; the pools
    run their initializer and map in the test process, and start none."""
    sizes = []
    monkeypatch.setattr(experiment._References, "worker", None)  # the initializer sets it

    class InProcess:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcess)
    return sizes


@pytest.fixture
def kernels(monkeypatch):
    """(n, weak reference) of each kernel that experiment builds in this
    process, in build order.  A build, here or in a worker forked from here,
    fails while any references of a run in that process hold a kernel."""
    refs, built, real = weakref.WeakSet(), [], experiment.precompute_kernel

    class Tracked(experiment._References):
        def __init__(self, cfg):
            super().__init__(cfg)
            refs.add(self)

    def build(e, n):
        held = [r._kern.n for r in refs if r._kern is not None]
        assert held == [], f"kernels of n = {held} held while building n = {n}"
        kern = real(e, n)
        built.append((n, weakref.ref(kern)))
        return kern

    monkeypatch.setattr(experiment, "_References", Tracked)
    monkeypatch.setattr(experiment, "precompute_kernel", build)
    return built


def _released(kernels) -> bool:
    """Whether no kernel that ``kernels`` saw built is still alive."""
    gc.collect()
    return all(k() is None for _, k in kernels)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited: a zombie, which
    its parent has not reaped yet, has."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestRun:
    def _cfg(self, tmp_path, **over):
        return load_config(_write(tmp_path, "cfg.json",
                                  _base_config(tmp_path, **over)))

    def test_outputs_and_report(self, tmp_path):
        cfg = self._cfg(tmp_path)
        report = run(cfg, workers=1)
        assert report.all_passed
        assert set(report.suites) == {"lemma_speed", "doob", "covariance"}
        for name in cfg.suites:
            assert os.path.exists(report.csv_paths[name])
        summary = json.load(open(os.path.join(cfg.output_dir, "summary.json")))
        assert summary["config_digest"] == report.config_digest
        assert summary["all_passed"] is True

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = self._cfg(tmp_path)
        first = {}
        run(cfg, workers=1)
        for name in cfg.suites:
            first[name] = open(os.path.join(cfg.output_dir, f"{name}.csv"), "rb").read()
        report = run(cfg, workers=1)
        for name in cfg.suites:
            again = open(os.path.join(cfg.output_dir, f"{name}.csv"), "rb").read()
            assert again == first[name]
        assert report.all_passed

    def test_worker_count_never_changes_bytes(self, tmp_path):
        raw = _base_config(tmp_path, suites=["clt", "martingale"],
                           n_grid=[16, 32, 64, 128], replicates=200,
                           output_dir=str(tmp_path / "w1"))
        cfg1 = load_config(_write(tmp_path, "c1.json", raw))
        raw["output_dir"] = str(tmp_path / "w3")
        cfg3 = load_config(_write(tmp_path, "c3.json", raw))
        r1 = run(cfg1, workers=1)
        r3 = run(cfg3, workers=3)
        for name in ("clt", "martingale"):
            b1 = open(r1.csv_paths[name], "rb").read()
            b3 = open(r3.csv_paths[name], "rb").read()
            assert b1 == b3
        assert r1.suites == r3.suites

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pooled_chunks_never_change_bytes(self, tmp_path, workers, monkeypatch):
        # A forced chunk width of 3, which forked workers inherit, cuts each
        # pass of 49 replicates into 17 chunks, the last of 1 row, which the
        # workers of the run's one pool share unevenly; a width of 49 makes
        # one chunk a pass. The structure check's tally of the draws must not
        # see the chunks either, as a sum of floats per chunk would.
        rng = np.random.default_rng(8)
        raw = _base_config(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                           replicates=49,
                           ensemble={"family": "diagonal_uniform", "dim": 8,
                                     "low": -0.5, "high": 1.0},
                           probes={"x": rng.uniform(-1, 1, 8).tolist(),
                                   "y": rng.uniform(-1, 1, 8).tolist()})
        out = {}
        for width, w in ((49, 1), (3, 1), (3, workers)):
            monkeypatch.setattr(experiment.engine, "batch_size", lambda *a, b=width: b)
            out[width, w] = tmp_path / f"b{width}w{w}"
            raw["output_dir"] = str(out[width, w])
            path = _write(tmp_path, f"b{width}w{w}.json", raw)
            assert main(["run", path, "--workers", str(w)]) in (0, 1)
        for name in ("clt", "martingale"):
            assert len({(d / f"{name}.csv").read_bytes() for d in out.values()}) == 1
        summaries = [json.loads((d / "summary.json").read_text()) for d in out.values()]
        assert all(s["suites"] == summaries[0]["suites"] for s in summaries)
        checks = {json.dumps(_structure(s["suites"]["martingale"])) for s in summaries}
        assert len(checks) == 1

    def test_one_executor_per_run(self, tmp_path, executors, monkeypatch):
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 32)
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                        replicates=60)
        run(cfg, workers=1)
        assert executors == []
        run(cfg, workers=2)
        assert len(executors) == 1  # one pass per n of two chunks, one pool
        assert executors[0].tasks == 6
        assert executors[0].shut_down

    def test_pool_shut_down_when_a_suite_raises(self, tmp_path, executors, kernels,
                                                monkeypatch):
        # martingale builds the kernels of the grid here before clt raises
        def broken(*args):
            raise RuntimeError("suite failed to run")

        monkeypatch.setitem(experiment._SUITES, "clt", broken)
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 32)  # 2 chunks
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32],
                        replicates=60)
        with pytest.raises(RuntimeError, match="suite failed to run"):
            run(cfg, workers=2)
        assert len(executors) == 1
        assert executors[0].shut_down
        assert [n for n, _ in kernels] == [16, 32] and _released(kernels)

    @pytest.mark.parametrize("workers, size", [(2, 2), (5, 5), (5000, 7)])
    def test_pool_is_sized_by_the_largest_pass(self, tmp_path, fake_pools, monkeypatch,
                                               workers, size):
        # width n: 100 replicates make 7 chunks at n = 16 and 4 at n = 32
        monkeypatch.setattr(experiment.engine, "batch_size", lambda e, n: n)
        cfg = self._cfg(tmp_path, suites=["clt"], n_grid=[16, 32], replicates=100)
        run(cfg, workers=workers)
        assert fake_pools == [size]

    @pytest.mark.parametrize("copies, sizes", [(2, []), (3, [2]), (6, [5])])
    def test_pool_keeps_each_process_kernel_under_the_table_cap(
            self, tmp_path, fake_pools, monkeypatch, copies, sizes):
        # width n: 100 replicates make 7 chunks at n = 16. Each process holds
        # the two (33, 2, 2) kernel tables and the two (2, 32, 2) S tables of
        # n = 32; a cap just above `copies` of them admits copies - 1 workers.
        monkeypatch.setattr(experiment.engine, "batch_size", lambda e, n: n)
        ens = {"family": "two_point", "a0": [[0.0, 0.0], [0.0, 0.0]],
               "a1": [[0.0, 1.0], [1.0, 0.0]], "p": 0.5}
        cfg = self._cfg(tmp_path, ensemble=ens, suites=["clt", "martingale"],
                        n_grid=[16, 32], replicates=100)
        per_process = 2 * 8 * 33 * 4 + 2 * 8 * 2 * 32 * 2
        monkeypatch.setattr(experiment, "_MAX_BYTES", copies * per_process + 1)
        run(cfg, workers=5)
        assert fake_pools == sizes

    def test_no_pool_when_every_pass_is_one_chunk(self, tmp_path, fake_pools):
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                        replicates=100)
        assert all(len(engine.chunk_ranges(cfg.ensemble, n, 100)) == 1
                   for n in cfg.n_grid)
        run(cfg, workers=4)
        assert fake_pools == []

    def test_no_pool_when_no_suite_draws_a_pass(self, tmp_path, fake_pools, monkeypatch):
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 32)  # 10 chunks
        cfg = self._cfg(tmp_path, suites=["doob", "covariance"])
        run(cfg, workers=4)
        assert fake_pools == []

    def test_suite_order_and_worker_count_never_change_bytes(self, tmp_path, capsys,
                                                             monkeypatch):
        # Passes of one chunk (n = 16) and of four (12, 12, 12, 4) share the
        # pool, and the suites that draw no pass run first at 2 and 3 workers.
        suites = ["doob", "martingale", "lemma_speed", "clt", "covariance"]
        rng = np.random.default_rng(9)
        path = _write(tmp_path, "c.json", _base_config(
            tmp_path, suites=suites, n_grid=[16, 32, 64], replicates=40,
            ensemble={"family": "diagonal_uniform", "dim": 4, "low": -0.5, "high": 1.0},
            probes={"x": rng.uniform(-1, 1, 4).tolist(), "y": rng.uniform(-1, 1, 4).tolist()}))
        monkeypatch.setattr(experiment.engine, "batch_size",
                            lambda e, n: 64 if n == 16 else 12)
        out, outputs = tmp_path / "out", []
        for w in (1, 2, 3):
            assert main(["run", path, "--workers", str(w)]) in (0, 1)
            lines = re.findall(r"^\[(?:PASS|FAIL)\] (\w+)", capsys.readouterr().out, re.M)
            assert lines == suites
            summary = json.loads((out / "summary.json").read_text())
            assert list(summary.pop("timings_seconds")) == sorted(suites)
            outputs.append((summary, {p.name: p.read_bytes() for p in out.glob("*.csv")}))
            assert list(run(load_config(path), workers=w).suites) == suites
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0][1]) == len(suites)

    def test_every_chunk_is_sent_before_the_first_pass_is_joined(self, tmp_path,
                                                                 executors, monkeypatch):
        # One pass per n of 3 chunks: the run sends all 9 to the pool as it
        # starts, before the main process joins the first pass.
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 10)
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                        replicates=30)
        joined = []  # (chunks submitted, chunks joined) as each pass is joined
        real = experiment.engine.concat_chunks

        def spy(parts):
            joined.append((executors[0].tasks, len(parts)))
            return real(parts)

        monkeypatch.setattr(experiment.engine, "concat_chunks", spy)
        run(cfg, workers=2)
        assert joined == [(9, 3)] * 3

    def test_chunk_raising_in_a_worker_is_exit_3(self, tmp_path, capsys, executors,
                                                 kernels, monkeypatch):
        main_pid = os.getpid()
        real = experiment.engine.simulate_paths

        def chunk(e, kern, *args, **kwargs):
            if os.getpid() != main_pid and kern.n == 32:
                raise RuntimeError("chunk failed in a worker")
            return real(e, kern, *args, **kwargs)

        monkeypatch.setattr(experiment.engine, "simulate_paths", chunk)
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 32)  # 2 chunks
        path = _write(tmp_path, "c.json", _base_config(
            tmp_path, suites=["clt", "doob"], n_grid=[16, 32, 64], replicates=60))
        assert main(["run", path, "--workers", "2"]) == 3
        assert "chunk failed in a worker" in capsys.readouterr().err
        assert len(executors) == 1 and executors[0].shut_down
        assert [n for n, _ in kernels] == [64] and _released(kernels)  # doob's

    # A pooled run whose chunk task cannot reach or finish in a worker ends
    # at once with exit 3, in a fresh interpreter that a hang cannot stall.
    _BROKEN_POOL = {
        "unpicklable": ("experiment._chunk_task = lambda *args: None",
                        "Can't pickle"),
        "worker_dies": ("main_pid, real = os.getpid(), engine.simulate_paths\n"
                        "def chunk(*args, **kwargs):\n"
                        "    if os.getpid() != main_pid:\n"
                        "        os._exit(1)\n"
                        "    return real(*args, **kwargs)\n"
                        "engine.simulate_paths = chunk",
                        "BrokenProcessPool"),
    }

    @pytest.mark.parametrize("case", sorted(_BROKEN_POOL))
    def test_a_broken_pooled_task_is_exit_3_not_a_hang(self, tmp_path, case):
        patch, message = self._BROKEN_POOL[case]
        path = _write(tmp_path, "c.json", _base_config(
            tmp_path, suites=["clt"], n_grid=[16, 32], replicates=60))
        script = ("import os, sys\n"
                  "from expclt import engine, experiment\n"
                  "from expclt.cli import main\n"
                  "engine.batch_size = lambda *args: 32  # 2 chunks a pass, so a pool of 2\n"
                  f"{patch}\n"
                  f"sys.exit(main(['run', {path!r}, '--workers', '2']))\n")
        src = os.path.dirname(os.path.dirname(experiment.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the run and its pool workers
                raise
        assert proc.returncode == 3, err
        assert err.startswith("error: ") and message in err

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/stat"),
                        reason="reads a process's state from /proc")
    def test_pool_workers_end_when_the_run_is_killed(self, tmp_path):
        # The main process of a 2-worker run is SIGKILLed while each worker
        # holds a chunk, so no pool.shutdown runs; a worker that outlived it
        # would wait on the call queue forever.
        pids = tmp_path / "pids"
        pids.mkdir()
        path = _write(tmp_path, "c.json", _base_config(
            tmp_path, suites=["clt"], n_grid=[16, 32], replicates=60))
        script = ("import os, sys, time\n"
                  "from expclt import engine\n"
                  "from expclt.cli import main\n"
                  "engine.batch_size = lambda *args: 32  # 2 chunks a pass, so a pool of 2\n"
                  "def chunk(*args, **kwargs):  # runs in a worker only\n"
                  f"    open(os.path.join({str(pids)!r}, str(os.getpid())), 'w').close()\n"
                  "    time.sleep(60)\n"
                  "engine.simulate_paths = chunk\n"
                  f"sys.exit(main(['run', {path!r}, '--workers', '2']))\n")
        src = os.path.dirname(os.path.dirname(experiment.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(os.listdir(pids)) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            workers = [int(name) for name in os.listdir(pids)]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, workers))
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # any worker left of the run
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)

    def test_a_clt_suite_that_stops_early_queues_no_pass(self, tmp_path, executors,
                                                         monkeypatch):
        # Canonical probes project a diagonal law's limit to 0, so the clt
        # suite stops before it takes a pass: the pool gets only the
        # martingale suite's three passes of four chunks each.
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 12)
        raw = _base_config(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                           replicates=40,
                           ensemble={"family": "diagonal_uniform", "dim": 3,
                                     "low": -0.5, "high": 1.0})
        reports = []
        for w in (1, 2):
            raw["output_dir"] = str(tmp_path / f"w{w}")
            reports.append(run(load_config(_write(tmp_path, f"w{w}.json", raw)), workers=w))
        assert len(executors) == 1 and executors[0].tasks == 3 * 4
        alone = load_config(_write(tmp_path, "clt.json", dict(raw, suites=["clt"])))
        assert experiment._passes(experiment._References(alone)) == []  # alone, no pass
        assert "error" in reports[1].suites["clt"]["details"]
        assert reports[0].suites == reports[1].suites
        for name in raw["suites"]:
            assert (open(reports[0].csv_paths[name], "rb").read()
                    == open(reports[1].csv_paths[name], "rb").read())

    # The clt and martingale suites read one path pass per n. Neither suite's
    # bytes may depend on whether the other is configured, at any worker
    # count; a forced width of 12 cuts 40 replicates into 4 chunks.
    # At d = 1 a clt-only pass counts its words and a martingale pass its rows.
    @pytest.mark.parametrize("ensemble", [
        {"family": "diagonal_uniform", "dim": 4, "low": -0.5, "high": 1.0},
        {"family": "finite_support", "probabilities": [0.2, 0.3, 0.5],
         "matrices": np.random.default_rng(4).uniform(-0.3, 0.3, (3, 3, 3)).tolist()},
        {"family": "two_point", "dim": 1, "a0": [[0.3]], "a1": [[1.0]], "p": 0.5},
        {"family": "finite_support", "dim": 1, "probabilities": [0.1, 0.3, 0.2, 0.25, 0.15],
         "matrices": np.random.default_rng(5).uniform(-1.0, 1.0, (5, 1, 1)).tolist()},
    ], ids=["diagonal", "finite_support", "two_point_d1", "finite_support_d1_m5"])
    def test_shared_pass_bytes_do_not_depend_on_the_other_suites(self, tmp_path,
                                                                   monkeypatch, ensemble):
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 12)
        rng = np.random.default_rng(10)
        d = ensemble.get("dim", 3)
        raw = _base_config(tmp_path, ensemble=ensemble, n_grid=[16, 32, 64],
                           replicates=40,
                           probes={"x": rng.uniform(-1, 1, d).tolist(),
                                   "y": rng.uniform(-1, 1, d).tolist()})
        csv = {}
        for suites in (["clt"], ["martingale"], list(SUITE_NAMES)):
            for w in (1, 2):
                out = tmp_path / f"{'-'.join(suites)}-w{w}"
                cfg = load_config(_write(tmp_path, "c.json", dict(
                    raw, suites=suites, output_dir=str(out))))
                run(cfg, workers=w)
                for name in set(suites) & {"clt", "martingale"}:
                    csv.setdefault(name, []).append((out / f"{name}.csv").read_bytes())
        for name in ("clt", "martingale"):
            assert len(csv[name]) == 4 and len(set(csv[name])) == 1

    def test_one_stream_per_pass(self, tmp_path, monkeypatch):
        # one path pass per n keys one stream, whose words its replicates
        # share out, where each replicate used to key a stream of its own
        tags = []
        child = experiment.RngStream.child

        def spy(self, *parts):
            tags.append(parts)
            return child(self, *parts)

        monkeypatch.setattr(experiment.RngStream, "child", spy)
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 32)  # 2 chunks
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                        replicates=50)
        run(cfg, workers=1)
        assert tags == [("clt", 16), ("clt", 32), ("clt", 64)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("ensemble", [
        {"family": "diagonal_uniform", "dim": 3, "low": -0.5, "high": 1.0},
        {"family": "finite_support", "probabilities": [0.2, 0.3, 0.5],
         "matrices": np.random.default_rng(5).uniform(-0.5, 0.5, (3, 3, 3)).tolist()},
    ], ids=["diagonal", "finite_support"])
    def test_pass_replays_sample_xi_at_each_replicates_word(self, tmp_path, monkeypatch,
                                                           workers, ensemble):
        # replicate i of the pass at n is sample_xi from the pass stream
        # ("clt", n) moved to word i n entries_per_draw, in chunks of 3 rows
        # (the last of 2) in this process or shared by a pool of two
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 3)
        n, reps = 16, 20
        cfg = self._cfg(tmp_path, ensemble=ensemble, suites=["clt"], n_grid=[n],
                        replicates=reps)
        pool = None if workers == 1 else experiment.ProcessPoolExecutor(
            max_workers=2, initializer=experiment._References.start_worker, initargs=(cfg,))
        try:
            out = engine.concat_chunks(list(experiment._map_pass(experiment._References(cfg),
                                                                 n, pool)))
        finally:
            if pool is not None:
                pool.shutdown()
        e, kern = cfg.ensemble, precompute_kernel(cfg.ensemble, n)
        stream = RngStream(cfg.master_seed).child("clt", n)
        for i in range(reps):
            ref = sample_xi(e, n, cfg.x, stream.at(i * n * e.entries_per_draw), kern)
            assert out["proj_xi"][i] == pytest.approx(float(cfg.y @ ref.xi_x),
                                                      rel=1e-11, abs=1e-13)

    def test_a_pass_builds_the_kernel_of_its_own_law(self, tmp_path):
        # the passes of two laws at one n, with no run() between, each read
        # the kernel of their own references
        n = 16
        for ensemble in ({"family": "diagonal_uniform", "dim": 3, "low": -0.5, "high": 1.0},
                         {"family": "finite_support", "probabilities": [0.2, 0.3, 0.5],
                          "matrices": np.random.default_rng(5).uniform(
                              -0.5, 0.5, (3, 3, 3)).tolist()}):
            cfg = self._cfg(tmp_path, ensemble=ensemble, suites=["clt"], n_grid=[n],
                            replicates=20)
            refs = experiment._References(cfg)
            out = engine.concat_chunks(list(experiment._map_pass(refs, n, None)))
            assert refs.kernel(n).ensemble is cfg.ensemble
            ref = engine.simulate_paths(cfg.ensemble, precompute_kernel(cfg.ensemble, n),
                                        cfg.x, cfg.y, RngStream(cfg.master_seed).child("clt", n),
                                        20)
            for key in ref:
                assert np.array_equal(out[key], ref[key]), key

    @pytest.mark.parametrize("ensemble", [
        {"family": "diagonal_uniform", "dim": 3, "low": -0.5, "high": 1.0},
        {"family": "finite_support", "probabilities": [0.2, 0.3, 0.5],
         "matrices": np.random.default_rng(5).uniform(-0.5, 0.5, (3, 3, 3)).tolist()},
    ], ids=["diagonal", "finite_support"])
    def test_structure_check_reads_the_path_pass_draws(self, tmp_path, ensemble):
        cfg = self._cfg(tmp_path, ensemble=ensemble, suites=["martingale"],
                        n_grid=[8, 16, 32], replicates=60)
        martingale = run(cfg, workers=1).suites["martingale"]
        check = _structure(martingale)
        ref = _structure_reference(cfg)
        assert sorted(check) == sorted(ref) == ["1", "16", "32"]
        assert martingale["details"]["structure_draws"] == 32 * 60
        for k, (mean_norm, se_4) in ref.items():
            assert check[k]["value"] == pytest.approx(mean_norm, rel=1e-9)
            assert check[k]["bound"] == pytest.approx(se_4 + 1e-15, rel=1e-12)
            assert check[k]["rule"] == "<="
            assert check[k]["ok"] is (check[k]["value"] <= check[k]["bound"])

    def test_odd_n_suites_probe_the_same_steps(self, tmp_path, monkeypatch):
        # at odd n every suite that probes steps k takes 1, (n + 1) / 2 and n:
        # the lemma_speed powers, the martingale dots and norm bounds, and
        # the structure check at the largest n
        powers, real = [], np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power",
                            lambda a, k: powers.append(k) or real(a, k))
        cfg = self._cfg(tmp_path, ensemble={"family": "two_point", "a0": [[0.3, -0.5],
                                                                          [0.2, 0.1]],
                                            "a1": [[0.5, 0.2], [-0.1, 0.4]], "p": 0.5},
                        suites=["lemma_speed", "martingale"], n_grid=[7, 9, 15],
                        replicates=50)
        martingale = run(cfg, workers=1).suites["martingale"]
        steps = {n: engine.probe_steps(n) for n in cfg.n_grid}
        assert steps == {7: [1, 4, 7], 9: [1, 5, 9], 15: [1, 8, 15]}
        assert powers == [k for ks in steps.values() for k in ks for _ in "xy"]
        names = {c["name"] for c in martingale["checks"]}
        dots = {f"|mean_dot| n={n} k={k} l={l}"
                for n, ks in steps.items() for i, k in enumerate(ks) for l in ks[i + 1 :]}
        bounds = {f"max_dnk_norm n={n} k={k}" for n, ks in steps.items() for k in ks}
        assert {c for c in names if c.startswith("|mean_dot|")} == dots
        assert {c for c in names if c.startswith("max_dnk_norm")} == bounds
        assert sorted(_structure(martingale), key=int) == ["1", "8", "15"]

    def test_covariance_probes_are_consecutive_diagonal_draws(self, tmp_path, monkeypatch):
        pairs, real = [], CovarianceOperator.project

        def project(op, x, y):
            if type(op) is CovarianceOperator:  # not the commuting oracle
                pairs.append((np.array(x), np.array(y)))
            return real(op, x, y)

        monkeypatch.setattr(CovarianceOperator, "project", project)
        cfg = self._cfg(tmp_path, ensemble={"family": "two_point", "a0": [[0.3, -0.5, 0.0],
                                                                          [0.2, 0.1, 0.4],
                                                                          [0.0, 0.6, -0.2]],
                                            "a1": np.eye(3).tolist(), "p": 0.3},
                        probes={"x": [1.0, 0.5, -0.2], "y": [0.3, -1.0, 0.7]},
                        suites=["covariance"])
        run(cfg, workers=1)
        stream = RngStream(cfg.master_seed).child("covariance-probes")
        law = diagonal_uniform(3, -1.0, 1.0)
        draws = [law.draws(stream, 1)[0] for _ in range(40)]
        assert len(pairs) == 22  # the 21 probe pairs, then (y, x)
        assert np.array_equal(pairs[0][0], cfg.x) and np.array_equal(pairs[0][1], cfg.y)
        for (px, py), i in zip(pairs[1:21], range(0, 40, 2)):
            assert np.array_equal(px, draws[i]) and np.array_equal(py, draws[i + 1])
        assert np.array_equal(pairs[21][0], cfg.y) and np.array_equal(pairs[21][1], cfg.x)

    def test_structure_check_sees_a_fault_in_the_path_draws(self, tmp_path, monkeypatch):
        # Every 20th step of the path pass turns its draws of a1 into a0: 5%
        # of the a1 draws move, which shifts the mean of A - EA by 0.05 on
        # an SD of 1, 14 standard errors at 80 x 1000 draws.
        cfg = self._cfg(tmp_path, suites=["martingale"], n_grid=[20, 40, 80],
                        replicates=1000)

        def structure_check():
            report = run(cfg, workers=1)
            details = report.suites["martingale"]["details"]
            return report.suites["martingale"]["passed"], _structure(report.suites["martingale"])

        passed, check = structure_check()
        assert passed and all(v["ok"] for v in check.values())
        real = experiment.engine._draw_rows

        def faulty(e, stream, n, lo, hi):
            rows = real(e, stream, n, lo, hi)
            steps = rows[:, ::20]
            steps[steps == 1] = 0
            return rows

        monkeypatch.setattr(experiment.engine, "_draw_rows", faulty)
        passed, check = structure_check()
        assert not passed
        assert not any(v["ok"] for v in check.values())
        assert all(v["value"] > 2 * (v["bound"] - 1e-15) for v in check.values())

    def test_a_worker_builds_one_kernel_per_n_and_no_task_carries_the_config(
            self, tmp_path, monkeypatch, count_calls):
        # A pool worker builds its references once, as it starts, and serves
        # the chunk tasks of each n from one kernel. Each task crosses to the
        # worker through pickle, which here refuses a config or a law.
        def refuse(self, protocol):
            raise AssertionError(f"a chunk task pickles a {type(self).__name__}")

        class Worker:  # runs each task as a pool worker would, after pickling it
            def map(self, fn, items):
                return [pickle.loads(pickle.dumps((fn, b), 5))[0](b) for b in items]

        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 5)  # 4 chunks
        monkeypatch.setattr(experiment._References, "worker", None)
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32],
                        replicates=20)
        here = {n: engine.concat_chunks(list(experiment._map_pass(
            experiment._References(cfg), n, None))) for n in cfg.n_grid}
        built = count_calls(experiment, "precompute_kernel")
        experiment._References.start_worker(cfg)
        for cls in (experiment.ExperimentConfig, experiment.Ensemble):
            monkeypatch.setattr(cls, "__reduce_ex__", refuse)
        pooled = {n: engine.concat_chunks(experiment._map_pass(
            experiment._References(cfg), n, Worker())) for n in cfg.n_grid}
        assert [n for _, n in built] == [16, 32]
        for n in cfg.n_grid:
            assert all(np.array_equal(here[n][k], pooled[n][k]) for k in here[n])

    def test_a_run_keeps_no_kernel_after_it_returns(self, tmp_path, kernels):
        cfg = self._cfg(tmp_path, suites=["clt"], n_grid=[16, 32], replicates=50)
        run(cfg, workers=1)
        assert [n for n, _ in kernels] == [16, 32] and _released(kernels)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_process_keeps_one_kernel_at_a_time(self, tmp_path, executors, kernels,
                                                  monkeypatch, workers):
        # Every process, the main one and each forked worker, drops the
        # kernel its references hold before it builds that of another n; a
        # worker's failed check reaches the main process through its chunk's
        # result.
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 25)  # 2 chunks
        cfg = self._cfg(tmp_path, suites=list(SUITE_NAMES), n_grid=[16, 32, 64],
                        replicates=50)
        run(cfg, workers=workers)
        assert len(executors) == workers - 1
        # here doob at the largest n, then martingale in grid order, which the
        # chunks of its passes share without a pool; clt reads the passes
        # martingale joined and builds none
        assert [n for n, _ in kernels] == [64, 16, 32, 64]
        assert _released(kernels)

    def test_failing_suite_recorded_and_run_continues(self, tmp_path):
        # two grid points cannot support a slope fit: lemma_speed fails,
        # doob still executes and passes
        cfg = self._cfg(tmp_path, n_grid=[16, 32])
        report = run(cfg, workers=1)
        assert not report.all_passed
        assert not report.suites["lemma_speed"]["passed"]
        assert report.suites["doob"]["passed"]
        assert os.path.exists(report.csv_paths["lemma_speed"])


def _structure(suite):
    """The martingale suite's structure checks in a summary, by k."""
    return {c["name"].rpartition("k=")[2]: c for c in suite["checks"]
            if c["name"].startswith("structure")}


def _structure_reference(cfg):
    """Per k, the structure check's mean norm and 4 standard errors: the path
    pass's draws at the largest n redrawn by sample_indices or
    sample_diagonal_values, and E ||d_{n,k}||_F^2 summed over the support or
    over the independent diagonal entries."""
    e, n, reps = cfg.ensemble, cfg.n_grid[-1], cfg.replicates
    stream = RngStream(cfg.master_seed).child("clt", n)
    streams = [stream.at(i * n * e.entries_per_draw) for i in range(reps)]
    kern = precompute_kernel(e, n)
    if e.is_finite_support:
        idx = np.concatenate([e.sample_indices(r, n) for r in streams])
        deltas = [a - e.mean() for a in e.support]
        counts = np.bincount(idx, minlength=len(deltas))
        total = sum(c * delta for c, delta in zip(counts, deltas))
    else:
        mid = (e.low + e.high) / 2
        total = np.diag(sum(e.sample_diagonal_values(r, n).sum(axis=0) - n * mid
                            for r in streams))
    out = {}
    for k in engine.probe_steps(n):
        p, q = kern.p_powers[k - 1], kern.p_powers[n - k]
        if e.is_finite_support:
            second = sum(w * np.sum((p @ delta @ q) ** 2)
                         for w, delta in zip(e.probabilities, deltas))
        else:
            var = (e.high - e.low) ** 2 / 12
            second = var * np.sum(np.sum(p**2, axis=0) * np.sum(q**2, axis=1))
        draws = n * reps
        out[str(k)] = (op_norm(p @ total @ q) / (draws * math.sqrt(n)),
                       4 * math.sqrt(second / (n * draws)))
    return out


class TestReferences:
    _DIAG = {"family": "diagonal_uniform", "dim": 3, "low": -0.5, "high": 1.0}
    _PROBES = {"x": [0.6, -0.2, 0.9], "y": [0.4, 0.8, -0.3]}

    @pytest.mark.parametrize("ensemble", [
        {"family": "two_point", "a0": [[0.3, -0.5], [0.2, 0.1]],
         "a1": [[7.0, 0.0], [0.0, 7.0]], "p": 0.5},
        _DIAG,
    ], ids=["two_point_32_nodes", "diagonal"])
    def test_sigma2_is_the_m_node_rule_bit_for_bit(self, tmp_path, count_calls, ensemble):
        d = ensemble.get("dim", 2)
        cfg = load_config(_write(tmp_path, "c.json", _base_config(
            tmp_path, ensemble=ensemble,
            probes={"x": self._PROBES["x"][:d], "y": self._PROBES["y"][:d]})))
        calls = count_calls(experiment, "sigma_projected")
        refs, e = experiment._References(cfg), cfg.ensemble
        ref = sigma_projected_at(e, cfg.x, cfg.y, quadrature_nodes(e))
        assert np.float64(refs.sigma2).tobytes() == np.float64(ref).tobytes()
        assert refs.sigma2 == ref and len(calls) == 1  # computed when first read, once

    @pytest.mark.parametrize("suites, own", [
        (["martingale", "doob", "lemma_speed"], 0), (["clt"], 1),
        (["covariance", "martingale", "clt"], 1)])
    def test_a_run_computes_its_sigma2_once_when_a_suite_reads_it(self, tmp_path,
                                                                 count_calls, suites, own):
        # the covariance suite projects other probes and shifted laws too
        cfg = load_config(_write(tmp_path, "c.json", _base_config(
            tmp_path, ensemble=self._DIAG, probes=self._PROBES, suites=suites,
            n_grid=[8, 16, 32], replicates=20)))
        calls = count_calls(experiment, "sigma_projected")
        run(cfg, workers=1)
        assert sum(e is cfg.ensemble and x is cfg.x and y is cfg.y
                   for e, x, y in calls) == own

    @pytest.mark.parametrize("ensemble", [
        _DIAG,
        {"family": "finite_support", "probabilities": [0.2, 0.3, 0.5],
         "matrices": np.random.default_rng(4).uniform(-0.3, 0.3, (3, 3, 3)).tolist()},
        {"family": "two_point", "dim": 1, "a0": [[0.3]], "a1": [[1.0]], "p": 0.5},
    ], ids=["diagonal", "finite_support", "two_point_d1"])
    @pytest.mark.parametrize("suites", [["clt"], ["martingale"]])
    def test_result_bytes_count_every_array_the_passes_return(self, tmp_path, monkeypatch,
                                                              ensemble, suites):
        # 40 replicates in 4 chunks of at most 12: a finite support returns 4
        # tally rows a pass, and a diagonal law 40, which the bound takes as
        # 4 chunks of 12
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 12)
        d = ensemble.get("dim", 3)
        cfg = load_config(_write(tmp_path, "c.json", _base_config(
            tmp_path, ensemble=ensemble, suites=suites, n_grid=[8, 16], replicates=40,
            probes={"x": self._PROBES["x"][:d], "y": self._PROBES["y"][:d]})))
        refs = experiment._References(cfg)
        kept = sum(a.nbytes for n in cfg.n_grid for a in engine.concat_chunks(
            list(experiment._map_pass(refs, n, None))).values())
        bound = experiment._result_bytes(cfg.ensemble, cfg.n_grid, 40, cfg.suites)
        diagonal = "martingale" in suites and ensemble is self._DIAG
        assert bound - kept == (2 * 8 * 8 * d if diagonal else 0)


class TestCheck:
    def test_strict_and_weak_rules_at_equality(self):
        assert Check("a", 1.0, 1.0, "<=").ok
        assert not Check("a", 1.0, 1.0, "<").ok
        assert Check("a", 1.0, 1.0, ">=").ok
        assert all(Check("a", 1.0, 1.0, rule).margin == 0.0 for rule in ("<=", "<", ">="))

    @pytest.mark.parametrize("rule, inside, outside", [
        ("<=", 0.5, 2.0), ("<", 0.5, 2.0), (">=", 2.0, 0.5)])
    def test_margin_is_positive_inside_and_negative_outside(self, rule, inside, outside):
        held, failed = Check("a", inside, 1.0, rule), Check("a", outside, 1.0, rule)
        assert held.ok and held.margin == abs(inside - 1.0)
        assert not failed.ok and failed.margin == -abs(outside - 1.0)

    def test_suite_passes_when_every_check_holds_and_no_error(self):
        held, failed = Check("a", 0.0, 1.0, "<="), Check("b", 2.0, 1.0, "<=")
        result = experiment.SuiteResult
        assert result("s", (held, held), {}, (), ()).passed
        assert not result("s", (held, failed), {}, (), ()).passed
        assert not result("s", (held,), {"error": "probes"}, (), ()).passed

    @pytest.mark.parametrize("inflation, ok", [(1.0, True), (1.1, False)])
    def test_clt_checks_a_planted_sample(self, tmp_path, inflation, ok):
        # a seeded N(0, inflation sigma^2) sample stands in for the path
        # pass: a variance 10% too large fails the 7% band, with no engine run
        cfg = load_config(_write(tmp_path, "c.json", _base_config(
            tmp_path, n_grid=[64, 4096], replicates=20_000, suites=["clt"])))
        refs = experiment._References(cfg)
        refs.sigma2 = sigma2 = 0.25  # in place of the law's own
        sample = np.random.default_rng(11).normal(0.0, math.sqrt(inflation * sigma2), 20_000)
        result = experiment._suite_clt(cfg, refs, lambda n: {"proj_xi": sample})
        checks = {c.name: c for c in result.checks}
        assert sorted(checks) == ["ks_distance n=4096", "relative_variance_error n=4096"]
        variance = checks["relative_variance_error n=4096"]
        assert (variance.bound, variance.rule) == (cfg.variance_rtol, "<=")
        assert variance.value == pytest.approx(inflation - 1.0, abs=0.03)
        assert variance.ok is ok and (variance.margin > 0.0) is ok
        assert result.passed is (ok and checks["ks_distance n=4096"].ok)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -4, 2.0, "2", True])
    def test_run_rejects_a_count_that_is_not_an_integer_above_0(self, tmp_path, workers):
        cfg = load_config(_write(tmp_path, "c.json", _base_config(tmp_path)))
        with pytest.raises(ConfigError, match="workers: must be an integer >= 1, got "):
            run(cfg, workers=workers)
        assert not os.path.exists(cfg.output_dir)  # rejected before anything is written

    @pytest.mark.parametrize("cpus, sizes", [(None, []), (1, []), (3, [3]), (8, [4])])
    def test_the_default_is_min_of_4_and_the_cpu_count(self, tmp_path, fake_pools,
                                                       monkeypatch, cpus, sizes):
        # width n: 100 replicates make 7 chunks at n = 16
        monkeypatch.setattr(experiment.engine, "batch_size", lambda e, n: n)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = load_config(_write(tmp_path, "c.json", _base_config(
            tmp_path, suites=["clt"], n_grid=[16, 32], replicates=100)))
        run(cfg)
        assert fake_pools == sizes


class TestCli:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_and_workers(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _base_config(tmp_path))
        assert main(["run", path, "--seed", "-3"]) == 2
        assert main(["run", path, "--workers", "0"]) == 2
        assert "error: workers: must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_unknown_suites_flag(self, tmp_path):
        path = _write(tmp_path, "c.json", _base_config(tmp_path))
        assert main(["run", path, "--suites", "doob,bogus"]) == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--suites", "doob,doob", "suites"),
        ("--out", "", "output_dir"),
        ("--out", "c.json", "output_dir"),  # an existing file
    ])
    def test_bad_override_is_exit_2(self, tmp_path, capsys, monkeypatch, flag, value,
                                    field):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path, "c.json", _base_config(tmp_path))
        assert main(["run", "c.json", flag, value, "--workers", "1"]) == 2
        assert f"{field}: " in capsys.readouterr().err

    def test_unexpected_exception_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("suite failed\nto run")

        monkeypatch.setitem(experiment._SUITES, "doob", broken)
        path = _write(tmp_path, "c.json", _base_config(tmp_path, suites=["doob"]))
        assert main(["run", path, "--workers", "1"]) == 3
        assert capsys.readouterr().err == "error: RuntimeError('suite failed\\nto run')\n"

    def test_non_finite_summary_is_exit_3_and_never_written(self, tmp_path, capsys,
                                                            monkeypatch):
        def nan_suite(cfg, refs, paths):
            return experiment.SuiteResult("doob", (), {"value": float("nan")}, ("k",), ())

        monkeypatch.setitem(experiment._SUITES, "doob", nan_suite)
        path = _write(tmp_path, "c.json", _base_config(tmp_path, suites=["doob"]))
        assert main(["run", path, "--workers", "1"]) == 3
        assert "not JSON compliant" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_passing_run_exit_0(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _base_config(tmp_path))
        rc = main(["run", path, "--suites", "doob,covariance", "--workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rho=" in out  # derived bound echoed before the suites run
        assert out.count("[PASS]") == 2
        assert "config digest:" in out

    def test_nan_probability_is_exit_2(self, tmp_path, capsys):
        # Python's json reads the bare NaN token as a float
        raw = json.dumps(_base_config(tmp_path, ensemble={
            "family": "finite_support", "matrices": [[[0.0]], [[1.0]]],
            "probabilities": [float("nan"), 1.0]}))
        assert "NaN" in raw
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        assert "ensemble: probabilities must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("zero", ["x", "y"])
    def test_zero_probe_is_exit_2(self, tmp_path, capsys, zero):
        # a zero probe makes sigma^2 = 0, which would let clt pass vacuously
        probes = {"x": [1.0], "y": [1.0]}
        probes[zero] = [0.0]
        raw = _base_config(tmp_path, probes=probes, suites=["clt"])
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        assert f"probes.{zero}: must not be the zero vector" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [True, "abc"])
    def test_bad_dim_is_exit_2(self, tmp_path, capsys, dim):
        raw = _base_config(tmp_path)
        raw["ensemble"]["dim"] = dim
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        assert "ensemble.dim: must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("path, over", [
        ("ensemble.matrix", {"ensemble": {"family": "deterministic", "matrix": [0.5] * 200_000}}),
        ("n_grid", {"n_grid": list(range(100_000, 0, -1))}),
    ], ids=["long_matrix", "long_n_grid"])
    def test_rejected_value_is_echoed_briefly(self, tmp_path, capsys, path, over):
        raw = _base_config(tmp_path, **over)
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: must be" in err and len(err.encode()) < 1000

    @pytest.mark.parametrize("field, over", [
        ("n_grid", {"ensemble": _SCALAR, "n_grid": [2**40], "suites": ["clt"]}),
        ("n_grid", {"ensemble": _DIAG_MAX, "probes": _PROBES_MAX, "n_grid": [4096],
                    "suites": ["clt"]}),
        ("replicates", {"ensemble": _SCALAR, "n_grid": [4096], "replicates": 10**15,
                        "suites": ["clt"]}),
    ], ids=["kernel_tables_at_n_2_40", "kernel_tables_at_max_dim", "results_at_10_15_replicates"])
    def test_config_too_large_for_memory_is_exit_2(self, tmp_path, capsys, field, over):
        # each used to pass validation and then exit 3 with a MemoryError
        raw = _base_config(tmp_path, **over)
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert f"\n  {field}: " in err and "GiB, above the cap of 1 GiB" in err
        assert not os.path.exists(raw["output_dir"])

    def test_structure_draws_is_an_unknown_field(self, tmp_path, capsys):
        # the structure check reads the path pass's draws, so no field sizes it
        raw = _base_config(tmp_path, n_grid=[16, 32, 64], structure_draws=2**40,
                           suites=["martingale"])
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 2
        assert "\n  structure_draws: unknown field" in capsys.readouterr().err
        assert not os.path.exists(raw["output_dir"])

    def test_covariance_passes_past_d_16(self, tmp_path, capsys):
        # Sigma is projected matrix-free, so no dimension cap applies
        rng = np.random.default_rng(17)
        mats = [rng.uniform(-1.0, 1.0, (18, 18)) / 18 for _ in range(2)]
        for ensemble in ({"family": "diagonal_uniform", "dim": 17, "low": -0.5, "high": 1.0},
                         {"family": "two_point", "a0": mats[0].tolist(),
                          "a1": mats[1].tolist(), "p": 0.4}):
            raw = _base_config(tmp_path, suites=["covariance"], ensemble=ensemble)
            assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 0
            assert "[PASS] covariance" in capsys.readouterr().out

    @pytest.mark.parametrize("scale, m", [(6.0, 32), (7.0, 32), (7.5, 32), (70.0, 256)])
    def test_covariance_resolves_skew_dominated_laws(self, tmp_path, capsys, monkeypatch,
                                                     scale, m):
        # rho ~ scale + 0.5: the integrand oscillates like cos(4 ||EA|| s), so 16
        # nodes miss sigma^2 by 1e-9 at scale 7 and fixed 64- and 128-node rules
        # read a node-doubling delta of 0.107 at scale 70, although both routes
        # agree to 5e-15; the compared rules grow with rho, the 1e-12 gate does not
        rot = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])
        tilt = np.array([[0.5, 0.2], [0.1, -0.3]])
        raw = _base_config(tmp_path, suites=["covariance"],
                           ensemble={"family": "two_point", "a0": (rot + tilt).tolist(),
                                     "a1": (rot - tilt).tolist(), "p": 0.5})
        path = _write(tmp_path, "c.json", raw)
        assert main(["run", path, "--workers", "1"]) == 0
        assert "[PASS] covariance" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["suites"]["covariance"]["details"]["node_doubling_delta"] < 1e-14
        # a planted error of 1e-9 in the larger rule still fails the suite
        rules, real = [], experiment.sigma_projected_at

        def planted(e, x, y, k):
            rules.append(k)
            return real(e, x, y, k) * (1.0 + 1e-9 * (k == 2 * m))

        monkeypatch.setattr(experiment, "sigma_projected_at", planted)
        assert main(["run", path, "--workers", "1"]) == 1
        assert "[FAIL] covariance" in capsys.readouterr().out
        assert rules == [2 * m]  # the m-node rule is the run's sigma2

    def test_covariance_certifies_the_emitted_rule(self, tmp_path, capsys, monkeypatch):
        # rho = 0.8: every sigma_projected value, the run's sigma2 too, takes 16
        # nodes, and the suite compares that rule with 32 nodes; a planted 1e-9
        # error in the 32-node rule fails the suite
        a0 = [[0.3, -0.5], [0.2, 0.1]]
        a1 = (0.8 * np.eye(2)).tolist()
        raw = _base_config(tmp_path, suites=["covariance"],
                           ensemble={"family": "two_point", "a0": a0, "a1": a1, "p": 0.5})
        path = _write(tmp_path, "c.json", raw)
        rules, real, error = [], experiment.sigma_projected_at, [0.0]

        def planted(e, x, y, m):
            rules.append(m)
            return real(e, x, y, m) * (1.0 + error[0] * (m == 32))

        monkeypatch.setattr(experiment, "sigma_projected_at", planted)
        assert main(["run", path, "--workers", "1"]) == 0
        assert "[PASS] covariance" in capsys.readouterr().out
        assert rules == [32]
        e, x, y = experiment.load_config(path).ensemble, [1.0, 0.0], [0.0, 1.0]
        v16, v32 = real(e, x, y, 16), real(e, x, y, 32)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        details = summary["suites"]["covariance"]["details"]
        assert details["node_doubling_delta"] == abs(v32 - v16) / abs(v32)
        rules[:], error[0] = [], 1e-9
        assert main(["run", path, "--workers", "1"]) == 1
        assert "[FAIL] covariance" in capsys.readouterr().out
        assert rules == [32]

    def test_zero_projected_variance_of_random_law_fails_clt(self, tmp_path, capsys):
        # canonical probes (e1, e2) see nothing of a diagonal law: sigma^2 = 0
        # and every sample is 0, which must not read as a degenerate PASS
        raw = _base_config(tmp_path, n_grid=[16, 32], replicates=200, suites=["clt"],
                           ensemble={"family": "diagonal_uniform", "dim": 3,
                                     "low": -0.5, "high": 1.0})
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 1
        assert "[FAIL] clt" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        clt = summary["suites"]["clt"]
        assert clt["details"]["sigma2_ref"] == 0.0
        assert clt["details"]["error"].startswith("probes:")
        # same keys as a verdict that simulated, with nothing per n
        assert clt["details"]["per_n"] == {}
        assert {"degenerate", "variance_rtol", "pass_rule"} <= set(clt["details"])

    def test_zero_curves_of_random_law_fail_martingale(self, tmp_path, capsys):
        # canonical x = e1 lies in the kernel of both draws: every martingale
        # curve is exactly 0, which must not read as a PASS of each decay claim
        raw = _base_config(tmp_path, n_grid=[16, 32, 64], replicates=200,
                           suites=["martingale"],
                           ensemble={"family": "two_point", "a0": [[0.0, 0.0], [0.0, 0.0]],
                                     "a1": [[0.0, 0.0], [0.0, 1.0]], "p": 0.5})
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 1
        assert "[FAIL] martingale" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        details = summary["suites"]["martingale"]["details"]
        assert details["error"].startswith("probes:")
        assert all(v == {"marker": "exact-zero"} for v in details["slopes"].values())
        rows = (tmp_path / "out" / "martingale.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(v) == 0.0 for row in rows for v in row.split(",")[1:])

    @pytest.mark.parametrize("ensemble", [
        {"family": "two_point", "a0": [[0.0]], "a1": [[2.0]], "p": 1.0},
        {"family": "two_point", "a0": [[0.0]], "a1": [[2.0]], "p": 0.0},
        {"family": "finite_support", "matrices": [[[0.0]], [[0.5]], [[2.0]]],
         "probabilities": [0.0, 1.0, 0.0]},
    ], ids=["two_point_p1", "two_point_p0", "finite_support_one_weight"])
    def test_point_mass_with_zero_weight_matrices_is_degenerate(self, tmp_path, capsys,
                                                                ensemble):
        # a matrix of probability 0 is never drawn: the law is a point mass
        raw = _base_config(tmp_path, n_grid=[16, 32, 64], replicates=50,
                           suites=["clt", "martingale"], ensemble=dict(ensemble, dim=1))
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] clt" in out and "[PASS] martingale" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["suites"]["clt"]["details"]["degenerate"] is True

    def test_point_mass_lemma_speed_checks_a_zero_bound(self, tmp_path, capsys):
        # three equal matrices: rounding leaves some norms exactly 0 and one
        # at n = 300 near 1e-13, where slope fits would need positive norms
        raw = _base_config(tmp_path, n_grid=[100, 300, 1000], suites=["lemma_speed"],
                           ensemble={"family": "finite_support",
                                     "matrices": [[[0.8]], [[0.8]], [[0.8]]],
                                     "probabilities": [1 / 3, 1 / 3, 1 / 3]})
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 0
        assert "[PASS] lemma_speed" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        details = summary["suites"]["lemma_speed"]["details"]
        assert details["marker"] == "exact-zero"
        assert sorted(details["per_n"]) == ["100", "1000", "300"]
        assert any(v["max_norm"] > 0.0 for v in details["per_n"].values())
        checks = summary["suites"]["lemma_speed"]["checks"]
        assert [c["name"] for c in checks] == [f"max_norm n={n}" for n in (100, 300, 1000)]
        assert [c["value"] for c in checks] == [details["per_n"][str(n)]["max_norm"]
                                                for n in (100, 300, 1000)]
        assert all(c["ok"] and c["value"] <= c["bound"] for c in checks)

    @pytest.mark.parametrize("ensemble", [
        {"family": "finite_support", "matrices": [[[0.8]], [[0.8]], [[0.8]]],
         "probabilities": [1 / 3, 1 / 3, 0.3333333333333334]},
        {"family": "deterministic", "matrix": [[0.8]]},
    ], ids=["repeated_matrix", "deterministic"])
    def test_point_mass_covariance_checks_a_zero_bound(self, tmp_path, capsys, ensemble):
        # the repeated matrix's mean rounds, so its shifted sigma is about
        # 1e-34 against a target of exactly 0: a relative shift check fails
        raw = _base_config(tmp_path, suites=["covariance"], ensemble=ensemble)
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 0
        assert "[PASS] covariance" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        details = summary["suites"]["covariance"]["details"]
        assert details["marker"] == "exact-zero"
        (check,) = summary["suites"]["covariance"]["checks"]
        assert check["name"] == "max_abs_sigma" and check["ok"]
        assert 0.0 <= check["value"] <= check["bound"] < 1e-15

    def test_random_law_with_zero_lemma_norms_fails_lemma_speed(self, tmp_path, capsys):
        # a spread of 1e-9 is below double precision in E e^{A/n} past n = 16
        raw = _base_config(tmp_path, n_grid=[16, 100, 300], suites=["lemma_speed"],
                           ensemble={"family": "two_point", "a0": [[0.0]],
                                     "a1": [[1e-9]], "p": 0.5})
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) == 1
        assert "[FAIL] lemma_speed" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "norms > 0" in summary["suites"]["lemma_speed"]["details"]["error"]

    @pytest.mark.parametrize("a0, a1, codes, curve, entry", [
        # commuting draws: every remainder is exactly zero
        ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], (0, 1), "median_Rn_norm",
         {"marker": "exact-zero"}),
        # the mean squared difference is exactly zero at n = 1 only
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], (1,), "mean_diff_sq",
         {"error": "need >= 3 positive values for a slope fit"}),
    ], ids=["all_zero", "one_zero"])
    def test_martingale_curve_without_three_positive_values(self, tmp_path, capsys,
                                                            a0, a1, codes, curve, entry):
        raw = _base_config(tmp_path, n_grid=[1, 2, 3], replicates=20,
                           suites=["martingale"],
                           ensemble={"family": "two_point", "a0": a0, "a1": a1, "p": 0.5})
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) in codes
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["suites"]["martingale"]["details"]["slopes"][curve] == entry

    def test_non_numeric_probe_is_exit_2(self, tmp_path, capsys):
        raw = _base_config(tmp_path, probes={"x": ["a", 1], "y": [1.0]})
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        assert "probes.x: could not convert string to float" in capsys.readouterr().err

    def test_rho_above_cap_is_exit_2(self, tmp_path, capsys):
        rho = float(np.nextafter(experiment._MAX_RHO, np.inf))
        raw = _base_config(tmp_path, ensemble={"family": "two_point", "a0": [[0.0]],
                                               "a1": [[rho]], "p": 0.5})
        assert main(["run", _write(tmp_path, "c.json", raw)]) == 2
        assert f"ensemble: rho = max ||A|| is {rho!r}, above the cap 100" in (
            capsys.readouterr().err)

    def test_rho_at_cap_writes_strict_json(self, tmp_path):
        # beyond the cap the moments overflow into Infinity or NaN tokens
        raw = _base_config(tmp_path, n_grid=[16, 32, 64], replicates=200,
                           suites=list(SUITE_NAMES),
                           ensemble={"family": "two_point", "a0": [[0.0]],
                                     "a1": [[experiment._MAX_RHO]], "p": 0.5})
        assert main(["run", _write(tmp_path, "c.json", raw), "--workers", "1"]) in (0, 1)

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        text = (tmp_path / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert set(summary["suites"]) == set(SUITE_NAMES)

    def test_failing_run_exit_1(self, tmp_path, capsys):
        raw = _base_config(tmp_path, n_grid=[16, 32], suites=["lemma_speed"])
        path = _write(tmp_path, "c.json", raw)
        rc = main(["run", path, "--workers", "1"])
        assert rc == 1
        assert "[FAIL] lemma_speed" in capsys.readouterr().out

    def test_out_and_seed_overrides(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _base_config(tmp_path))
        alt = tmp_path / "alt"
        rc = main(["run", path, "--suites", "doob", "--out", str(alt),
                   "--seed", "99", "--workers", "1"])
        assert rc == 0
        assert (alt / "doob.csv").exists() and (alt / "summary.json").exists()
        # the digest reflects the seed override
        base = load_config(path)
        digest = json.load(open(alt / "summary.json"))["config_digest"]
        assert digest != config_digest(base)
