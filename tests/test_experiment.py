import json
import os
import re

import numpy as np
import pytest

from expclt import experiment
from expclt.cli import main
from expclt.experiment import (
    ConfigError,
    SUITE_NAMES,
    _cell,
    config_digest,
    default_workers,
    emit_csv,
    load_config,
    run,
)


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


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(_write(tmp_path, "c.json", _base_config(tmp_path)))
        assert cfg.ensemble.family == "two_point"
        assert cfg.n_grid == (16, 32, 64, 128)
        assert cfg.replicates == 300 and cfg.master_seed == 7
        assert cfg.variance_rtol == 0.07 and cfg.structure_draws == 100000
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
        ("structure_draws", True),
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

    def test_support_size_fits_uint16_indices(self, tmp_path):
        raw = _base_config(tmp_path, ensemble={
            "family": "finite_support", "matrices": [[[0.0]]] * 65_537,
            "probabilities": [1.0 / 65_537] * 65_537})
        with pytest.raises(ConfigError, match="ensemble: at most 65536 support"):
            load_config(_write(tmp_path, "c.json", raw))

    def test_optional_field_ranges(self, tmp_path):
        raw = _base_config(tmp_path, variance_rtol=1.5)
        with pytest.raises(ConfigError, match="variance_rtol"):
            load_config(_write(tmp_path, "c.json", raw))
        raw = _base_config(tmp_path, structure_draws=10)
        with pytest.raises(ConfigError, match="structure_draws"):
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
        # workers of the run's one pool share unevenly.
        rng = np.random.default_rng(8)
        raw = _base_config(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                           replicates=49, structure_draws=1000,
                           ensemble={"family": "diagonal_uniform", "dim": 8,
                                     "low": -0.5, "high": 1.0},
                           probes={"x": rng.uniform(-1, 1, 8).tolist(),
                                   "y": rng.uniform(-1, 1, 8).tolist()})
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 3)
        out = {}
        for w in (1, workers):
            raw["output_dir"] = str(tmp_path / f"w{w}")
            path = _write(tmp_path, f"w{w}.json", raw)
            assert main(["run", path, "--workers", str(w)]) in (0, 1)
            out[w] = tmp_path / f"w{w}"
        for name in ("clt", "martingale"):
            assert (out[workers] / f"{name}.csv").read_bytes() == (
                (out[1] / f"{name}.csv").read_bytes())
        summaries = [json.loads((out[w] / "summary.json").read_text()) for w in out]
        assert summaries[0]["suites"] == summaries[-1]["suites"]

    def test_one_executor_per_run(self, tmp_path, executors, monkeypatch):
        monkeypatch.setattr(experiment.engine, "batch_size", lambda *a: 32)
        cfg = self._cfg(tmp_path, suites=["clt", "martingale"], n_grid=[16, 32, 64],
                        replicates=60, structure_draws=1000)
        run(cfg, workers=1)
        assert executors == []
        run(cfg, workers=2)
        assert len(executors) == 1  # nine passes of two chunks, one pool
        assert executors[0].tasks == 18
        assert executors[0].shut_down

    def test_pool_shut_down_when_a_suite_raises(self, tmp_path, executors, monkeypatch):
        def broken(*args):
            raise RuntimeError("suite failed to run")

        monkeypatch.setitem(experiment._SUITES, "doob", broken)
        cfg = self._cfg(tmp_path, suites=["clt", "doob"], n_grid=[16, 32],
                        replicates=60)
        with pytest.raises(RuntimeError, match="suite failed to run"):
            run(cfg, workers=2)
        assert len(executors) == 1
        assert executors[0].shut_down
        assert experiment._KERNEL_CACHE == {}

    def test_kernel_cache_is_scoped_to_one_run(self, tmp_path):
        cfg = self._cfg(tmp_path, suites=["clt"], n_grid=[16, 32], replicates=50)
        run(cfg, workers=1)
        assert experiment._KERNEL_CACHE == {}

    def test_failing_suite_recorded_and_run_continues(self, tmp_path):
        # two grid points cannot support a slope fit: lemma_speed fails,
        # doob still executes and passes
        cfg = self._cfg(tmp_path, n_grid=[16, 32])
        report = run(cfg, workers=1)
        assert not report.all_passed
        assert not report.suites["lemma_speed"]["passed"]
        assert report.suites["doob"]["passed"]
        assert os.path.exists(report.csv_paths["lemma_speed"])


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("EXPCLT_WORKERS", "9")
        assert default_workers() == 9

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("EXPCLT_WORKERS", "many")
        with pytest.raises(ConfigError):
            default_workers()

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_env_below_one_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("EXPCLT_WORKERS", value)
        with pytest.raises(ConfigError, match="EXPCLT_WORKERS must be an integer >= 1"):
            default_workers()

    def test_default_bound(self, monkeypatch):
        monkeypatch.delenv("EXPCLT_WORKERS", raising=False)
        assert 1 <= default_workers() <= 4


class TestCli:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_and_workers(self, tmp_path):
        path = _write(tmp_path, "c.json", _base_config(tmp_path))
        assert main(["run", path, "--seed", "-3"]) == 2
        assert main(["run", path, "--workers", "0"]) == 2

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
        def nan_suite(cfg, key, pool):
            return experiment.SuiteResult("doob", True, {"value": float("nan")}, ("k",), ())

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
                           structure_draws=1000, suites=["martingale"],
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
        assert all(v["max_norm"] <= v["zero_bound"] for v in details["per_n"].values())

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
        assert 0.0 <= details["max_abs_sigma"] <= details["zero_bound"] < 1e-15

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
                           structure_draws=1000, suites=list(SUITE_NAMES),
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
