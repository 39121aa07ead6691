"""Tests of the benchmark's own code; run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import re
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

import run
from layers import span_metrics
from spans import Span, SpanRecorder, layer_time, read_spans, self_times, write_spans
from workloads import WORKLOADS, path_steps

import expclt

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spans(*rows):
    return [Span(i, name, a, b, parent, "r") for i, (name, a, b, parent) in enumerate(rows)]


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        spans = _spans(
            ("root", 0.0, 10.0, None),  # 0
            ("a", 1.0, 4.0, 0),         # 1
            ("b", 2.0, 3.0, 1),         # 2, grandchild of root
            ("c", 5.0, 6.0, 0),         # 3
        )
        st = self_times(spans)
        assert st == {0: 10.0 - 3.0 - 1.0, 1: 3.0 - 1.0, 2: 1.0, 3: 1.0}

    def test_self_time_counts_overlapping_children_once(self):
        spans = _spans(("root", 0.0, 10.0, None), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0))
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)

    def test_layer_time_skips_spans_nested_in_the_same_layer(self):
        spans = _spans(
            ("run", 0.0, 10.0, None),
            ("bound", 1.0, 4.0, 0),
            ("bound", 2.0, 3.0, 1),   # called from the outer "bound"
            ("other", 5.0, 9.0, 0),
            ("bound", 6.0, 8.0, 3),   # nested under another layer: counted
        )
        assert layer_time(spans, {"bound"}) == pytest.approx(3.0 + 2.0)
        assert layer_time(spans, {"bound", "other"}) == pytest.approx(3.0 + 4.0)

    def test_recorder_links_parents_and_counts(self, tmp_path):
        ticks = iter(range(100))
        rec = SpanRecorder("run-7", clock=lambda: float(next(ticks)))

        class Owner:
            @staticmethod
            def leaf(x):
                return x + 1

        def outer(x):
            return Owner.leaf(x) * 2

        rec.wrap(Owner, "leaf", "leaf", lambda a, k, r: {"leaf.work": a[0]})
        assert rec.call("outer", outer, 3) == 8
        leaf, top = rec.spans
        assert (top.name, top.parent, leaf.name, leaf.parent) == ("outer", None, "leaf", top.id)
        assert (top.start, leaf.start, leaf.end, top.end) == (0.0, 1.0, 2.0, 3.0)
        assert self_times(rec.spans)[top.id] == 2.0
        assert rec.counts["leaf.work"] == 3
        assert {s.run_id for s in rec.spans} == {"run-7"}
        path = tmp_path / "spans.jsonl"
        write_spans(path, rec.spans)
        assert read_spans(path) == rec.spans


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_generated_configs_load(self, name, tmp_path):
        for seed in (0, 1, 2**64 - 1):
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(WORKLOADS[name].config(seed)))
            cfg = expclt.load_config(str(path))
            assert cfg.master_seed == seed

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS.values():
            assert w.config(5) == w.config(5)
            assert w.config(5) != w.config(6)
        fs = WORKLOADS["fs16_all_w1"]
        assert fs.config(5)["ensemble"] != fs.config(6)["ensemble"]

    def test_seed_out_of_range(self):
        with pytest.raises(ValueError):
            WORKLOADS["clt_scalar_w1"].config(-1)

    def test_support_matrices_have_norm_0_8(self):
        import numpy as np

        mats = WORKLOADS["fs16_all_w1"].config(3)["ensemble"]["matrices"]
        assert len(mats) == 4
        for m in mats:
            assert np.linalg.norm(np.array(m), 2) == pytest.approx(0.8, rel=1e-12)

    def test_path_steps(self):
        assert path_steps(WORKLOADS["clt_scalar_w1"].config(0)) == 20000 * 4096
        # one clt pass plus two martingale passes per n
        assert path_steps(WORKLOADS["fs16_all_w1"].config(0)) == 2000 * 960 * 3
        assert path_steps({"suites": ["doob", "covariance"], "replicates": 9,
                           "n_grid": [4, 8]}) == 0


def _traced_child(tmp_path, cfg):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(cfg_path), "1",
         str(tmp_path / "result.json"), "test-run", str(tmp_path / "spans.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    return result, read_spans(tmp_path / "spans.jsonl")


class TestTracedRun:
    def test_sweep_steps_match_the_path_pass_count(self, tmp_path):
        cfg = WORKLOADS["fs16_all_w1"].config(4)
        cfg.update(n_grid=[8, 16, 32], replicates=64, structure_draws=1000)
        result, spans = _traced_child(tmp_path, cfg)
        counts = result["counts"]
        # simulate_block sweeps the clt pass and the first martingale pass;
        # the second martingale pass draws the same rows for diff_pair_block.
        assert counts["engine.sweep_steps"] == 64 * 56 * 2
        assert path_steps(cfg) == counts["engine.sweep_steps"] + 64 * 56
        assert counts["engine.diff_steps"] == 64 * sum(
            sum(k - 1 for k in sorted({1, (n + 1) // 2, n})) for n in (8, 16, 32))
        metrics = span_metrics(spans, counts)
        assert metrics["engine.diff_pair_block_calls"][0] == 3
        assert metrics["ensembles.child_calls"][0] > 64 * 3 * 3
        assert {s.run_id for s in spans} == {"test-run"}
        assert (tmp_path / "out" / "summary.json").is_file()


def _fake_run(digest="d", exit_code=0, passed=True, ks=0.01):
    clt = {"passed": passed, "details": {
        "degenerate": False, "variance_rtol": 0.07,
        "per_n": {"64": {"ks_distance": 0.5, "ks_threshold": 0.1,
                         "relative_variance_error": 0.0},
                  "128": {"ks_distance": ks, "ks_threshold": 0.02,
                          "relative_variance_error": 0.01}}}}
    return {"mode": "run", "exit": exit_code, "digest": digest, "wall_s": 2.0,
            "cpu_s": 3.0, "peak_rss_mib": 50.0, "setup_s": 0.3, "import_s": 0.29,
            "load_config_s": 0.01, "timings": {"clt": 1.0, "doob": 0.1},
            "summary": {"suites": {"clt": clt, "doob": {"passed": True}}}}


class TestOperations:
    suites = ["clt", "doob"]

    def test_all_good(self):
        ops = run.check_operations([_fake_run(), _fake_run()], self.suites)
        assert len(ops) == 4 and all(why is None for _, _, why in ops)

    def test_differing_bytes_fail_every_suite_of_that_run(self):
        ops = run.check_operations([_fake_run(), _fake_run(), _fake_run("x")], self.suites)
        assert [(i, s) for i, s, why in ops if why] == [(2, "clt"), (2, "doob")]

    def test_crash_and_exit_code_mismatch(self):
        crashed = {"mode": "run", "exit": 3}
        ops = run.check_operations([_fake_run(exit_code=1), crashed], self.suites)
        assert all(why for _, _, why in ops)

    def test_sampled_clt_fail_counts_only_when_inconsistent(self):
        fail = _fake_run(exit_code=1, passed=False, ks=0.03)
        assert all(why is None for *_, why in run.check_operations([fail], self.suites))
        wrong = _fake_run(exit_code=1, passed=False, ks=0.01)
        assert [s for _, s, why in run.check_operations([wrong], self.suites) if why] == ["clt"]

    def test_other_suite_fail_counts(self):
        r = _fake_run(exit_code=1)
        r["summary"]["suites"]["doob"]["passed"] = False
        assert [s for _, s, why in run.check_operations([r], self.suites) if why] == ["doob"]


class TestMetricNames:
    def _emitted(self):
        timed = [_fake_run(), _fake_run()]
        traced = dict(_fake_run(), spans=[], counts={})
        e2e = run.end_to_end(timed, [], 1000)
        layers = run.per_layer(timed, [], traced)
        return e2e, layers

    def test_names_and_units_are_well_formed(self):
        for metrics in self._emitted():
            for name, (value, samples, unit) in metrics.items():
                assert NAME.match(name), name
                assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
                assert value is not None and samples >= 1

    def test_benchmark_json_lists_exactly_the_emitted_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e, layers = self._emitted()
        assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
        assert [m["name"] for m in spec["per_layer"]] == list(layers)
        for group, metrics in (("end_to_end", e2e), ("per_layer", layers)):
            for m in spec[group]:
                assert m["unit"] == metrics[m["name"]][2]
        assert {w["name"]: w["why"] for w in spec["workloads"]} == {
            w.name: w.why for w in WORKLOADS.values()}

    def test_steps_per_second_uses_run_time_after_setup(self):
        e2e, _ = self._emitted()
        assert e2e["steps_per_s"][0] == pytest.approx(1000 / (2.0 - 0.3))
        assert e2e["setup_s"][:2] == (0.3, 2)
