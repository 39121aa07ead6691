"""expclt benchmark: verdict latency of whole runs, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One invocation:

1. generates the workload's config from the seed (see workloads.py);
2. spawns one untimed ``import expclt`` + ``load_config`` interpreter to
   fill the bytecode cache;
3. for about S seconds, repeats ``SETUP_PROBES`` timed ``import expclt`` +
   ``load_config`` interpreters followed by one whole ``load_config`` +
   ``run`` interpreter at the workload's worker count, tracing off;
4. runs the same config once more at one worker with the layer functions
   wrapped in spans (the traced run);
5. checks every run's verdicts, exit code and output bytes, and prints the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``), the last line being one JSON object.

Each metric is a median over the runs that measured it; the table printed
before the JSON line gives its sample count. Everything the benchmark
writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from layers import span_metrics
from spans import read_spans
from workloads import ALL_SUITES, WORKLOADS, path_steps

CHILD = Path(__file__).resolve().parent / "child.py"
# Set-up probes before each timed run; spread over the measuring window, a
# burst of load on the host reaches only some of them.
SETUP_PROBES = 1
# Every invocation ends well inside the 180 s one benchmark run may take.
DEADLINE_S = 170.0
# One BLAS thread per process, so no run uses more busy threads than cores.
# numpy asks the kernel for transparent huge pages on large arrays, which
# the host grants or not depending on its free memory; without the request
# a run's peak RSS no longer depends on the host's state.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "NUMPY_MADVISE_HUGEPAGE": "0"}


def _now() -> float:
    """CLOCK_MONOTONIC, which child processes read on the same time base."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode, cfg_path, workers, run_dir, env, deadline, extra=()) -> dict:
    """One child interpreter, waited for; wall, CPU and peak RSS of its tree.

    The child leads its own process group, so a child past the deadline is
    killed together with its pool workers. ``wait4`` reports the CPU time and
    the largest RSS of the child and of every descendant it waited for.
    """
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(CHILD), mode, str(cfg_path), str(workers),
           str(result_path), *extra]
    rec = {"mode": mode, "workers": workers}
    with open(run_dir / "log.txt", "w", encoding="utf-8") as log:
        t0 = _now()
        if t0 >= deadline:
            rec.update(exit=None, error="deadline passed before spawn")
            return rec
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(deadline - t0, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec.update(exit=proc.returncode, wall_s=t1 - t0,
               cpu_s=ru.ru_utime + ru.ru_stime, peak_rss_mib=ru.ru_maxrss / 1024.0)
    if proc.returncode in (0, 1) and result_path.is_file():
        r = json.loads(result_path.read_text(encoding="utf-8"))
        rec.update(setup_s=r["t_config"] - t0, import_s=r["t_import"] - t0,
                   load_config_s=r["t_config"] - r["t_import"], counts=r.get("counts"))
    return rec


def read_outputs(out_dir: Path):
    """(digest, summary without timings, timings) of one run's output dir.

    The digest covers every CSV byte for byte and the deterministic part of
    summary.json, i.e. everything but ``timings_seconds``.
    """
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    timings = summary.pop("timings_seconds")
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode("utf-8"))
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest(), summary, timings


def clt_consistent(result: dict) -> bool:
    """The clt verdict agrees with the statistics it reports at the largest n.

    The workloads are built with positive projected variance, so a
    degenerate branch (every sample exactly zero) is itself an error.
    """
    d = result["details"]
    if d["degenerate"]:
        return False
    at = d["per_n"][str(max(int(n) for n in d["per_n"]))]
    expected = (at["ks_distance"] < at["ks_threshold"]
                and at["relative_variance_error"] <= d["variance_rtol"])
    return result["passed"] == expected


def check_operations(runs, suites) -> list:
    """One entry per (run, suite) operation: (run index, suite, failure or None)."""
    digests = Counter(r["digest"] for r in runs if "digest" in r)
    reference = digests.most_common(1)[0][0] if digests else None
    ops = []
    for i, r in enumerate(runs):
        if r.get("exit") not in (0, 1):
            why = r.get("error") or f"exit code {r.get('exit')}"
            ops += [(i, s, why) for s in suites]
            continue
        if "digest" not in r:
            ops += [(i, s, r.get("error", "no outputs")) for s in suites]
            continue
        verdicts = r["summary"]["suites"]
        run_fault = None
        if r["digest"] != reference:
            run_fault = "outputs differ from the workload's other runs"
        elif (r["exit"] == 0) != all(v["passed"] for v in verdicts.values()):
            run_fault = f"exit code {r['exit']} disagrees with the verdicts"
        elif set(verdicts) != set(suites):
            run_fault = f"suites run {sorted(verdicts)} differ from the config"
        for s in suites:
            why = run_fault
            # The clt verdict is a sampling outcome: a KS test at alpha = 0.01
            # plus a variance band. On the lattice law of clt_scalar_w1 (d=1
            # two-point) the KS distance sits near its threshold, so the suite
            # fails for a large share of seeds. A clt FAIL must agree with the
            # run's own statistics but does not fail the operation; every
            # other suite must PASS.
            if why is None and s == "clt" and not clt_consistent(verdicts[s]):
                why = "clt verdict disagrees with its own statistics"
            elif why is None and s != "clt" and not verdicts[s]["passed"]:
                why = "FAIL"
            ops.append((i, s, why))
    return ops


def environment(root: Path, workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_env": CHILD_ENV,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "workers": workload.workers,
    }


def _median(values):
    values = list(values)
    return (statistics.median(values), len(values)) if values else (None, 0)


def end_to_end(timed, setups, steps) -> dict:
    ok = [r for r in timed if "setup_s" in r]
    return {
        "wall_s": (*_median(r["wall_s"] for r in ok), "s"),
        "setup_s": (*_median(r["setup_s"] for r in setups + ok), "s"),
        "cpu_s": (*_median(r["cpu_s"] for r in ok), "s"),
        "steps_per_s": (*_median(steps / (r["wall_s"] - r["setup_s"]) for r in ok), "1/s"),
        "peak_rss_mib": (*_median(r["peak_rss_mib"] for r in ok), "MiB"),
    }


def per_layer(timed, setups, traced) -> dict:
    ok = [r for r in timed if "setup_s" in r]
    out = {
        "setup.import_s": (*_median(r["import_s"] for r in setups + ok), "s"),
        "setup.load_config_s": (*_median(r["load_config_s"] for r in setups + ok), "s"),
    }
    if traced.get("spans") is not None:
        for name, (value, unit) in span_metrics(traced["spans"], traced["counts"]).items():
            out[name] = (value, 1, unit)
    for s in ALL_SUITES:
        out[f"experiment.suite_{s}_s"] = (
            *_median(r["timings"].get(s, 0.0) for r in ok if "timings" in r), "s")
    out["experiment.busy_cores"] = (*_median(r["cpu_s"] / r["wall_s"] for r in ok), "cores")
    wall, _ = _median(r["wall_s"] for r in ok)
    if "wall_s" in traced and wall is not None:
        out["trace.overhead_s"] = (traced["wall_s"] - wall, 1, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "expclt" / "__init__.py").is_file():
        print(f"error: {root} holds no expclt source tree (src/expclt)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        cfg = workload.config(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # A terminated benchmark unwinds through spawn(), which kills the child's
    # process group and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = _now() + DEADLINE_S
    work = root / ".perfbench" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    env = dict(os.environ, **CHILD_ENV)
    # Users run compiled modules, so set-up is timed with the bytecode cache
    # that the warm-up interpreter writes under src/, whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def one(mode, tag, workers, extra=()):
        rec = spawn(mode, cfg_path, workers, work / tag, env, deadline, extra)
        if mode != "setup" and rec.get("exit") in (0, 1):
            try:
                rec["digest"], rec["summary"], rec["timings"] = read_outputs(work / tag / "out")
            except (OSError, ValueError, KeyError) as exc:
                rec["error"] = f"unreadable outputs: {exc}"
        return rec

    one("setup", "warmup", 1)
    setups, timed = [], []
    t_begin = _now()
    while True:
        for _ in range(SETUP_PROBES):
            setups.append(one("setup", f"setup-{len(setups)}", 1))
        timed.append(one("run", f"run-{len(timed)}", workload.workers))
        elapsed = _now() - t_begin
        # Start another round only if one more, as long as the mean so far,
        # still ends inside the window.
        if "wall_s" not in timed[-1] or elapsed * (len(timed) + 1) / len(timed) > args.seconds:
            break
    setups = [r for r in setups if "setup_s" in r]
    run_id = f"{workload.name}-seed{args.seed}-trace"
    spans_path = work / "trace" / "spans.jsonl"
    traced = one("trace", "trace", 1, (run_id, str(spans_path)))
    if traced.get("counts") is not None and spans_path.is_file():
        traced["spans"] = read_spans(spans_path)

    runs = timed + [traced]
    ops = check_operations(runs, cfg["suites"])
    failures = [(i, s, why) for i, s, why in ops if why is not None]
    e2e = end_to_end(timed, setups, path_steps(cfg))
    layers = per_layer(timed, setups, traced)
    metrics = layers if args.trace else e2e
    correct = not failures and all(v is not None for v, _, _ in metrics.values())

    verdicts = Counter()
    for r in runs:
        for s, v in r.get("summary", {}).get("suites", {}).items():
            verdicts[f"{s}:{'PASS' if v['passed'] else 'FAIL'}"] += 1
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "environment": environment(root, workload, args.seed),
        "config": cfg,
        "end_to_end": {k: {"value": v, "samples": n, "unit": u} for k, (v, n, u) in e2e.items()},
        "per_layer": {k: {"value": v, "samples": n, "unit": u} for k, (v, n, u) in layers.items()},
        "fail_frac": len(failures) / len(ops),
        "failures": [{"run": runs[i]["mode"] + f"#{i}", "suite": s, "why": why}
                     for i, s, why in failures],
        "verdicts": dict(verdicts),
        "runs": [{k: v for k, v in r.items() if k not in ("summary", "spans")} for r in runs],
        "setup_probes": setups,
    }
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, n, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload.name:15} {name:36} {shown:>14} {unit:8} samples={n}")
    print(f"{workload.name:15} {'fail_frac':36} {len(failures) / len(ops):>14.6g} "
          f"{'ratio':8} samples={len(ops)}")
    for i, s, why in failures:
        print(f"failed: {runs[i]['mode']} run #{i} suite {s}: {why}")
    print(f"verdicts: {dict(verdicts)}; results: {results_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
