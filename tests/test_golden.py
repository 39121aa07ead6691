"""Golden digests: the same ``__version__`` must emit the same bytes.

``golden.json`` maps each version to the environment that made its entries
and, per config below, the sha256 of every CSV and of ``summary.json``
without ``version``, ``timings_seconds`` and ``csv_paths``.  Each config runs
once at 1 worker with the default chunk width and once at 2 workers with
``engine.batch_size`` forced to 64, so the pool runs; both runs must match.

numpy's SIMD kernels and OpenBLAS differ by version, CPU and thread count,
so the recorded environment decides where the bytes bind: on a host that
differs in any field the test skips and names the field.  A version without
entries fails.  A change that moves emitted bits bumps ``__version__`` and
adds entries for it with

    PYTHONPATH=src python tests/test_golden.py

which runs every config that has no entry for the current version, checks
that its two runs agree, and writes the new entries; it never overwrites one.
"""

import ctypes
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from expclt import __version__, engine
from expclt.experiment import run, validate_config

from conftest import A0_DENSE, A1_DENSE

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SUITES = ["clt", "lemma_speed", "martingale", "doob", "covariance"]


def _fs33():
    rng = np.random.default_rng(33)
    mats = [m * (0.8 / np.linalg.norm(m, 2)) for m in rng.standard_normal((9, 33, 33))]
    weights = rng.uniform(0.5, 1.5, 9)
    return {"family": "finite_support", "matrices": [m.tolist() for m in mats],
            "probabilities": (weights / weights.sum()).tolist()}


CONFIGS = {
    "scalar_two_point": ({"family": "two_point", "a0": [[0.0]], "a1": [[1.0]], "p": 0.5},
                         "canonical"),
    # d = 1 atoms whose centered sums round: the bits of the index-count sum
    "scalar_two_point_03": ({"family": "two_point", "a0": [[0.3]], "a1": [[1.0]],
                             "p": 0.5}, "canonical"),
    "diag4": ({"family": "diagonal_uniform", "dim": 4, "low": -0.6, "high": 0.9},
              {"x": [1.0, -0.5, 0.25, 0.8], "y": [0.3, 1.0, -0.7, 0.2]}),
    "dense3": ({"family": "two_point", "a0": A0_DENSE.tolist(), "a1": A1_DENSE.tolist(),
                "p": 0.5}, "canonical"),
    "fs33": (_fs33, "canonical"),
    "point2": ({"family": "deterministic", "matrix": [[0.3, 0.1], [0.0, -0.2]]},
               "canonical"),
}


def _blas_runtime():
    """(config string, thread count) of the OpenBLAS that numpy's wheel
    bundles, or None where it is not found."""
    libs = pathlib.Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return config().decode().strip(), threads()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _blas_runtime()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": runtime[0] if runtime else "unknown",
        "blas_threads": runtime[1] if runtime else "unknown",
    }


def digests(name: str, out_dir: pathlib.Path, workers: int) -> dict:
    """sha256 of each output of one run of config ``name`` into ``out_dir``."""
    spec, probes = CONFIGS[name]
    cfg = validate_config({
        "ensemble": spec() if callable(spec) else spec, "probes": probes,
        "n_grid": [16, 32, 64], "replicates": 300, "master_seed": 20261019,
        "suites": SUITES, "output_dir": str(out_dir)})
    run(cfg, workers=workers)
    out = {f"{s}.csv": hashlib.sha256((out_dir / f"{s}.csv").read_bytes()).hexdigest()
           for s in SUITES}
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    for key in ("version", "timings_seconds", "csv_paths"):
        del summary[key]
    text = json.dumps(summary, indent=2, sort_keys=True)
    out["summary.json"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def pooled_digests(name: str, out_dir: pathlib.Path, mp) -> dict:
    """:func:`digests` at 2 workers with 64-replicate chunks."""
    mp.setattr(engine, "batch_size", lambda *a: 64)
    return digests(name, out_dir, 2)


@pytest.mark.parametrize("pooled", [False, True], ids=["1worker", "2workers"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_same_version_same_bytes(name, pooled, tmp_path, monkeypatch):
    entry = json.loads(GOLDEN.read_text(encoding="utf-8")).get(__version__)
    if entry is None or name not in entry["configs"]:
        pytest.fail(f"no golden digests of {name} for version {__version__}; "
                    f"add them with `PYTHONPATH=src python tests/test_golden.py`")
    here = environment()
    for field, value in entry["environment"].items():
        if here.get(field) != value:
            pytest.skip(f"environment differs in {field}: digests made with "
                        f"{value!r}, this host has {here.get(field)!r}")
    got = (pooled_digests(name, tmp_path, monkeypatch) if pooled
           else digests(name, tmp_path, 1))
    assert got == entry["configs"][name]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_each_verdict_is_all_of_its_checks(name, tmp_path):
    digests(name, tmp_path, 1)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    for suite in summary["suites"].values():
        assert suite["checks"] and "error" not in suite["details"]
        assert suite["passed"] == all(c["ok"] for c in suite["checks"])
        assert all(c["ok"] == (c["margin"] > 0.0 or c["margin"] == 0.0 and c["rule"] != "<")
                   for c in suite["checks"])


def _add_entries() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    entry = golden.setdefault(__version__, {"environment": environment(), "configs": {}})
    if entry["environment"] != environment():
        print(f"version {__version__} has entries from another environment "
              f"({entry['environment']}); refusing to add to them", file=sys.stderr)
        return 1
    for name in CONFIGS:
        if name in entry["configs"]:
            print(f"{name}: kept the existing entry for {__version__}")
            continue
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            single = digests(name, pathlib.Path(tmp, "w1"), 1)
            pooled = pooled_digests(name, pathlib.Path(tmp, "w2"), mp)
        if single != pooled:
            print(f"{name}: 1- and 2-worker runs differ; no entry written", file=sys.stderr)
            return 1
        entry["configs"][name] = single
        print(f"{name}: added for {__version__}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_add_entries())
