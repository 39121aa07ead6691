"""Command line entry point.

    expclt run CONFIG [--seed N] [--out DIR] [--suites a,b,c] [--workers N]

Runs the configured suites, writes one CSV per suite plus summary.json into
the output directory and prints one status line per suite. --seed, --out and
--suites replace master_seed, output_dir and suites before validation.

Exit codes: 0 when every executed suite passed, 1 when one failed, 2 when the
config, an override, the worker count or the output directory is rejected,
and 3 when anything else raised (one ``error:`` line on stderr).

--workers, an integer >= 1, defaults to min(4, cpu_count). The worker count
never changes any emitted byte.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    SUITE_NAMES,
    ConfigError,
    read_config,
    run,
    validate_config,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expclt",
        description="Simulation and verification suites for products of "
        "random matrix exponentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the suites described by a JSON config")
    runp.add_argument("config", help="path to the JSON config file")
    runp.add_argument("--seed", type=int, default=None,
                      help="override master_seed from the config")
    runp.add_argument("--out", default=None,
                      help="override output_dir from the config")
    runp.add_argument("--suites", default=None,
                      help="comma-separated subset of: " + ", ".join(SUITE_NAMES))
    runp.add_argument("--workers", type=int, default=None,
                      help="process count for replicate chunks "
                      "(default: min(4, cpu_count))")
    args = parser.parse_args(argv)
    overrides = {"master_seed": args.seed, "output_dir": args.out, "suites": args.suites
                 and [s.strip() for s in args.suites.split(",") if s.strip()]}
    try:
        raw = read_config(args.config)
        raw.update((k, v) for k, v in overrides.items() if v is not None)
        cfg = validate_config(raw)
        print(f"ensemble: {cfg.ensemble.family} d={cfg.ensemble.dim} "
              f"rho={cfg.ensemble.rho:.6g}")
        report = run(cfg, workers=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 3

    for name, res in report.suites.items():
        status = "PASS" if res["passed"] else "FAIL"
        print(f"[{status}] {name}  ({report.timings_seconds[name]:.2f}s)")
    print(f"config digest: {report.config_digest}")
    print(f"outputs: {cfg.output_dir}/summary.json")
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
