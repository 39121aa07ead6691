"""Every workload in turn: one table of metrics, units and sample counts.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per workload from the current directory (the root of a
source checkout) and prints each metric by name with its unit and sample
count, then one line per workload with its failed and attempted operations.
Exit code 1 when any workload reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    verdicts = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stderr, file=sys.stderr)
            result = {"correct": False, "attempted": 0, "failed": 0}
        verdicts.append((name, proc.returncode, result))
    for name, code, r in verdicts:
        print(f"{name:15} exit={code} correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']} operations")
    return 0 if all(code == 0 and r["correct"] for _, code, r in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
