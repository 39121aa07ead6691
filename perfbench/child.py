"""One expclt run in a fresh interpreter, through the entry points the CLI uses.

    python3 child.py MODE CONFIG WORKERS RESULT [RUN_ID SPANS]

MODE is ``setup`` (import expclt and load the config, then exit), ``run``
(load_config, then run) or ``trace`` (the same run with the layer functions
wrapped in spans; SPANS receives the spans of run RUN_ID). RESULT receives
the CLOCK_MONOTONIC readings at start, after ``import expclt`` and after
``load_config``, which the parent compares with its own spawn time, and the
trace counters. Exit code: 0 when every suite passed, 1 when one failed,
3 when the run raised.
"""

import json
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    t_start = _now()
    mode, config, workers, result_path = argv[:4]
    import expclt

    t_import = _now()
    rec = None
    if mode == "trace":
        from layers import wrap_targets
        from spans import SpanRecorder

        rec = SpanRecorder(run_id=argv[4])
        for owner, attr, name, count in wrap_targets(expclt):
            rec.wrap(owner, attr, name, count)
    cfg = expclt.load_config(config)
    out = {"t_start": t_start, "t_import": t_import, "t_config": _now()}
    code = 0
    if mode != "setup":
        try:
            if rec is None:
                report = expclt.run(cfg, workers=int(workers))
            else:
                report = rec.call("experiment.run", expclt.run, cfg, workers=int(workers))
        except Exception:
            traceback.print_exc()
            return 3
        code = 0 if report.all_passed else 1
    if rec is not None:
        from spans import write_spans

        write_spans(argv[5], rec.spans)
        out["counts"] = dict(rec.counts)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
