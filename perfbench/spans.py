"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
recorder's clock, the id of the enclosing span (the span that caused it) and
the run id shared by every span of one run. Spans stay in memory while the
run executes and are written out once, as JSON lines, when it ends.

Self time is a span's duration minus the part of it that its direct child
spans cover. Layer time is the summed duration of a layer's spans that have
no ancestor in the same layer, so a layer function that calls another
function of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "layer_time",
    "write_spans",
    "read_spans",
]


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one single-threaded run, plus work counters."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._clock = clock
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``count(args, kwargs, result)`` may return a dict of counter
        increments, taken where the work happens.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        setattr(owner, attr, traced)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans}


def layer_time(spans, names) -> float:
    """Summed duration of spans named in ``names`` with no ancestor so named."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            total += s.duration
    return total


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [Span(**json.loads(line)) for line in f if line.strip()]
