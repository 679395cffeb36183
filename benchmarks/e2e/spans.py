"""In-memory spans for the traced benchmark run.

The benchmark times the calls it makes into each layer's public
functions from the outside (nothing under ``src/`` is edited or read
for timings).  A span is ``{id, name, start, end, parent, workload,
rep}``; spans of one operation share ``(workload, rep)``.  They are
kept in memory and written as JSONL when the run ends.  A span's *self
time* is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Usage", "usage", "Tracer", "durations", "self_times", "write_jsonl"]


@dataclass(frozen=True)
class Usage:
    """Resource counters of this process plus its reaped children."""

    cpu_s: float
    sys_s: float
    minor_faults: int
    peak_rss_mb: float


def usage() -> Usage:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys_s = own.ru_stime + kids.ru_stime
    return Usage(
        cpu_s=own.ru_utime + kids.ru_utime + sys_s,
        sys_s=sys_s,
        minor_faults=own.ru_minflt + kids.ru_minflt,
        peak_rss_mb=max(own.ru_maxrss, kids.ru_maxrss) / 1024,
    )


class Tracer:
    """Records nested spans; a disabled tracer records nothing."""

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.rep = ""
        self.spans: list[dict] = []
        #: rep -> name -> count, taken at the same boundaries as the spans.
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": self.rep,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            bucket = self.counts.setdefault(self.rep, {})
            bucket[name] = bucket.get(name, 0) + value


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def durations(spans: list[dict], rep: str) -> dict[str, float]:
    """Span name -> summed duration over one repetition's spans."""
    out: dict[str, float] = {}
    for s in spans:
        if s["rep"] == rep:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def write_jsonl(spans: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
