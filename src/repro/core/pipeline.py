"""Stage timing for the assembly pipeline: the run's span tree."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

__all__ = ["Span", "StageTimer"]


@dataclass
class Span:
    """One timed stage: ``parent`` is the id of the span it ran inside."""

    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    tags: dict = field(default_factory=dict)
    #: work done inside the span, by name (:meth:`StageTimer.count`).
    counts: dict[str, float] = field(default_factory=dict)


class StageTimer:
    """The run's span tree, with counters.

    :meth:`stage` opens a span inside the open one (``perf_counter``
    at both ends); :meth:`count` adds to the open span's counters;
    :meth:`record` adds a closed span measured elsewhere.
    :attr:`durations` is the flat view: the summed seconds of the
    top-level spans by name, in first-seen order — what :meth:`report`
    and :meth:`to_json` print.
    """

    def __init__(self) -> None:
        self.durations: dict[str, float] = {}
        #: every span, in opening order; a span's id is its index.
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _add(self, name: str, start: float, tags: dict, parent: Span | None = None) -> Span:
        """A new span inside ``parent``, by default the open one."""
        if parent is None and self._open:
            parent = self._open[-1]
        span = Span(len(self.spans), name, start, None, None if parent is None else parent.id, tags)
        self.spans.append(span)
        return span

    def _close(self, span: Span, end: float) -> None:
        span.end = end
        if span.parent is None:
            self.durations[span.name] = self.durations.get(span.name, 0.0) + end - span.start

    @contextmanager
    def stage(self, name: str, **tags):
        span = self._add(name, time.perf_counter(), tags)
        self._open.append(span)
        try:
            yield
        finally:
            self._open.pop()
            self._close(span, time.perf_counter())

    def record(
        self, name: str, seconds: float, within: Span | None = None, **tags
    ) -> Span:
        """A closed span of externally measured ``seconds`` (e.g. virtual
        time): ending now, or the first child of ``within``, starting
        where it starts."""
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        if within is None:
            end = time.perf_counter()
            span = self._add(name, end - seconds, tags)
        else:
            span = self._add(name, within.start, tags, within)
            end = within.start + seconds
        self._close(span, end)
        return span

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` of the open span."""
        if not self._open:
            raise ValueError(f"count {name!r} outside any stage")
        counts = self._open[-1].counts
        counts[name] = counts.get(name, 0) + n

    @property
    def total(self) -> float:
        return sum(self.durations.values())

    def to_json(self, **metadata) -> str:
        """Machine-readable dump: per-stage durations, total, and any
        caller-supplied tags (backend name, time kind, ...)."""
        payload: dict = {"stages": dict(self.durations), "total": self.total}
        payload.update(metadata)
        return json.dumps(payload, indent=2)

    def to_jsonl(self) -> str:
        """Every span as one JSON object per line: ``id``, ``name``,
        ``start``, ``end``, ``parent``, ``tags`` and ``counts``."""
        # A counter may be a numpy scalar.
        return "".join(
            json.dumps(asdict(span), default=lambda x: x.item()) + "\n" for span in self.spans
        )

    def report(self) -> str:
        """Human-readable per-stage table."""
        if not self.durations:
            return "(no stages timed)"
        width = max(len(k) for k in self.durations)
        lines = [f"{k:<{width}}  {v:9.4f}s" for k, v in self.durations.items()]
        lines.append(f"{'total':<{width}}  {self.total:9.4f}s")
        return "\n".join(lines)
