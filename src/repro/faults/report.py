"""FaultReport: what the fault-tolerance machinery actually did.

Every backend carries one report per run, but only the ``process``
backend, whose workers can die and be replaced, ever records into it;
the assembler surfaces it on :class:`~repro.core.focus.AssemblyResult`
and ``repro assemble --timings`` embeds it in the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FaultReport"]

#: cap on the per-event log so a pathological run cannot balloon memory.
_MAX_EVENTS = 200


@dataclass
class FaultReport:
    """Counters plus a bounded event log for one backend run."""

    #: injected faults by kind ("crash", "hang", "error").
    injected: dict[str, int] = field(default_factory=dict)
    #: re-executions of a partition's kernel after a failed attempt.
    retries: int = 0
    #: process-pool respawns after a dead pool or deadline kill.
    respawns: int = 0
    #: partitions finished by the in-process serial fallback.
    fallbacks: int = 0
    #: attempts that ran past the per-task deadline.
    deadline_exceeded: int = 0
    #: (stage, partition) executions that failed at least once and
    #: then completed.
    recovered_partitions: int = 0
    #: bounded chronological log of fault events.
    events: list[dict] = field(default_factory=list)
    #: events dropped once the log hit its cap.
    events_dropped: int = 0

    # -- recording -------------------------------------------------------

    def _event(self, **data) -> None:
        if len(self.events) >= _MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append(data)

    def record_injected(self, kind: str, stage: str, where: str) -> None:
        """An injected fault fired (``where`` = partition or rank pair)."""
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self._event(what="injected", kind=kind, stage=stage, where=where)

    def record_retry(self, stage: str, where: str, reason: str) -> None:
        self.retries += 1
        self._event(what="retry", stage=stage, where=where, reason=reason)

    def record_respawn(self, stage: str, reason: str) -> None:
        self.respawns += 1
        self._event(what="respawn", stage=stage, reason=reason)

    def record_fallback(self, stage: str, where: str) -> None:
        self.fallbacks += 1
        self._event(what="fallback", stage=stage, where=where)

    def record_deadline(self, stage: str, where: str) -> None:
        self.deadline_exceeded += 1
        self._event(what="deadline", stage=stage, where=where)

    def record_recovery(self, stage: str, where: str) -> None:
        self.recovered_partitions += 1
        self._event(what="recovered", stage=stage, where=where)

    # -- reading ---------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def has_activity(self) -> bool:
        """True when anything fault-related happened at all."""
        return bool(
            self.injected
            or self.retries
            or self.respawns
            or self.fallbacks
            or self.deadline_exceeded
            or self.recovered_partitions
        )

    def merge(self, other: "FaultReport") -> None:
        """Fold another report's counters and events into this one."""
        for kind, n in other.injected.items():
            self.injected[kind] = self.injected.get(kind, 0) + n
        self.retries += other.retries
        self.respawns += other.respawns
        self.fallbacks += other.fallbacks
        self.deadline_exceeded += other.deadline_exceeded
        self.recovered_partitions += other.recovered_partitions
        for event in other.events:
            self._event(**event)
        self.events_dropped += other.events_dropped

    def to_dict(self) -> dict:
        return {
            "injected": dict(self.injected),
            "total_injected": self.total_injected,
            "retries": self.retries,
            "respawns": self.respawns,
            "fallbacks": self.fallbacks,
            "deadline_exceeded": self.deadline_exceeded,
            "recovered_partitions": self.recovered_partitions,
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        if not self.has_activity:
            return "no faults"
        parts = [f"{self.total_injected} injected"]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.respawns:
            parts.append(f"{self.respawns} respawns")
        if self.deadline_exceeded:
            parts.append(f"{self.deadline_exceeded} deadline")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} serial-fallback")
        if self.recovered_partitions:
            parts.append(f"{self.recovered_partitions} recovered")
        return ", ".join(parts)
