"""The durable on-disk job store: one directory per job.

Layout::

    <root>/
      jobstore.json              # format marker + version
      jobs/<job_id>/
        spec.json                # immutable JobSpec (written at submit)
        state.json               # current JobRecord (atomic replace)
        journal.jsonl            # append-only, fsynced transition log
        lease.json               # present while a supervisor/worker owns it
        checkpoint.bin           # stage checkpoint (while running)
        cancel.json              # cooperative cancellation request
        worker.log               # worker stdout/stderr
        contigs.fasta            # final output (done jobs)
        result.json              # stats + stage times (done jobs)

Durability contract (the same tmp+fsync+``os.replace`` machinery as
the PR 5 checkpoints, via :func:`repro.io.atomic.atomic_write_text`):
``spec.json`` and ``state.json`` are always complete — a crash at any
instant leaves either the previous record or the new one, never a
torn file.  ``journal.jsonl`` is append-only with per-line fsync; a
crash can leave at most one torn *final* line, which the reader
detects and ignores (every completed transition before it is intact).
State is therefore doubly recorded — the journal is the history, the
state file the O(1)-readable present — and any crash leaves a
recoverable job: the supervisor's scan needs only ``state.json`` plus
the lease file to decide what to do next.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.io.atomic import atomic_write_text, fsync_dir
from repro.io.codec import decode, encode
from repro.service import lease as lease_mod
from repro.service.jobs import (
    ACTIVE_STATES,
    JobRecord,
    JobSpec,
)

__all__ = ["MARKER_NAME", "STORE_VERSION", "JournalEntry", "JobStore"]

MARKER_NAME = "jobstore.json"
SPEC_NAME = "spec.json"
STATE_NAME = "state.json"
JOURNAL_NAME = "journal.jsonl"
CANCEL_NAME = "cancel.json"
CHECKPOINT_NAME = "checkpoint.bin"
CONTIGS_NAME = "contigs.fasta"
RESULT_NAME = "result.json"
WORKER_LOG_NAME = "worker.log"

#: format version of the job-store layout; bump on layout changes.
STORE_VERSION = 1


@dataclass(frozen=True)
class JournalEntry:
    """One journaled state transition."""

    ts: float
    state_from: str
    state_to: str
    attempt: int
    #: free-form context: owner token, stage name, error, ...
    info: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ts": self.ts,
                "from": self.state_from,
                "to": self.state_to,
                "attempt": self.attempt,
                "info": self.info,
            },
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "JournalEntry":
        return cls(
            ts=float(payload["ts"]),
            state_from=str(payload["from"]),
            state_to=str(payload["to"]),
            attempt=int(payload["attempt"]),
            info=dict(payload.get("info", {})),
        )


class JobStore:
    """Filesystem-backed, multi-process-safe job persistence.

    Several supervisors (and their worker processes) may open one
    store concurrently; writes that race are arbitrated by the lease
    layer (:mod:`repro.service.lease`), not by this class — the store
    only guarantees that every individual record write is atomic and
    every transition is validated and journaled.
    """

    def __init__(self, root: str | Path, create: bool = False) -> None:
        self.root = str(root)
        marker = os.path.join(self.root, MARKER_NAME)
        if create:
            os.makedirs(self.jobs_root, exist_ok=True)
            if not os.path.exists(marker):
                atomic_write_text(
                    marker,
                    json.dumps(
                        {"format": "repro.jobstore", "version": STORE_VERSION},
                        sort_keys=True,
                    )
                    + "\n",
                )
        try:
            with open(marker, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise ValueError(
                f"not a job store: {self.root!r} has no {MARKER_NAME} "
                "(create one with JobStore(root, create=True) or "
                "`repro submit`)"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"corrupt job store marker: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != "repro.jobstore"
        ):
            raise ValueError(f"not a job store marker: {marker!r}")
        found = int(payload.get("version", -1))
        if found != STORE_VERSION:
            raise ValueError(
                f"unsupported job store version {found} "
                f"(this build reads version {STORE_VERSION})"
            )

    # -- paths -----------------------------------------------------------

    @property
    def jobs_root(self) -> str:
        return os.path.join(self.root, "jobs")

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_root, job_id)

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), CHECKPOINT_NAME)

    def contigs_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), CONTIGS_NAME)

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), RESULT_NAME)

    def worker_log_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), WORKER_LOG_NAME)

    # -- submit / load ---------------------------------------------------

    def submit(self, spec: JobSpec, now: float | None = None) -> JobRecord:
        """Durably create a new queued job; returns its record."""
        t = now if now is not None else time.time()
        for _ in range(8):
            job_id = f"{spec.name}-{uuid.uuid4().hex[:10]}"
            job_dir = self.job_dir(job_id)
            try:
                os.makedirs(job_dir)
            except FileExistsError:
                continue
            break
        else:  # pragma: no cover - 8 uuid collisions
            raise RuntimeError("could not allocate a unique job id")
        atomic_write_text(
            os.path.join(job_dir, SPEC_NAME),
            json.dumps(encode(spec), indent=2, sort_keys=True) + "\n",
        )
        record = JobRecord(
            job_id=job_id,
            state="queued",
            priority=spec.priority,
            created=t,
            updated=t,
        )
        self._append_journal(
            job_dir,
            JournalEntry(t, "submitted", "queued", record.attempt, {}),
        )
        self._write_record(job_dir, record)
        fsync_dir(self.jobs_root)
        return record

    def list_jobs(self) -> list[str]:
        """Every job id in the store (submit-time order via records)."""
        try:
            entries = sorted(os.listdir(self.jobs_root))
        except FileNotFoundError:
            return []
        return [
            e for e in entries if os.path.isdir(os.path.join(self.jobs_root, e))
        ]

    def load_spec(self, job_id: str) -> JobSpec:
        path = os.path.join(self.job_dir(job_id), SPEC_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                return decode(JobSpec, json.load(fh))
        except FileNotFoundError:
            raise KeyError(f"no such job: {job_id!r}") from None
        except ValueError as exc:  # bad JSON, bad UTF-8 or bad fields
            raise ValueError(f"corrupt job spec {path!r}: {exc}") from exc

    def load_record(self, job_id: str) -> JobRecord:
        path = os.path.join(self.job_dir(job_id), STATE_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                return decode(JobRecord, json.load(fh))
        except FileNotFoundError:
            raise KeyError(f"no such job: {job_id!r}") from None
        except ValueError as exc:  # bad JSON, bad UTF-8 or bad fields
            raise ValueError(f"corrupt job record {path!r}: {exc}") from exc

    def load_records(self) -> tuple[list[JobRecord], dict[str, str]]:
        """Every readable job record, and per job id whose ``state.json``
        cannot be read, the error naming that file.

        A job directory without a ``state.json`` is still being
        submitted and appears in neither.
        """
        records, unreadable = [], {}
        for job_id in self.list_jobs():
            try:
                records.append(self.load_record(job_id))
            except KeyError:
                continue
            except ValueError as exc:
                unreadable[job_id] = str(exc)
        return records, unreadable

    # -- transitions -----------------------------------------------------

    def transition(
        self,
        job_id: str,
        target: str,
        now: float | None = None,
        info: dict | None = None,
        **fields,
    ) -> JobRecord:
        """Validate, journal, and persist one state transition.

        The journal line is appended (and fsynced) *before* the state
        file is replaced, so a crash between the two leaves a journal
        whose last entry is ahead of ``state.json`` by exactly one
        transition — recovery reads ``state.json`` (the conservative
        view) and the job merely repeats a step it already logged.
        """
        t = now if now is not None else time.time()
        record = self.load_record(job_id)
        updated = record.transitioned(target, t, **fields)
        job_dir = self.job_dir(job_id)
        self._append_journal(
            job_dir,
            JournalEntry(
                t, record.state, target, updated.attempt, dict(info or {})
            ),
        )
        self._write_record(job_dir, updated)
        return updated

    def retry_or_fail(
        self, job_id: str, reason: str, error: str, now: float | None = None
    ) -> bool:
        """End a failed attempt through the spec's RetryPolicy.

        While the policy allows another attempt the job goes back to
        ``queued`` behind a jittered backoff (journaled with ``reason``);
        otherwise it is ``failed``, as it is at once when its spec
        cannot be read (``error`` then names the file).  Returns
        ``True`` iff requeued.
        """
        t = now if now is not None else time.time()
        attempt = self.load_record(job_id).attempt
        try:
            policy = self.load_spec(job_id).config.retry
        except ValueError as exc:  # no attempt can ever run
            policy, error = None, str(exc)
        if policy is not None and policy.allows(attempt + 1):
            delay = policy.backoff(attempt, token=job_id)
            self.transition(
                job_id,
                "queued",
                now=t,
                attempt=attempt + 1,
                not_before=t + delay,
                error=error,
                info={"requeue": reason, "backoff": delay},
            )
            return True
        self.transition(
            job_id, "failed", now=t, error=error,
            info={"error": error, "attempts": attempt},
        )
        return False

    def journal(self, job_id: str) -> list[JournalEntry]:
        """Every intact journal entry, oldest first.

        A torn final line (crash mid-append) is ignored; truncation is
        detectable because every intact line parses as one JSON object.
        """
        path = os.path.join(self.job_dir(job_id), JOURNAL_NAME)
        entries: list[JournalEntry] = []
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return []
        for line in lines:
            if not line.strip():
                continue
            try:
                entries.append(JournalEntry.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Torn tail of a crashed append: everything before it
                # is intact, nothing after it exists.
                break
        return entries

    # -- cancellation ----------------------------------------------------

    def request_cancel(self, job_id: str, now: float | None = None) -> str:
        """Cancel a job; returns what happened.

        ``"cancelled"``: the job was queued and is now terminally
        cancelled.  ``"requested"``: the job is active — a marker file
        asks the worker to stop at its next stage boundary.
        ``"ignored"``: the job was already terminal.
        """
        record = self.load_record(job_id)
        if record.terminal:
            return "ignored"
        if record.state == "queued":
            self.transition(job_id, "cancelled", now=now)
            return "cancelled"
        atomic_write_text(
            os.path.join(self.job_dir(job_id), CANCEL_NAME),
            json.dumps({"requested": now if now is not None else time.time()})
            + "\n",
        )
        return "requested"

    def cancel_requested(self, job_id: str) -> bool:
        return os.path.exists(os.path.join(self.job_dir(job_id), CANCEL_NAME))

    # -- recovery --------------------------------------------------------

    def recoverable(self, record: JobRecord, now: float | None = None) -> bool:
        """Active job whose lease is stale or missing — crash debris."""
        if record.state not in ACTIVE_STATES:
            return False
        current = lease_mod.read(self.job_dir(record.job_id))
        return current is None or current.stale(now)

    # -- result ----------------------------------------------------------

    def write_result(self, job_id: str, payload: dict) -> None:
        atomic_write_text(
            self.result_path(job_id),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )

    def load_result(self, job_id: str) -> dict:
        with open(self.result_path(job_id), encoding="utf-8") as fh:
            return json.load(fh)

    # -- internals -------------------------------------------------------

    def _write_record(self, job_dir: str, record: JobRecord) -> None:
        atomic_write_text(
            os.path.join(job_dir, STATE_NAME),
            json.dumps(encode(record), indent=2, sort_keys=True) + "\n",
        )

    def _append_journal(self, job_dir: str, entry: JournalEntry) -> None:
        path = os.path.join(job_dir, JOURNAL_NAME)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(entry.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
