"""The durable on-disk job store: one directory per job.

Layout::

    <root>/
      jobstore.json              # format marker + version
      jobs/<job_id>/
        spec.json                # immutable JobSpec (written at submit)
        journal.jsonl            # the job: one fsynced line per transition
        lease.json               # present while a supervisor/worker owns it
        checkpoint.bin           # stage checkpoint (while running)
        cancel.json              # cooperative cancellation request
        worker.log               # worker stdout/stderr
        contigs.fasta            # final output (done jobs)
        result.json              # stats + stage times (done jobs)

Durability contract: ``spec.json`` is written once through
:func:`repro.io.atomic.atomic_write_text`, so it is always complete.
``journal.jsonl`` is the only record of the job's state: each
transition appends one line, holding the whole :class:`JobRecord`
after it, with one ``write`` and one ``fsync``.  The current record is
the one on the last complete line.  A crash mid-append can leave only
a torn tail — the bytes after the file's last newline — which readers
ignore and the next append cuts off; a complete line that does not
decode is damage, a :class:`ValueError` naming the file and line.
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
JOURNAL_NAME = "journal.jsonl"
CANCEL_NAME = "cancel.json"
CHECKPOINT_NAME = "checkpoint.bin"
CONTIGS_NAME = "contigs.fasta"
RESULT_NAME = "result.json"
WORKER_LOG_NAME = "worker.log"

#: format version of the job-store layout; bump on layout changes.
STORE_VERSION = 2


@dataclass(frozen=True)
class StoreMarker:
    """``jobstore.json``: what the directory is, and its layout version."""

    format: str
    version: int


@dataclass(frozen=True)
class JournalEntry:
    """One journal line: the job's whole record after a transition."""

    #: the state before (``"submitted"`` on a job's first line).
    prior: str
    record: JobRecord
    #: free-form context: owner token, stage name, error, ...
    info: dict = field(default_factory=dict)


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
                current = StoreMarker("repro.jobstore", STORE_VERSION)
                atomic_write_text(marker, json.dumps(encode(current), sort_keys=True) + "\n")
        try:
            with open(marker, encoding="utf-8") as fh:
                found = decode(StoreMarker, json.load(fh))
        except FileNotFoundError:
            raise ValueError(
                f"not a job store: {self.root!r} has no {MARKER_NAME} "
                "(create one with JobStore(root, create=True) or "
                "`repro submit`)"
            ) from None
        except (OSError, ValueError) as exc:  # ValueError: JSON, UTF-8 or fields
            raise ValueError(f"corrupt job store marker {marker!r}: {exc}") from exc
        if found.format != "repro.jobstore":
            raise ValueError(f"not a job store marker: {marker!r}")
        if found.version != STORE_VERSION:
            raise ValueError(
                f"unsupported job store version {found.version} in {marker!r} "
                f"(this build reads version {STORE_VERSION}; "
                "resubmit older stores' jobs with `repro submit`)"
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
        self._append(job_dir, JournalEntry("submitted", record), intact=0)
        fsync_dir(job_dir)
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
        """The record on the journal's last complete line."""
        return self._read(job_id)[0][-1].record

    def load_records(self) -> tuple[list[JobRecord], dict[str, str]]:
        """Every readable job record, and per job id whose journal
        holds a damaged line, the error naming the file and line.

        A job directory without a complete journal line is still being
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
        """Validate one state transition and journal the new record."""
        t = now if now is not None else time.time()
        entries, intact = self._read(job_id)
        record = entries[-1].record
        updated = record.transitioned(target, t, **fields)
        self._append(
            self.job_dir(job_id),
            JournalEntry(record.state, updated, dict(info or {})),
            intact,
        )
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
        """Every journal entry, oldest first."""
        return self._read(job_id)[0]

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

    def _read(self, job_id: str) -> tuple[list[JournalEntry], int]:
        """The entries on the journal's complete lines, and their length
        in bytes; :class:`KeyError` if there are none.

        The bytes after the last newline are a torn append and are
        ignored; a complete line that does not decode is a
        :class:`ValueError` naming the file and the 1-based line.
        """
        path = os.path.join(self.job_dir(job_id), JOURNAL_NAME)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        intact = data.rfind(b"\n") + 1
        if not intact:  # no job, or its submit has not finished
            raise KeyError(f"no such job: {job_id!r}")
        entries = []
        for number, line in enumerate(data[:intact].split(b"\n")[:-1], 1):
            try:
                entries.append(decode(JournalEntry, json.loads(line.decode("utf-8"))))
            except ValueError as exc:  # bad JSON, bad UTF-8 or bad fields
                raise ValueError(f"corrupt job record {path!r} line {number}: {exc}") from exc
        return entries, intact

    def _append(self, job_dir: str, entry: JournalEntry, intact: int) -> None:
        """One ``write`` and one ``fsync`` of ``entry``'s line, after
        cutting off the torn tail of a crashed append, which would glue
        onto the new line.  ``intact`` bytes are known to end in a
        newline; only bytes after the file's last newline are cut."""
        line = json.dumps(encode(entry), sort_keys=True) + "\n"
        with open(os.path.join(job_dir, JOURNAL_NAME), "a+b") as fh:
            fh.seek(intact)
            cut = intact + fh.read().rfind(b"\n") + 1
            if fh.tell() > cut:
                fh.truncate(cut)
            fh.write(line.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
