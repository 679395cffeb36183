"""The supervisor: leases, schedules, watches, and recovers jobs.

One supervisor process owns a :class:`~repro.service.jobstore.JobStore`
scheduling loop.  Each :meth:`Supervisor.poll_once` pass does four
things, in an order chosen so that a crash between any two of them
leaves only work that the *next* pass (of this supervisor or any
other) redoes idempotently:

1. **Reap** exited workers and release their scheduling charge.
2. **Watchdog** running jobs past their spec deadline: SIGKILL the
   worker, then requeue through the spec's
   :class:`~repro.faults.RetryPolicy` (jittered backoff; ``failed``
   once attempts are exhausted).
3. **Recover** stranded jobs — active state, lease missing or expired
   (a SIGKILLed worker, a dead supervisor).  The stale lease is cleared
   with the :func:`~repro.service.lease.take_over` rename-CAS, so when
   several supervisors scan one store, exactly one performs the
   requeue.  Resumption is safe because the worker's ``finish`` run is
   checkpointed: the next attempt restores every fingerprint-verified
   stage and recomputes only what was in flight.
4. **Admit** queued jobs, highest priority first (ties: oldest
   submit), while worker and memory quotas hold.  A job's charge is
   its spec's ``memory_bytes`` (or shard-cache budget); a job too big
   for the remaining budget is admitted *alone* once the service
   drains — the serial fallback under pressure — rather than starved.
   A queued job whose spec cannot be read is failed, not admitted.

Every phase sees only the jobs whose journal it can read: a job with a
damaged or mistyped journal line is skipped (one ``warning:`` line
names the file and line) and the others are still served; a torn final
line is a crashed append, read as the end of the journal.

Admission spawns ``python -m repro.service.worker`` with the freshly
claimed lease token; the worker adopts the lease and heartbeats it.
The supervisor never mutates a job some live worker owns: every
mutation path goes through lease arbitration first.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.service import lease as lease_mod
from repro.service.jobstore import JobStore
from repro.service.jobs import ACTIVE_STATES, JobRecord

__all__ = ["WorkerHandle", "Supervisor"]

#: default lease TTL (seconds); workers heartbeat at a third of this.
DEFAULT_LEASE_TTL = 15.0


@dataclass
class WorkerHandle:
    """One spawned worker process and its scheduling charge."""

    job_id: str
    proc: subprocess.Popen
    charge: int
    deadline: float | None
    started: float
    log: object = field(default=None, repr=False)

    def close_log(self) -> None:
        if self.log is not None:
            try:
                self.log.close()
            except OSError:
                pass
            self.log = None


class Supervisor:
    """Schedule, watch, and crash-recover jobs in one store."""

    def __init__(
        self,
        store: JobStore | str,
        owner: str | None = None,
        max_workers: int = 2,
        memory_budget: int = 256 * 1024 * 1024,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = 0.05,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if memory_budget < 1:
            raise ValueError("memory_budget must be positive")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self.owner = owner or f"supervisor-{os.getpid()}"
        self.max_workers = max_workers
        self.memory_budget = memory_budget
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = float(poll_interval)
        self.workers: dict[str, WorkerHandle] = {}
        #: jobs whose unreadable journal has been warned about.
        self.unreadable: set[str] = set()

    # -- one scheduling pass ---------------------------------------------

    def poll_once(self, now: float | None = None) -> dict:
        """Reap, watchdog, recover, admit.  Returns a pass summary."""
        t = now if now is not None else time.time()
        summary = {
            "reaped": self._reap(),
            "killed": self._watchdog(t),
            "recovered": self._recover(t),
            "admitted": self._admit(t),
        }
        return summary

    def run(
        self,
        drain: bool = False,
        max_seconds: float = 3600.0,
        stop=None,
    ) -> int:
        """Poll until drained / stopped / out of time; returns #passes.

        ``drain=True`` exits once every job is terminal and no worker
        is live.  ``stop`` is an optional zero-argument callable polled
        each pass (a threading.Event's ``is_set``, a test hook).  The
        loop is always bounded by ``max_seconds`` — an idle supervisor
        with no deadline would otherwise spin forever.
        """
        if max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        deadline = time.time() + max_seconds
        passes = 0
        while time.time() < deadline:
            if stop is not None and stop():
                break
            self.poll_once()
            passes += 1
            if drain and not self.workers and self._drained():
                break
            time.sleep(self.poll_interval)
        self._close_logs()
        return passes

    def shutdown(self, kill: bool = False) -> None:
        """Stop tracking workers; optionally SIGKILL them first."""
        for handle in list(self.workers.values()):
            if kill and handle.proc.poll() is None:
                handle.proc.kill()
                handle.proc.wait()
            handle.close_log()
        self.workers.clear()

    # -- phases ----------------------------------------------------------

    def _reap(self) -> int:
        """Drop workers whose process has exited (they journal for
        themselves; a crashed one is picked up by ``_recover``)."""
        done = [
            job_id
            for job_id, handle in self.workers.items()
            if handle.proc.poll() is not None
        ]
        for job_id in done:
            self.workers.pop(job_id).close_log()
        return len(done)

    def _watchdog(self, now: float) -> int:
        """SIGKILL workers past their spec deadline and escalate."""
        killed = 0
        for job_id, handle in list(self.workers.items()):
            if handle.deadline is None:
                continue
            if now - handle.started < handle.deadline:
                continue
            if handle.proc.poll() is None:
                handle.proc.send_signal(signal.SIGKILL)
                handle.proc.wait()
            self.workers.pop(job_id).close_log()
            # The dead worker's lease is still fresh; clearing it is
            # safe only because we just killed and reaped its owner.
            current = lease_mod.read(self.store.job_dir(job_id))
            if current is not None:
                lease_mod.release(self.store.job_dir(job_id), current)
            self._retry_or_fail(
                job_id, now, reason=f"watchdog: exceeded {handle.deadline}s"
            )
            killed += 1
        return killed

    def _recover(self, now: float) -> int:
        """Requeue stranded jobs (active state, stale/missing lease)."""
        recovered = 0
        for record in self._records():
            if record.job_id in self.workers:
                continue
            if not self.store.recoverable(record, now):
                continue
            if not lease_mod.take_over(self.store.job_dir(record.job_id), now):
                continue  # a racing supervisor won this job
            if self._retry_or_fail(record.job_id, now, reason="stale lease"):
                recovered += 1
        return recovered

    def _admit(self, now: float) -> int:
        """Start workers for due queued jobs within the quotas."""
        admitted = 0
        committed = sum(h.charge for h in self.workers.values())
        queued = [
            r
            for r in self._records()
            if r.state == "queued"
            and r.not_before <= now
            and r.job_id not in self.workers
        ]
        queued.sort(key=lambda r: (-r.priority, r.created, r.job_id))
        for record in queued:
            if len(self.workers) >= self.max_workers:
                break
            try:
                spec = self.store.load_spec(record.job_id)
            except ValueError:
                # An unreadable spec.json can never run: retry_or_fail
                # fails that job alone, and the others are still served.
                self._retry_or_fail(
                    record.job_id, now, "unreadable spec", states={"queued"}
                )
                continue
            charge = spec.charge
            if committed + charge > self.memory_budget and self.workers:
                # Over budget with company: wait.  Alone: admit anyway
                # (serial fallback — an oversized job must still run,
                # just with the whole budget to itself).
                continue
            if self._spawn(record, spec, now):
                committed += charge
                admitted += 1
        return admitted

    # -- helpers ---------------------------------------------------------

    def _records(self) -> list[JobRecord]:
        """The readable job records.  A job whose journal cannot be
        read cannot be transitioned either: it is skipped, with one
        warning naming the file."""
        records, unreadable = self.store.load_records()
        for job_id, error in unreadable.items():
            if job_id not in self.unreadable:
                self.unreadable.add(job_id)
                print(f"warning: skipping job {job_id}: {error}", file=sys.stderr)
        return records

    def _spawn(self, record: JobRecord, spec, now: float) -> bool:
        job_id = record.job_id
        job_dir = self.store.job_dir(job_id)
        lease = lease_mod.claim(job_dir, self.owner, self.lease_ttl, now=now)
        if lease is None:
            return False  # another supervisor claimed it first
        self.store.transition(
            job_id, "leased", now=now, info={"owner": self.owner}
        )
        log = open(self.store.worker_log_path(job_id), "ab")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.worker",
                self.store.root,
                job_id,
                lease.token,
                str(self.lease_ttl),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        self.workers[job_id] = WorkerHandle(
            job_id=job_id,
            proc=proc,
            charge=spec.charge,
            deadline=spec.deadline,
            started=now,
            log=log,
        )
        return True

    def _retry_or_fail(
        self, job_id: str, now: float, reason: str, states=ACTIVE_STATES
    ) -> bool:
        """Route a dead job's next attempt through its RetryPolicy.

        Acts only on a job still in one of ``states``: an active job
        whose owner died, or a queued one whose spec cannot be read.
        The caller guarantees the *previous* owner is gone (lease taken
        over, or our own worker killed and waited on) — but other
        supervisors may be making the same observation concurrently
        (``take_over`` alone cannot arbitrate a lease that is already
        absent), so the requeue itself runs under a freshly *claimed*
        recovery lease: exactly one supervisor wins the claim and
        journals the transition.  Returns ``True`` iff this call did.
        """
        job_dir = self.store.job_dir(job_id)
        guard = lease_mod.claim(
            job_dir, f"{self.owner}:recovery", self.lease_ttl, now=now
        )
        if guard is None:
            return False  # a racing supervisor is recovering this job
        try:
            if self.store.load_record(job_id).state not in states:
                return False  # already resolved before we won the claim
            self.store.retry_or_fail(job_id, reason, reason, now=now)
            return True
        finally:
            lease_mod.release(job_dir, guard)

    def _drained(self) -> bool:
        return all(r.terminal for r in self._records())

    def _close_logs(self) -> None:
        for handle in self.workers.values():
            handle.close_log()
