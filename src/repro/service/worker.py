"""The job worker: one process, one leased job, one checkpointed run.

Spawned by the supervisor as ``python -m repro.service.worker ROOT
JOB_ID TOKEN TTL``.  The worker adopts the lease the supervisor
claimed (same token), heartbeats it from a daemon thread, journals the
``leased -> running`` transition, and executes the full pipeline —
``prepare`` then a checkpointed, *resumable* ``finish`` — with a
per-stage callback that:

- re-verifies lease ownership (a lost lease aborts immediately: some
  other supervisor decided this worker was dead and owns the job now);
- bounces the record through ``checkpointing`` so the journal records
  exactly which stages are durable;
- honors cooperative cancellation markers;
- applies the spec's chaos stall (``pause_between_stages``).

Exit protocol: transitions are the source of truth, exit codes are
advisory (0 done, 2 failed, 3 lease lost, 4 cancelled, 5 requeued).
A worker that is SIGKILLed makes *no* transition — its lease simply
expires, and the next supervisor scan requeues the job to resume from
the last durable checkpoint.  That asymmetry (graceful paths journal,
crash paths don't) is the whole recovery model: anything the journal
does not prove finished is re-run, and re-running is safe because
stages are deterministic and checkpoints are fingerprint-verified.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.service import lease as lease_mod
from repro.service.jobstore import JobStore

__all__ = ["JobCancelled", "run_job", "main"]

#: heartbeats per lease TTL (beat interval = ttl / this).
BEATS_PER_TTL = 3.0


class JobCancelled(Exception):
    """Raised between stages when a cancel marker appears."""


class _Heartbeat:
    """Daemon thread renewing the lease every ``ttl / BEATS_PER_TTL``.

    A failed renewal (the lease was taken over) flips ``lost`` and the
    worker aborts at its next stage boundary instead of fighting the
    new owner.
    """

    def __init__(self, job_dir: str, lease, ttl: float) -> None:
        self.job_dir = job_dir
        self.lease = lease
        self.ttl = float(ttl)
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self.ttl)

    def _run(self) -> None:
        interval = self.ttl / BEATS_PER_TTL
        while not self._stop.wait(interval):
            try:
                self.lease = lease_mod.heartbeat(
                    self.job_dir, self.lease, self.ttl
                )
            except (lease_mod.LeaseLostError, OSError, ValueError):
                self.lost.set()
                return


def run_job(root: str, job_id: str, token: str, ttl: float) -> int:
    """Execute one leased job to a terminal (or requeued) state."""
    store = JobStore(root)
    job_dir = store.job_dir(job_id)
    lease = lease_mod.read(job_dir)
    if lease is None or lease.token != token:
        print(f"worker: lease on {job_id} not held (token mismatch)")
        return 3
    # Stamp the lease with this worker's pid (the supervisor claimed it
    # under its own) so watchdogs and the chaos harness can target us.
    lease = lease_mod.heartbeat(job_dir, lease, ttl, pid=os.getpid())
    spec = store.load_spec(job_id)
    store.transition(
        job_id, "running", info={"owner": lease.owner, "pid": os.getpid()}
    )
    beat = _Heartbeat(job_dir, lease, ttl)
    beat.start()

    def on_stage(stage: str) -> None:
        if beat.lost.is_set():
            raise lease_mod.LeaseLostError(
                f"lease on {job_id} lost mid-run (after stage {stage})"
            )
        if store.cancel_requested(job_id):
            raise JobCancelled(stage)
        store.transition(
            job_id, "checkpointing", stage=stage, info={"stage": stage}
        )
        store.transition(job_id, "running", stage=stage)
        if spec.pause_between_stages > 0:
            time.sleep(spec.pause_between_stages)

    try:
        result = _execute(store, job_id, spec, on_stage)
    except JobCancelled:
        beat.stop()
        store.transition(job_id, "cancelled")
        lease_mod.release(job_dir, beat.lease)
        return 4
    except lease_mod.LeaseLostError as exc:
        # The job has a new owner: stop without touching the record.
        beat.stop()
        print(f"worker: {exc}")
        return 3
    except Exception as exc:  # noqa: BLE001 - recorded + escalated below
        beat.stop()
        requeued = store.retry_or_fail(
            job_id, "worker error", f"{type(exc).__name__}: {exc}"
        )
        lease_mod.release(job_dir, beat.lease)
        return 5 if requeued else 2
    _finish_ok(store, job_id, result)
    beat.stop()
    lease_mod.release(job_dir, beat.lease)
    return 0


def _execute(store: JobStore, job_id: str, spec, on_stage):
    from repro.core.focus import FocusAssembler
    from repro.io.fasta import load_reads

    assembler = FocusAssembler(spec.config)
    if spec.reads_path is None:
        reads = assembler.open_reads()
    else:
        reads = load_reads(spec.reads_path)
    prep = assembler.prepare(reads)
    return assembler.finish(
        prep,
        checkpoint=store.checkpoint_path(job_id),
        resume=True,
        on_stage=on_stage,
    )


def _finish_ok(store: JobStore, job_id: str, result) -> None:
    """Make the outputs durable, then commit the ``done`` transition."""
    from repro.io.fasta import write_contigs

    write_contigs(store.contigs_path(job_id), result.contigs)
    stats = result.stats
    store.write_result(
        job_id,
        {
            "n_contigs": int(stats.n_contigs),
            "total_bases": int(stats.total_bases),
            "n50": int(stats.n50),
            "max_contig": int(stats.max_contig),
            "backend": result.backend,
            "stage_times": {
                k: float(v) for k, v in result.virtual_times.items()
            },
        },
    )
    store.transition(job_id, "done", info={"n_contigs": int(stats.n_contigs)})


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 4:
        print(
            "usage: python -m repro.service.worker ROOT JOB_ID TOKEN TTL",
            file=sys.stderr,
        )
        return 64
    root, job_id, token, ttl = args
    return run_job(root, job_id, token, float(ttl))


if __name__ == "__main__":
    sys.exit(main())
