"""Execution backends for the kernel/merge stages.

A backend takes a partitioned *subject* — the
:class:`~repro.distributed.dgraph.DistributedAssemblyGraph` of the
graph stages, the :class:`~repro.align.overlapper.OverlapSubject` of
alignment — and executes registered stages
(:mod:`repro.distributed.stages`) against it.  It reads four things
from the subject (the contract, docs/architecture.md): ``n_parts``,
``partition_costs()``, the mutable ``state`` tuple and
``worker_view()``.  Three implementations cover the repo's execution
modes:

``serial``
    An in-process loop: kernels run per part on the calling thread,
    the merge applies immediately.  The baseline every other backend
    must match bit for bit.

``sim``
    The paper's virtual cluster: kernels run as SPMD rank programs that
    :class:`~repro.mpi.SimCluster` steps in lockstep on the calling
    thread, producing the *virtual*
    elapsed times Fig. 6 plots.  Implemented in
    :mod:`repro.mpi.stage_backend` and resolved lazily here so the
    parallel layer carries no mpi import.

``process``
    Real OS parallelism: kernels ship to a ``fork``-context
    :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
    inherit the subject copy-on-write.  Each task sends only the stage
    name, part id, and the subject's current state (the alive-masks),
    and returns plain numpy proposal arrays; the master merges
    in-process.  Tasks are submitted largest-part-first (LPT order) so
    stragglers don't drain the pool.

All three produce byte-identical results and state because the
kernels are pure and deterministic and merges consume proposals in
part order — the backend only changes *where* kernels run and which
clock measures them.

Fault tolerance (docs/robustness.md) lives only in the process
backend, the one place where an attempt can fail and the next one
succeed: a worker SIGKILLed, hung past its deadline, or a broken pool.
Under a :class:`~repro.faults.RetryPolicy` it retries failed partitions
with capped exponential backoff, respawns a dead pool, re-runs only the
partitions that did not complete, and falls back to the in-process
serial loop for a partition that exhausts its budget.  Kernels are pure
and deterministic, so one that raises in the calling process would
raise again: serial and sim run each kernel once and let the error
propagate.  Because kernels are pure, a failed worker attempt never
leaves partial state behind; merges only run once every proposal is
in.  The resulting contigs stay byte-identical to the fault-free serial
run — the invariant ``tests/faults/test_chaos_equivalence.py``
enforces.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.distributed.stages import StageSpec, get_stage
from repro.faults import (
    DeadlineExceededError,
    FaultPlan,
    FaultReport,
    InjectedKernelError,
    RetryPolicy,
    StageExecutionError,
)

__all__ = [
    "BACKEND_NAMES",
    "StageOutcome",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "create_backend",
]

#: the recognised backend names, in documentation order.
BACKEND_NAMES = ("serial", "sim", "process")


@dataclass(frozen=True)
class StageOutcome:
    """Result of running one stage through a backend."""

    stage: str
    result: Any
    #: seconds on the backend's clock (wall or virtual).
    elapsed: float
    #: "wall" for serial/process, "virtual" for sim.
    time_kind: str


class ExecutionBackend:
    """Base class: binds a partitioned subject and runs stages on it.

    ``fault_report`` accumulates retry and recovery activity across
    every stage run on this backend; only the process backend, whose
    workers can die, ever records any.
    """

    name: str = ""
    time_kind: str = "wall"

    def __init__(self, subject) -> None:
        self.subject = subject
        self.fault_report = FaultReport()

    @staticmethod
    def _resolve(stage: StageSpec | str) -> StageSpec:
        return get_stage(stage) if isinstance(stage, str) else stage

    def run_stage(self, stage: StageSpec | str, **params) -> StageOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker pools, clusters)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process loop over partitions; the equivalence baseline."""

    name = "serial"
    time_kind = "wall"

    def run_stage(self, stage: StageSpec | str, **params) -> StageOutcome:
        spec = self._resolve(stage)
        subject = self.subject
        t0 = time.perf_counter()
        proposals = [
            spec.kernel(subject, part, **params) for part in range(subject.n_parts)
        ]
        result = spec.merge(subject, proposals, **params)
        return StageOutcome(spec.name, result, time.perf_counter() - t0, self.time_kind)


#: per-worker state installed by the pool initializer (fork-inherited).
_WORKER: dict = {}


def _init_stage_worker(subject) -> None:
    """Prime one worker with its own view of the subject.

    Under ``fork`` the (large, immutable) bulk of the subject is
    inherited copy-on-write; only the view object is constructed per
    worker.
    """
    _WORKER["subject"] = subject.worker_view()


def apply_kernel_fault_in_worker(
    plan: FaultPlan, stage: str, part: int, attempt: int
) -> None:
    """Execute a matching kernel fault inside a real worker process.

    "crash" is a genuine ``kill -9`` of the live worker; "hang" sleeps
    ``plan.hang_seconds`` (long enough to trip any sane deadline,
    bounded so a leaked worker exits on its own); "error" raises a
    transient :class:`~repro.faults.InjectedKernelError`.
    """
    fault = plan.kernel_fault(stage, part, attempt)
    if fault is None:
        return
    if fault.kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.kind == "hang":
        time.sleep(plan.hang_seconds)
        raise DeadlineExceededError(
            f"injected hang in stage {stage!r} partition {part} outlived "
            f"its {plan.hang_seconds}s sleep without being killed"
        )
    else:  # "error"
        raise InjectedKernelError(
            f"injected transient kernel error in stage {stage!r} "
            f"partition {part} (attempt {attempt})"
        )


def _run_stage_task(stage_name: str, part: int, state, params, plan, attempt):
    """Execute one (stage, part) kernel inside a worker process.

    The master's current state travels with the task (it is all that
    stages mutate), so sequential stages see each other's removals
    without re-priming the pool.  ``plan``/``attempt`` drive fault
    injection: a "crash" fault really SIGKILLs this worker, a "hang"
    really sleeps past the deadline.
    """
    if plan is not None:
        apply_kernel_fault_in_worker(plan, stage_name, part, attempt)
    subject = _WORKER["subject"]
    subject.state = state
    return get_stage(stage_name).kernel(subject, part, **params)


def _warmup_worker() -> int:
    return os.getpid()


def _pool_context():
    """Prefer ``fork`` (cheap copy-on-write inheritance of the subject)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class ProcessBackend(ExecutionBackend):
    """Kernels on real OS processes; merges on the calling process.

    The pool is created lazily on the first stage and reused across
    stages (workers are re-synchronised through the state shipped with
    each task).  ``workers=0`` uses one process per part, capped at
    the core count.

    Fault tolerance: each round submits every unfinished partition,
    collects results under the policy's per-task deadline, and reacts
    per failure class — a clean worker exception retries just that
    partition; a broken pool (worker SIGKILLed) or a missed deadline
    (hung worker) kills and respawns the pool and re-runs only the
    partitions that never completed.  A partition that exhausts its
    attempts (or a pool that keeps dying) falls back to the in-process
    serial loop, so the stage completes whenever the kernels themselves
    are sound.  ``fault_plan`` injects deterministic worker faults; it
    is folded onto the subject's parts.
    """

    name = "process"
    time_kind = "wall"

    def __init__(
        self,
        subject,
        workers: int = 0,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(subject)
        if workers < 0:
            raise ValueError("workers must be non-negative")
        cores = os.cpu_count() or 1
        self.n_workers = workers if workers > 0 else min(subject.n_parts, cores)
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = (
            None
            if fault_plan is None or fault_plan.empty
            else fault_plan.scaled_to(subject.n_parts)
        )
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=_pool_context(),
                initializer=_init_stage_worker,
                initargs=(self.subject,),
            )
            # Spawn (and fork-prime) every worker up front so the fork
            # cost lands in backend setup, not in the first stage's
            # measured wall time.
            for f in [pool.submit(_warmup_worker) for _ in range(self.n_workers)]:
                f.result()
            self._pool = pool
        return self._pool

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool workers (spawning the pool if needed)."""
        pool = self._ensure_pool()
        return sorted(pool._processes.keys())

    def _discard_pool(self, kill: bool) -> None:
        """Drop the current pool; ``kill`` SIGKILLs workers first.

        Killing is required for hung workers: ``shutdown`` alone would
        block behind (or leak) a worker sleeping past its deadline.
        ``_processes`` is private executor API, but it is the only
        handle to the worker processes and is stable across the
        supported Python versions.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for proc in list((pool._processes or {}).values()):
                proc.kill()
        pool.shutdown(wait=not kill, cancel_futures=True)

    def run_stage(self, stage: StageSpec | str, **params) -> StageOutcome:
        spec = self._resolve(stage)
        subject = self.subject
        if subject.n_parts <= 1 or self.n_workers <= 1:
            # Nothing to parallelise and no worker for a fault to fire
            # in: run the serial loop, same clock kind.
            return SerialBackend(subject).run_stage(spec, **params)
        t0 = time.perf_counter()
        proposals = self._collect_proposals(spec, params)
        result = spec.merge(subject, proposals, **params)
        return StageOutcome(spec.name, result, time.perf_counter() - t0, self.time_kind)

    def _collect_proposals(self, spec: StageSpec, params: dict) -> list:
        """Run every partition's kernel to completion, surviving faults."""
        subject = self.subject
        policy = self.retry
        report = self.fault_report
        plan = self.fault_plan
        proposals: list = [None] * subject.n_parts
        attempt = {part: 1 for part in range(subject.n_parts)}
        failed_once: set[int] = set()
        failures: list[str] = []
        pending = set(range(subject.n_parts))
        respawns = 0
        # A pool that keeps dying stops being a useful execution
        # substrate regardless of which partition is at fault.
        max_respawns = max(policy.max_attempts, 2)

        while pending:
            over_budget = [p for p in sorted(pending) if not policy.allows(attempt[p])]
            for part in over_budget:
                if not policy.fallback_serial:
                    raise StageExecutionError(
                        spec.name, attempt[part] - 1, failures or ["worker pool failure"]
                    )
                report.record_fallback(spec.name, f"part {part}")
                proposals[part] = spec.kernel(subject, part, **params)
                pending.discard(part)
            if not pending:
                break
            if respawns > max_respawns:
                for part in sorted(pending):
                    if not policy.fallback_serial:
                        raise StageExecutionError(
                            spec.name,
                            attempt[part],
                            failures + ["worker pool kept dying"],
                        )
                    report.record_fallback(spec.name, f"part {part}")
                    proposals[part] = spec.kernel(subject, part, **params)
                pending.clear()
                break

            pool = self._ensure_pool()
            costs = subject.partition_costs()
            submit_order = [
                p for p in np.argsort(-costs, kind="stable").tolist() if p in pending
            ]
            expected = {
                part: (
                    plan.kernel_fault(spec.name, part, attempt[part])
                    if plan is not None
                    else None
                )
                for part in submit_order
            }
            try:
                futures = {
                    part: pool.submit(
                        _run_stage_task,
                        spec.name,
                        part,
                        subject.state,
                        params,
                        plan,
                        attempt[part],
                    )
                    for part in submit_order
                }
            except BrokenProcessPool:
                # A worker died while the pool was idle (e.g. an external
                # kill -9 between stages): the break only surfaces at
                # submit time.  Respawn and re-run the round; attempts
                # are not charged because no kernel ever started.
                self._discard_pool(kill=False)
                report.record_respawn(spec.name, "broken process pool at submit")
                respawns += 1
                continue
            pool_down = False
            round_failed = False
            for part in sorted(futures):
                if pool_down:
                    break  # remaining futures died with the pool
                where = f"part {part}"
                try:
                    proposals[part] = futures[part].result(
                        timeout=policy.task_deadline
                    )
                except concurrent.futures.TimeoutError:
                    # Hung worker: only a pool kill can reclaim it.  The
                    # timeout may surface on an innocent partition queued
                    # behind the hung one, so charge the failure to every
                    # pending partition with an expected hang (plus the
                    # one that timed out, hung or just queue-starved).
                    round_failed = True
                    report.record_deadline(spec.name, where)
                    blamed = {part} | {
                        p
                        for p in pending
                        if expected.get(p) is not None
                        and expected[p].kind == "hang"
                    }
                    for p in sorted(blamed):
                        if expected.get(p) is not None:
                            report.record_injected(
                                expected[p].kind, spec.name, f"part {p}"
                            )
                        failures.append(
                            f"part {p} attempt {attempt[p]}: task deadline "
                            f"({policy.task_deadline}s) exceeded"
                        )
                        report.record_retry(
                            spec.name, f"part {p}", "DeadlineExceeded"
                        )
                        attempt[p] += 1
                        failed_once.add(p)
                    self._discard_pool(kill=True)
                    report.record_respawn(spec.name, "task deadline exceeded")
                    respawns += 1
                    pool_down = True
                except BrokenProcessPool:
                    # A worker died (injected SIGKILL or an external
                    # kill -9): every in-flight future is lost.  Charge
                    # the crash to every pending partition whose plan
                    # entry injected one (the broken pool surfaces on
                    # whichever future is collected first, not
                    # necessarily the partition that crashed).
                    round_failed = True
                    for p in sorted(pending):
                        fault = expected.get(p)
                        if fault is not None and fault.kind == "crash":
                            report.record_injected("crash", spec.name, f"part {p}")
                            failures.append(
                                f"part {p} attempt {attempt[p]}: worker crashed"
                            )
                            report.record_retry(spec.name, f"part {p}", "WorkerCrash")
                            attempt[p] += 1
                            failed_once.add(p)
                    self._discard_pool(kill=False)
                    report.record_respawn(spec.name, "broken process pool")
                    respawns += 1
                    pool_down = True
                except Exception as exc:  # noqa: BLE001 - recorded, retried below
                    # The task itself raised (transient kernel error):
                    # the pool is still healthy, keep collecting.
                    round_failed = True
                    if expected.get(part) is not None:
                        report.record_injected(
                            expected[part].kind, spec.name, where
                        )
                    failures.append(f"{where} attempt {attempt[part]}: {exc}")
                    report.record_retry(spec.name, where, type(exc).__name__)
                    attempt[part] += 1
                    failed_once.add(part)
                else:
                    pending.discard(part)
                    if part in failed_once:
                        report.record_recovery(spec.name, where)
            if round_failed and pending:
                time.sleep(
                    policy.backoff(min(attempt.values()), token=min(pending))
                )
        return proposals

    def close(self) -> None:
        self._discard_pool(kill=False)


def create_backend(
    name: str,
    subject,
    *,
    workers: int = 0,
    cost_model=None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> ExecutionBackend:
    """Instantiate a backend by name for one partitioned subject.

    ``workers``, ``retry`` and ``fault_plan`` only affect ``process``;
    ``cost_model`` only affects ``sim``.  A fault plan
    fires only in process workers, so serial and sim refuse one.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    if fault_plan is not None and name != "process":
        raise ValueError(
            f"a fault plan fires only in process workers, not on the {name!r} "
            "backend, which runs each kernel once in the calling process"
        )
    if name == "serial":
        return SerialBackend(subject)
    if name == "process":
        return ProcessBackend(
            subject, workers=workers, retry=retry, fault_plan=fault_plan
        )
    # The sim adapter lives in the mpi layer; imported lazily so
    # repro.parallel itself never depends on repro.mpi.
    from repro.mpi.stage_backend import SimBackend

    return SimBackend(subject, cost_model=cost_model)
