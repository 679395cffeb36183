"""Sim adapter: runs kernel/merge stages on the simulated MPI cluster.

This is the thin bridge between the backend abstraction
(:mod:`repro.parallel.backend`) and the virtual-time runtime
(:mod:`repro.mpi`): each stage is executed as an SPMD rank program —
kernel under the rank's virtual clock, gather to root, merge on the
root's clock, broadcast — exactly the communication pattern the
paper's Fig. 6 times.  The returned ``elapsed`` is the cluster's
virtual wall-clock (slowest rank), not real time.

Fault tolerance: a rank failure poisons a whole SPMD run (the other
ranks fail at once on their next receive from the dead peer), so the
retry granularity here is the *stage attempt*, not the partition.
Before each attempt the subject's state (the alive-masks) is
snapshotted; on failure it is restored (a partially-applied merge
never leaks into the retry) and the stage is re-run with the next
attempt number.  Injected message faults (drop/duplicate/delay from the
:class:`~repro.faults.FaultPlan`) are armed per attempt through the
cluster's fault hook.  Once the retry budget is exhausted the stage
falls back to the in-process serial loop (without injection) when the
policy allows it.
"""

from __future__ import annotations

from repro.distributed.stages import StageSpec, run_stage_on_comm
from repro.faults import (
    FaultInjector,
    FaultReport,
    RetryPolicy,
    StageExecutionError,
)
from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError
from repro.mpi.timing import CommCostModel
from repro.parallel.backend import ExecutionBackend, SerialBackend, StageOutcome

__all__ = ["SimBackend"]


class SimBackend(ExecutionBackend):
    """Virtual-cluster execution: one simulated rank per part."""

    name = "sim"
    time_kind = "virtual"

    def __init__(
        self,
        subject,
        cost_model: CommCostModel | None = None,
        deadlock_timeout: float = 600.0,
        sanitize: bool = False,
        retry: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(subject, retry=retry, injector=injector)
        self.cluster = SimCluster(
            max(subject.n_parts, 1),
            cost_model=cost_model,
            deadlock_timeout=deadlock_timeout,
            sanitize=sanitize,
            fault_hook=injector,
        )

    def _attempt_spec(self, spec: StageSpec, attempt: int) -> StageSpec:
        """The stage with its kernel wrapped for fault injection."""
        injector = self.injector
        if injector is None:
            return spec

        def kernel_with_faults(subject, part, **params):
            injector.fire_kernel_fault(spec.name, part, attempt)
            return spec.kernel(subject, part, **params)

        return StageSpec(spec.name, kernel_with_faults, spec.merge)

    def run_stage(self, stage: StageSpec | str, **params) -> StageOutcome:
        spec = self._resolve(stage)
        subject = self.subject
        policy = self.retry
        report = FaultReport()
        failures: list[str] = []
        attempt = 1
        while True:
            # Snapshot the only state merges mutate, so a failed
            # attempt (even one that died mid-merge or mid-broadcast)
            # can be rolled back cleanly.
            snapshot = tuple(a.copy() for a in subject.state)
            if self.injector is not None:
                for part in range(subject.n_parts):
                    fault = self.injector.kernel_fault(spec.name, part, attempt)
                    if fault is not None:
                        report.record_injected(fault.kind, spec.name, f"rank {part}")
                        if fault.kind == "hang":
                            report.record_deadline(spec.name, f"rank {part}")
                self.injector.begin_attempt(spec.name, attempt)
            try:
                results, stats = self.cluster.run(
                    run_stage_on_comm,
                    self._attempt_spec(spec, attempt),
                    subject,
                    **params,
                )
            except (RuntimeError, DeadlockError) as exc:
                subject.state = snapshot
                failures.append(f"attempt {attempt}: {exc}")
                if not policy.allows(attempt + 1):
                    if policy.fallback_serial:
                        report.record_fallback(spec.name, "stage")
                        inner = SerialBackend(subject, retry=policy)
                        outcome = inner.run_stage(spec, **params)
                        self.fault_report.merge(report)
                        return outcome
                    raise StageExecutionError(spec.name, attempt, failures) from exc
                report.record_retry(spec.name, "stage", type(exc).__name__)
                attempt += 1
                continue
            finally:
                if self.injector is not None:
                    self.injector.end_attempt()
                    for kind, src, dst in self.injector.drain_fired():
                        report.record_injected(
                            kind, spec.name, f"rank {src}->rank {dst}"
                        )
            if failures:
                report.record_recovery(spec.name, "stage")
            return self._finish_outcome(spec, results[0], stats.elapsed, report)
