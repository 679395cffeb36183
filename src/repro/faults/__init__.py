"""Deterministic fault injection and fault tolerance for stage execution.

The paper's master/worker merge model assumes every rank finishes every
stage; at production scale worker loss, stragglers, and half-written
files are routine.  Kernels are pure and deterministic, so a kernel
that fails in the calling process would fail the same way again: the
serial and sim backends run each kernel once and let the error
propagate.  Retrying helps only where the worker itself can die — the
``process`` backend (:mod:`repro.parallel.backend`) — and this package
provides its pieces:

- :class:`FaultPlan` — a seeded, serializable description of the
  worker faults to inject: crashes (a real ``SIGKILL``), hangs past the
  task deadline, and transient kernel exceptions.  Plans are concrete
  — ``FaultPlan.random`` expands a seed into explicit specs — so a run
  is exactly reproducible from its plan.
- :class:`RetryPolicy` — max attempts, capped exponential backoff,
  a per-task deadline, and the serial fallback; the job service reuses
  it for lease requeues.
- :class:`FaultReport` — what actually happened: injected faults,
  retries, pool respawns, serial fallbacks, recovered partitions.

The invariant the package is built around: under any seeded
``FaultPlan``, with retries enabled, the process backend's final
contigs are byte-identical to the fault-free serial run (see
docs/robustness.md and ``tests/faults/test_chaos_equivalence.py``).
"""

from repro.faults.errors import (
    DeadlineExceededError,
    InjectedKernelError,
    StageExecutionError,
)
from repro.faults.plan import KERNEL_FAULT_KINDS, FaultPlan, KernelFault
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport

__all__ = [
    "KERNEL_FAULT_KINDS",
    "KernelFault",
    "FaultPlan",
    "RetryPolicy",
    "FaultReport",
    "InjectedKernelError",
    "DeadlineExceededError",
    "StageExecutionError",
]
