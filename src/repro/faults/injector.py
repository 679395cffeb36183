"""FaultInjector: evaluates a FaultPlan during stage execution.

Two execution contexts share the same plan:

- the **master / in-process** context (serial loop, sim rank threads)
  holds a :class:`FaultInjector` and calls
  :meth:`FaultInjector.fire_kernel_fault` before each kernel — faults
  surface as exceptions (a crash or hang cannot take down the
  interpreter that is also running the master);
- **worker processes** never hold the injector: the process backend
  ships the (picklable) plan to the pool and each task calls
  :func:`apply_kernel_fault_in_worker`, where "crash" really SIGKILLs
  the worker and "hang" really sleeps past the deadline.

Message faults only exist on the simulated cluster: the sim backend
installs the injector as the cluster's fault hook and brackets each
stage attempt with :meth:`begin_attempt`, giving every
``SimComm.send`` a thread-safe drop/duplicate/delay decision.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.faults.errors import (
    DeadlineExceededError,
    InjectedCrashError,
    InjectedKernelError,
)
from repro.faults.plan import FaultPlan, KernelFault, MessageFault

__all__ = ["FaultInjector", "apply_kernel_fault_in_worker"]


def apply_kernel_fault_in_worker(
    plan: FaultPlan, stage: str, part: int, attempt: int
) -> None:
    """Execute a matching kernel fault inside a real worker process.

    "crash" is a genuine ``kill -9`` of the live worker; "hang" sleeps
    ``plan.hang_seconds`` (long enough to trip any sane deadline,
    bounded so a leaked worker exits on its own); "error" raises a
    transient :class:`InjectedKernelError`.
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


class FaultInjector:
    """Runtime evaluation of one :class:`FaultPlan`.

    Thread-safe: sim rank threads consult :meth:`message_action`
    concurrently, and the per-spec message budgets are decremented
    under a lock.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        # Per-attempt message-fault state, set by begin_attempt().
        self._active: list[tuple[MessageFault, int]] = []
        self._stage = ""
        self._attempt = 0
        # Message faults that actually fired, drained by the backend
        # after each attempt for the fault report.
        self._fired: list[tuple[str, int, int]] = []

    @classmethod
    def for_parts(cls, plan: FaultPlan | None, n_parts: int) -> "FaultInjector | None":
        """The injector of ``plan`` folded onto ``n_parts`` parts, or
        ``None`` when there is nothing to inject."""
        if plan is None or plan.empty:
            return None
        return cls(plan.scaled_to(n_parts))

    # -- kernel faults (in-process contexts) -----------------------------

    def kernel_fault(self, stage: str, part: int, attempt: int) -> KernelFault | None:
        """The fault that will fire for this execution, if any."""
        return self.plan.kernel_fault(stage, part, attempt)

    def fire_kernel_fault(self, stage: str, part: int, attempt: int) -> None:
        """Raise the in-process stand-in for a matching kernel fault.

        "crash" raises :class:`InjectedCrashError` and "hang" raises
        :class:`DeadlineExceededError` immediately — in-process
        backends model the worker death / missed deadline without
        killing the interpreter or sleeping.
        """
        fault = self.kernel_fault(stage, part, attempt)
        if fault is None:
            return
        if fault.kind == "crash":
            raise InjectedCrashError(
                f"injected worker crash in stage {stage!r} partition {part} "
                f"(attempt {attempt})"
            )
        if fault.kind == "hang":
            raise DeadlineExceededError(
                f"injected hang in stage {stage!r} partition {part} "
                f"(attempt {attempt}) exceeded the task deadline"
            )
        raise InjectedKernelError(
            f"injected transient kernel error in stage {stage!r} "
            f"partition {part} (attempt {attempt})"
        )

    # -- message faults (simulated cluster) ------------------------------

    def begin_attempt(self, stage: str, attempt: int) -> None:
        """Arm the message faults of one stage attempt."""
        with self._lock:
            self._stage = stage
            self._attempt = attempt
            self._active = [
                (spec, spec.count)
                for spec in self.plan.message_faults_for(stage, attempt)
            ]

    def end_attempt(self) -> None:
        """Disarm message faults (between attempts / after the stage)."""
        with self._lock:
            self._active = []
            self._stage = ""
            self._attempt = 0

    def message_action(self, src: int, dst: int) -> tuple[str | None, float]:
        """Decide the fate of one message: ``(kind or None, delay_s)``.

        Decrements the matching spec's budget; once a spec's ``count``
        messages have been affected it goes quiet for the attempt.
        """
        with self._lock:
            for i, (spec, remaining) in enumerate(self._active):
                if remaining <= 0 or spec.src != src or spec.dst != dst:
                    continue
                self._active[i] = (spec, remaining - 1)
                self._fired.append((spec.kind, src, dst))
                delay = spec.delay if spec.kind == "delay" else 0.0
                return spec.kind, delay
        return None, 0.0

    def drain_fired(self) -> list[tuple[str, int, int]]:
        """Message faults fired since the last drain: (kind, src, dst)."""
        with self._lock:
            fired = self._fired
            self._fired = []
            return fired
