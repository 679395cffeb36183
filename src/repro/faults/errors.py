"""Exception types of the fault-tolerance layer.

Injected faults raise dedicated types so the chaos suites can assert
on exactly what fired.
"""

from __future__ import annotations

__all__ = [
    "InjectedKernelError",
    "DeadlineExceededError",
    "StageExecutionError",
]


class InjectedKernelError(RuntimeError):
    """A transient kernel exception (the "error" fault kind)."""


class DeadlineExceededError(RuntimeError):
    """An injected hang outlived its sleep without being killed.

    The ``process`` backend normally kills a hung worker at the retry
    policy's per-task deadline; this is what the worker raises if the
    sleep ends first.
    """


class StageExecutionError(RuntimeError):
    """A stage failed after the whole retry budget was exhausted.

    Carries the stage name and the per-attempt failures so callers
    (and the checkpoint/resume workflow) can report exactly where the
    pipeline stopped.
    """

    def __init__(self, stage: str, attempts: int, failures: list[str]):
        self.stage = stage
        self.attempts = attempts
        self.failures = list(failures)
        detail = "; ".join(self.failures[-3:])
        super().__init__(
            f"stage {stage!r} failed after {attempts} attempt(s): {detail}"
        )
