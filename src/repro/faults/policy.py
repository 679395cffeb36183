"""RetryPolicy: attempts, capped exponential backoff + jitter, deadlines.

The ``process`` execution backend retries a partition whose worker
died, hung or raised under this policy; the serial and sim backends
run each kernel once (see docs/robustness.md).  The job service
(:mod:`repro.service`) reuses the same policy for lease requeue
escalation, which is where the bounded *jitter* matters: when one
dead supervisor strands dozens of leased jobs, their retries must not
all fire on the same tick (the classic thundering herd), so each retry
site passes a ``token`` and receives a deterministic, bounded
perturbation of the shared backoff curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the process backend responds to a failed worker attempt.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retrying entirely.  ``backoff(attempt)`` grows exponentially from
    ``backoff_base`` and is capped at ``backoff_cap``.
    ``task_deadline`` bounds one attempt in real seconds (the
    ``future.result`` timeout).  When ``fallback_serial`` is set, a
    backend that exhausts the budget re-runs the failed partitions
    in-process (without fault injection — the master itself is the
    fallback worker) instead of raising.

    ``jitter`` adds a bounded random fraction of the capped backoff on
    top of it: ``backoff(attempt, token)`` returns a value in
    ``[base, base * (1 + jitter)]`` where ``base`` is the deterministic
    capped-exponential term.  The perturbation is a pure function of
    ``(jitter_seed, token, attempt)`` — seeded and reproducible under
    test — so two retry sites passing different tokens (partition ids,
    job ids) de-synchronise while one site replays identically.
    ``jitter=0`` (the default) preserves the exact historical curve.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    task_deadline: float | None = 30.0
    fallback_serial: bool = True
    #: bounded jitter fraction in [0, 1]: the extra wait is at most
    #: ``jitter * backoff`` (thundering-herd de-synchronisation).
    jitter: float = 0.0
    #: seed of the deterministic jitter stream.
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError("task_deadline must be positive (or None)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def allows(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may run."""
        return attempt <= self.max_attempts

    def backoff(self, attempt: int, token: object = 0) -> float:
        """Seconds to wait before attempt ``attempt + 1``.

        ``token`` names the retry site (partition id, job id, ...):
        with ``jitter`` enabled, different tokens spread over the
        jitter window while one token always waits the same time.
        """
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        if self.jitter == 0.0 or base == 0.0:
            return base
        # str-seeded Random uses a stable hash (PYTHONHASHSEED-proof),
        # so the perturbation is reproducible across processes/runs.
        unit = random.Random(
            f"{self.jitter_seed}:{token}:{attempt}"
        ).random()
        return base * (1.0 + self.jitter * unit)
