"""FaultPlan: a seeded, serializable description of worker faults.

A plan is a list of *concrete* kernel fault specs — which stage, which
partition, which attempt numbers — rather than live probabilities, so
the same plan object always injects exactly the same faults.
:meth:`FaultPlan.random` bridges the two worlds: it expands a seed
into explicit specs with a seeded generator, giving "random chaos"
that is still fully reproducible and serializable: a ``--fault-plan``
file is a plan as JSON, written and read by :mod:`repro.io.codec`.

A plan fires only inside ``process``-backend workers, the one place
where a failed attempt can be followed by a successful one (see
docs/robustness.md).

Every spec carries an ``attempts`` budget: the fault fires while the
executing attempt number is ``<= attempts`` and then stops, so a
retry policy whose ``max_attempts`` exceeds the deepest budget is
guaranteed to converge (the contract the chaos equivalence suite
leans on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["KERNEL_FAULT_KINDS", "KernelFault", "FaultPlan"]

#: kernel-level fault kinds: kill the worker, stall past the deadline,
#: raise a transient exception.
KERNEL_FAULT_KINDS = ("crash", "hang", "error")


@dataclass(frozen=True)
class KernelFault:
    """One injected kernel failure.

    Fires when partition ``part`` of stage ``stage`` executes with an
    attempt number ``<= attempts``.  ``stage`` may be ``"*"`` to match
    any stage (the first matching spec wins).
    """

    kind: str
    stage: str
    part: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_FAULT_KINDS:
            raise ValueError(
                f"unknown kernel fault kind {self.kind!r}; "
                f"expected one of {KERNEL_FAULT_KINDS}"
            )
        if self.part < 0:
            raise ValueError("part must be non-negative")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def matches(self, stage: str, part: int, attempt: int) -> bool:
        return (
            (self.stage == "*" or self.stage == stage)
            and self.part == part
            and attempt <= self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault-injection schedule.

    ``hang_seconds`` is how long an injected hang actually sleeps in a
    worker process — long enough to trip any sane per-task deadline,
    short enough that a leaked worker eventually exits on its own.
    """

    seed: int = 0
    kernel_faults: tuple[KernelFault, ...] = ()
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans; store tuples.
        object.__setattr__(self, "kernel_faults", tuple(self.kernel_faults))
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    # -- lookup ----------------------------------------------------------

    def kernel_fault(self, stage: str, part: int, attempt: int) -> KernelFault | None:
        """The kernel fault to fire for this execution, if any."""
        for spec in self.kernel_faults:
            if spec.matches(stage, part, attempt):
                return spec
        return None

    @property
    def empty(self) -> bool:
        return not self.kernel_faults

    # -- random generation ----------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        stages: tuple[str, ...],
        n_parts: int,
        n_kernel_faults: int = 2,
        max_fail_attempts: int = 1,
        kinds: tuple[str, ...] = KERNEL_FAULT_KINDS,
    ) -> "FaultPlan":
        """Expand a seed into a concrete plan with explicit specs.

        The generated specs are drawn with a seeded generator and then
        frozen into the plan, so the result is deterministic in
        ``seed`` and fully serializable.
        """
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        if not stages:
            raise ValueError("stages must be non-empty")
        rng = np.random.default_rng(seed)
        kernel = tuple(
            KernelFault(
                kind=str(rng.choice(list(kinds))),
                stage=str(rng.choice(list(stages))),
                part=int(rng.integers(n_parts)),
                attempts=int(rng.integers(1, max_fail_attempts + 1)),
            )
            for _ in range(n_kernel_faults)
        )
        return cls(seed=seed, kernel_faults=kernel)

    def scaled_to(self, n_parts: int) -> "FaultPlan":
        """A copy with every partition index folded into range.

        Lets one plan be reused across partition counts in sweeps:
        indices are taken modulo ``n_parts``.
        """
        kernel = tuple(
            replace(s, part=s.part % n_parts) for s in self.kernel_faults
        )
        return replace(self, kernel_faults=kernel)
