"""Job specs, job records, and the job state machine.

A *job* is one checkpointed assembly: a :class:`JobSpec` (immutable
input + configuration, written once at submit) and a :class:`JobRecord`
(the mutable lifecycle state, appended whole to the job's journal on
every transition).  :mod:`repro.io.codec` writes both as JSON
(``spec.json``, ``journal.jsonl`` lines) and refuses a damaged or
mistyped one by its key; the supervisor skips a job whose journal it
cannot read.  The state machine is small and strict::

    queued -> leased -> running <-> checkpointing -> done
       ^         |         |                           |
       |         +---------+------> failed / cancelled +
       +---- (requeue after a crash, lease loss, or watchdog kill)

``queued``
    Submitted (or requeued after a failed attempt); no owner.  A job
    whose ``spec.json`` cannot be read goes straight to ``failed``.
``leased``
    A supervisor claimed the job's lease and is starting a worker.
``running`` / ``checkpointing``
    The worker is executing stages; it bounces through
    ``checkpointing`` as each distributed stage's checkpoint is made
    durable, so the journal records exactly how far the job got.
``done`` / ``failed`` / ``cancelled``
    Terminal.  ``done`` jobs have contigs and a result record on disk.

Any transition not in :data:`TRANSITIONS` raises
:class:`InvalidTransitionError` — a crashed process can leave a job
*stale* (active state + expired lease) but never in an unrepresentable
state, which is what makes crash recovery a scan instead of a repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import AssemblyConfig

__all__ = [
    "JOB_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "InvalidTransitionError",
    "JobSpec",
    "JobRecord",
]

#: every job state, in lifecycle order.
JOB_STATES = (
    "queued",
    "leased",
    "running",
    "checkpointing",
    "done",
    "failed",
    "cancelled",
)

#: states in which some process claims to be advancing the job — a job
#: found in one of these with a stale lease is recoverable.
ACTIVE_STATES = frozenset({"leased", "running", "checkpointing"})

TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: the legal state machine; requeue edges (``* -> queued``) are how
#: crash recovery returns a stranded job to the scheduler, and
#: ``queued -> failed`` ends a job whose spec cannot be read.
TRANSITIONS: dict[str, frozenset[str]] = {
    "queued": frozenset({"leased", "failed", "cancelled"}),
    "leased": frozenset({"running", "queued", "failed", "cancelled"}),
    "running": frozenset(
        {"checkpointing", "done", "failed", "queued", "cancelled"}
    ),
    "checkpointing": frozenset(
        {"running", "done", "failed", "queued", "cancelled"}
    ),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}


class InvalidTransitionError(ValueError):
    """A state change outside :data:`TRANSITIONS` was attempted."""

    def __init__(self, job_id: str, current: str, target: str) -> None:
        super().__init__(
            f"job {job_id!r}: illegal transition {current!r} -> {target!r}"
        )
        self.job_id = job_id
        self.current = current
        self.target = target


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one assembly job.

    ``config`` is the :class:`~repro.core.config.AssemblyConfig` the
    worker runs, exactly as ``repro assemble`` would.  Exactly one of
    ``reads_path`` (FASTA/FASTQ file) and ``config.store_path`` (a
    ``repro pack`` sharded store directory) names the input, and
    ``config.retry`` is both the job's attempt budget and its
    partitions' retry budget.  ``memory_bytes`` is the job's
    admission-control charge against the supervisor's memory budget;
    it defaults to the shard-cache budget (the streaming ceiling).
    ``pause_between_stages`` inserts a sleep after each durable stage
    checkpoint — a chaos/testing knob that widens the kill window for
    the hard-kill recovery suites; production jobs leave it at 0.
    """

    name: str = "job"
    reads_path: str | None = None
    config: AssemblyConfig = field(default_factory=AssemblyConfig)
    #: larger runs first; ties break on submit order.
    priority: int = 0
    #: admission-control charge in bytes (0 = ``config.cache_budget``).
    memory_bytes: int = 0
    #: wall-second budget for one attempt before the supervisor's
    #: watchdog kills and requeues it (None = no watchdog).
    deadline: float | None = None
    #: chaos/testing stall after each stage checkpoint (seconds).
    pause_between_stages: float = 0.0

    def __post_init__(self) -> None:
        if (self.reads_path is None) == (self.config.store_path is None):
            raise ValueError(
                "exactly one of reads_path and config.store_path is required"
            )
        if self.memory_bytes < 0:
            raise ValueError("memory_bytes must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.pause_between_stages < 0:
            raise ValueError("pause_between_stages must be non-negative")

    @property
    def charge(self) -> int:
        """Admission-control bytes this job reserves while running."""
        return self.memory_bytes or self.config.cache_budget


@dataclass
class JobRecord:
    """The mutable lifecycle state of one job (a journal line's ``record``)."""

    job_id: str
    state: str = "queued"
    #: 1-based attempt counter; bumped on every requeue.
    attempt: int = 1
    priority: int = 0
    created: float = 0.0
    updated: float = 0.0
    #: scheduler hold-off: not admitted before this wall time (the
    #: jittered retry backoff after a failed attempt).
    not_before: float = 0.0
    #: last completed distributed stage (journal granularity).
    stage: str = ""
    error: str = ""

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}")

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transitioned(
        self, target: str, now: float, **fields
    ) -> "JobRecord":
        """A copy in ``target`` state, validated against the machine."""
        if target not in JOB_STATES:
            raise ValueError(f"unknown job state {target!r}")
        if target not in TRANSITIONS[self.state]:
            raise InvalidTransitionError(self.job_id, self.state, target)
        return replace(self, state=target, updated=now, **fields)
