"""Crash-resilient assembly-as-a-service.

A durable, filesystem-backed job service around the checkpointed
:class:`~repro.core.focus.FocusAssembler` pipeline: jobs are submitted
as immutable specs into a :class:`~repro.service.jobstore.JobStore`
(an atomic spec, one fsynced journal line per transition),
supervisors claim them through lease files
(:mod:`~repro.service.lease`) and spawn worker processes that
heartbeat while running the checkpointed ``finish`` stages.  Any
process — worker or supervisor — can be SIGKILLed at any instant; the
next supervisor scan finds the stale lease, requeues the job, and the
resumed attempt restores fingerprint-verified checkpoints to produce
byte-identical contigs.  See ``docs/robustness.md``.
"""

from repro.service.jobs import (
    ACTIVE_STATES,
    JOB_STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    InvalidTransitionError,
    JobRecord,
    JobSpec,
)
from repro.service.jobstore import JobStore, JournalEntry
from repro.service.lease import Lease, LeaseLostError
from repro.service.supervisor import Supervisor

__all__ = [
    "ACTIVE_STATES",
    "JOB_STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "InvalidTransitionError",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "JournalEntry",
    "Lease",
    "LeaseLostError",
    "Supervisor",
]
