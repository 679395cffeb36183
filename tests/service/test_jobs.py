"""Unit tests for the job state machine, specs, and records."""

import json
from dataclasses import fields

import pytest

from repro.core.config import AssemblyConfig
from repro.faults import RetryPolicy
from repro.io.codec import decode, encode
from repro.service import (
    ACTIVE_STATES,
    JOB_STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    InvalidTransitionError,
    JobRecord,
    JobSpec,
)


class TestStateMachine:
    def test_every_state_has_a_transition_row(self):
        assert set(TRANSITIONS) == set(JOB_STATES)

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert TRANSITIONS[state] == frozenset()

    def test_active_states_can_requeue(self):
        # The crash-recovery edge: every state a dead process can
        # strand a job in must be able to go back to queued.
        for state in ACTIVE_STATES:
            assert "queued" in TRANSITIONS[state]

    def test_every_nonterminal_state_can_reach_cancelled(self):
        for state in JOB_STATES:
            if state in TERMINAL_STATES:
                continue
            assert "cancelled" in TRANSITIONS[state]

    def test_happy_path_walk(self):
        record = JobRecord(job_id="j", state="queued", created=1.0)
        for i, target in enumerate(
            ["leased", "running", "checkpointing", "running", "done"]
        ):
            record = record.transitioned(target, now=2.0 + i)
        assert record.state == "done"
        assert record.terminal
        assert record.updated == 6.0

    def test_only_queued_and_active_states_can_fail(self):
        # queued -> failed ends a job whose spec cannot be read.
        can_fail = {s for s in JOB_STATES if "failed" in TRANSITIONS[s]}
        assert can_fail == ACTIVE_STATES | {"queued"}

    def test_illegal_transition_raises(self):
        record = JobRecord(job_id="j", state="queued")
        with pytest.raises(InvalidTransitionError) as exc:
            record.transitioned("done", now=1.0)
        assert "queued" in str(exc.value) and "done" in str(exc.value)

    def test_terminal_is_final(self):
        record = JobRecord(job_id="j", state="done")
        for target in JOB_STATES:
            with pytest.raises((InvalidTransitionError, ValueError)):
                record.transitioned(target, now=1.0)

    def test_unknown_state_rejected(self):
        record = JobRecord(job_id="j", state="queued")
        with pytest.raises(ValueError):
            record.transitioned("paused", now=1.0)

    def test_transition_carries_fields(self):
        record = JobRecord(job_id="j", state="running", attempt=1)
        requeued = record.transitioned(
            "queued", now=5.0, attempt=2, not_before=7.5, error="boom"
        )
        assert requeued.attempt == 2
        assert requeued.not_before == 7.5
        assert requeued.error == "boom"
        # the original is untouched (records are copied, not mutated)
        assert record.attempt == 1


class TestJobSpec:
    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            JobSpec(name="j")
        with pytest.raises(ValueError):
            JobSpec(
                name="j",
                reads_path="a.fasta",
                config=AssemblyConfig(store_path="b.store"),
            )

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            decode(JobSpec, {"reads_path": "a.fasta", "config": {"n_partitions": 3}})

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            decode(JobSpec, {"reads_path": "a.fasta", "config": {"backend": "gpu"}})

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            JobSpec(reads_path="a.fasta", deadline=0.0)

    def test_charge_prefers_memory_bytes(self):
        config = AssemblyConfig(cache_budget=456)
        spec = JobSpec(reads_path="a.fasta", config=config, memory_bytes=123)
        assert spec.charge == 123
        spec = JobSpec(reads_path="a.fasta", config=config, memory_bytes=0)
        assert spec.charge == 456

    def test_dict_roundtrip_preserves_retry_policy(self):
        spec = JobSpec(
            name="rt",
            reads_path="a.fasta",
            config=AssemblyConfig(
                seed=9,
                retry=RetryPolicy(max_attempts=5, backoff_base=0.25, jitter=0.5),
            ),
            priority=3,
            deadline=12.0,
            pause_between_stages=0.1,
        )
        again = decode(JobSpec, json.loads(json.dumps(encode(spec))))
        assert again == spec
        assert again.config.retry.jitter == 0.5

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown key 'color'"):
            decode(JobSpec, {"reads_path": "a.fasta", "color": "red"})
        with pytest.raises(ValueError, match="'config.coarsen.color'"):
            decode(JobSpec, {"reads_path": "a.fasta", "config": {"coarsen": {"color": 1}}})

    def test_spec_has_no_assembly_knob_of_its_own(self):
        # The config is the one carrier of assembly options.
        spec_fields = {f.name for f in fields(JobSpec)}
        assert not spec_fields & {f.name for f in fields(AssemblyConfig)}
        assert not hasattr(JobSpec, "assembly_config")


class TestJobRecord:
    def test_dict_roundtrip(self):
        record = JobRecord(
            job_id="j-1",
            state="running",
            attempt=2,
            priority=1,
            created=1.0,
            updated=2.0,
            not_before=3.0,
            stage="bubbles",
            error="",
        )
        assert decode(JobRecord, json.loads(json.dumps(encode(record)))) == record

    def test_from_dict_rejects_unknown_state(self):
        with pytest.raises(ValueError, match="unknown job state 'zombie'"):
            decode(JobRecord, {"job_id": "j", "state": "zombie"})
        with pytest.raises(ValueError, match="unknown job state 'zombie'"):
            JobRecord(job_id="j", state="zombie")

    def test_active_and_terminal_flags(self):
        assert JobRecord(job_id="j", state="leased").active
        assert not JobRecord(job_id="j", state="queued").active
        assert JobRecord(job_id="j", state="failed").terminal
        assert not JobRecord(job_id="j", state="running").terminal
