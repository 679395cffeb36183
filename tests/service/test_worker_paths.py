"""Worker failure-escalation and cooperative-cancellation paths."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import AssemblyConfig
from repro.faults import RetryPolicy
from repro.service import JobSpec, JobStore, Supervisor
from repro.service import lease as lease_mod
from repro.service.worker import _finish_ok

POLL = 0.02
TIMEOUT = 60.0


class TestFailureEscalation:
    def test_bad_input_fails_after_retry_budget(self, tmp_path):
        store = JobStore(str(tmp_path / "store"), create=True)
        record = store.submit(
            JobSpec(
                name="doomed",
                reads_path=str(tmp_path / "missing.fasta"),
                config=AssemblyConfig(
                    retry=RetryPolicy(
                        max_attempts=2, backoff_base=0.01, backoff_cap=0.02
                    )
                ),
            )
        )
        sup = Supervisor(store, lease_ttl=5.0, poll_interval=POLL)
        sup.run(drain=True, max_seconds=TIMEOUT)
        loaded = store.load_record(record.job_id)
        assert loaded.state == "failed"
        assert loaded.attempt == 2
        assert "FileNotFoundError" in loaded.error
        # both attempts journaled: two leases, one worker requeue, one fail
        entries = store.journal(record.job_id)
        tos = [e.record.state for e in entries]
        assert tos.count("leased") == 2
        assert tos[-1] == "failed"
        requeues = [e for e in entries if e.info.get("requeue")]
        assert len(requeues) == 1
        assert requeues[0].info["requeue"] == "worker error"

    def test_failed_job_releases_its_lease(self, tmp_path):
        store = JobStore(str(tmp_path / "store"), create=True)
        record = store.submit(
            JobSpec(
                reads_path=str(tmp_path / "missing.fasta"),
                config=AssemblyConfig(retry=RetryPolicy(max_attempts=1)),
            )
        )
        Supervisor(store, lease_ttl=5.0, poll_interval=POLL).run(
            drain=True, max_seconds=TIMEOUT
        )
        assert store.load_record(record.job_id).state == "failed"
        assert lease_mod.read(store.job_dir(record.job_id)) is None


class TestCooperativeCancel:
    def test_cancel_mid_run_stops_at_stage_boundary(self, tmp_path, reads_path):
        store = JobStore(str(tmp_path / "store"), create=True)
        record = store.submit(
            JobSpec(
                name="cancelme",
                reads_path=reads_path,
                config=AssemblyConfig(seed=7),
                pause_between_stages=0.2,
            )
        )
        sup = Supervisor(store, lease_ttl=5.0, poll_interval=POLL)
        sup.poll_once()
        deadline = time.time() + TIMEOUT
        while time.time() < deadline:
            if store.load_record(record.job_id).state in (
                "running",
                "checkpointing",
            ):
                break
            time.sleep(POLL)
        else:
            pytest.fail("job never started running")
        assert store.request_cancel(record.job_id) == "requested"
        sup.run(drain=True, max_seconds=TIMEOUT)
        loaded = store.load_record(record.job_id)
        assert loaded.state == "cancelled"
        # cancelled jobs release their lease and never write contigs
        assert lease_mod.read(store.job_dir(record.job_id)) is None
        assert not (
            tmp_path / "store" / "jobs" / record.job_id / "contigs.fasta"
        ).exists()


class TestDoneIsDurable:
    def test_contigs_reach_disk_before_the_done_transition(
        self, tmp_path, reads_path, durable_ops
    ):
        # Power loss after `done` must not find an empty contig file:
        # contigs fsynced, renamed, the rename fsynced — then the
        # result, then the one journal line that records `done`.
        store = JobStore(str(tmp_path / "store"), create=True)
        job_id = store.submit(JobSpec(reads_path=reads_path)).job_id
        store.transition(job_id, "leased")
        store.transition(job_id, "running")
        stats = SimpleNamespace(n_contigs=1, total_bases=4, n50=4, max_contig=4)
        result = SimpleNamespace(
            contigs=[np.array([0, 1, 2, 3], dtype=np.uint8)],
            stats=stats,
            backend="serial",
            virtual_times={"traversal": 0.5},
        )
        del durable_ops[:]
        _finish_ok(store, job_id, result)
        durable = lambda name: [("fsync", name), ("replace", name), ("fsync", job_id)]
        assert durable_ops == [
            *durable("contigs.fasta"),
            *durable("result.json"),
            ("fsync", "journal.jsonl"),
        ]
        assert store.load_record(job_id).state == "done"
        with open(store.contigs_path(job_id)) as fh:
            assert fh.read() == ">contig_0\nACGT\n"
