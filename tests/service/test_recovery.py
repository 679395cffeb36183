"""End-to-end hard-kill recovery: real processes, real SIGKILL.

The service's recovery guarantees, driven through the SIGKILL scenario
harness beside this file (``tests/service/chaos.py``):

- a worker SIGKILLed mid-stage is requeued by its supervisor and the
  resumed attempt produces byte-identical contigs;
- killing the *supervisor and the worker* leaves only the disk, and a
  fresh supervisor process finishes the job byte-identically;
- two supervisors racing over one stale lease resolve to exactly one
  takeover (the rename-CAS + recovery-claim protocol).
"""

import pytest

from repro.service import JobStore
from tests.service.chaos import run_scenario

TIMEOUT = 120.0


@pytest.fixture(scope="module")
def baseline(reads_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("svc-baseline")
    res = run_scenario("baseline", str(root / "store"), reads_path, TIMEOUT)
    assert res.state == "done"
    assert res.contigs
    return res


class TestWorkerKill:
    @pytest.fixture(scope="class")
    def killed(self, reads_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("svc-worker-kill")
        return str(root / "store"), run_scenario(
            "worker-kill", str(root / "store"), reads_path, TIMEOUT
        )

    def test_recovers_byte_identical(self, killed, baseline):
        _, res = killed
        assert res.state == "done"
        assert res.kills == 1
        assert res.contigs == baseline.contigs

    def test_second_attempt_resumed(self, killed):
        _, res = killed
        assert res.attempts == 2
        assert res.takeovers == 1

    def test_journal_tells_the_whole_story(self, killed):
        root, res = killed
        store = JobStore(root)
        entries = store.journal(res.job_id)
        tos = [e.record.state for e in entries]
        # attempt 1 started and checkpointed at least once
        assert tos.count("leased") == 2
        assert "checkpointing" in tos
        # exactly one requeue, from the stale lease (the first queued
        # entry is the submit itself)
        requeues = [
            e
            for e in entries
            if e.record.state == "queued" and e.prior != "submitted"
        ]
        assert len(requeues) == 1
        assert requeues[0].info.get("requeue") == "stale lease"
        assert tos[-1] == "done"

    def test_resume_skipped_completed_stages(self, killed):
        # The killed attempt journaled stages it checkpointed; the
        # resumed attempt must not re-journal all of them from scratch
        # unless the kill landed before the first checkpoint.
        root, res = killed
        store = JobStore(root)
        entries = store.journal(res.job_id)
        requeue_at = next(
            i
            for i, e in enumerate(entries)
            if e.record.state == "queued" and e.prior != "submitted"
        )
        stages_before = {
            e.info.get("stage")
            for e in entries[:requeue_at]
            if e.record.state == "checkpointing"
        }
        stages_after = {
            e.info.get("stage")
            for e in entries[requeue_at:]
            if e.record.state == "checkpointing"
        }
        # checkpointed-and-durable stages do not run (or journal) again
        assert not (stages_before & stages_after)


class TestSupervisorKill:
    @pytest.fixture(scope="class")
    def killed(self, reads_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("svc-sup-kill")
        return str(root / "store"), run_scenario(
            "supervisor-kill", str(root / "store"), reads_path, TIMEOUT
        )

    def test_fresh_supervisor_finishes_byte_identical(self, killed, baseline):
        _, res = killed
        assert res.state == "done"
        assert res.kills == 2  # worker AND supervisor
        assert res.contigs == baseline.contigs

    def test_two_distinct_owners(self, killed):
        _, res = killed
        assert res.owners == 2
        assert res.attempts == 2

    def test_result_record_written(self, killed, baseline):
        _, res = killed
        assert res.result["n_contigs"] == baseline.result["n_contigs"]
        assert res.result["n50"] == baseline.result["n50"]


class TestTakeoverRace:
    @pytest.fixture(scope="class")
    def raced(self, reads_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("svc-takeover")
        return str(root / "store"), run_scenario(
            "takeover", str(root / "store"), reads_path, TIMEOUT
        )

    def test_exactly_one_takeover(self, raced):
        _, res = raced
        assert res.takeovers == 1

    def test_job_finishes_byte_identical(self, raced, baseline):
        _, res = raced
        assert res.state == "done"
        assert res.contigs == baseline.contigs

    def test_each_attempt_has_one_owner(self, raced):
        root, res = raced
        store = JobStore(root)
        entries = store.journal(res.job_id)
        # per attempt, at most one supervisor ever leased the job
        leases_by_attempt = {}
        for e in entries:
            if e.record.state == "leased":
                leases_by_attempt.setdefault(e.record.attempt, []).append(
                    e.info.get("owner")
                )
        for attempt, owners in leases_by_attempt.items():
            assert len(owners) == 1, (attempt, owners)
