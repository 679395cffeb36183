"""Supervisor scheduling tests: admission, quotas, watchdog, retry.

Admission-policy tests stub out the actual worker spawn (the policy is
what's under test); the end-to-end paths — real worker processes, real
SIGKILLs — live in test_recovery.py.
"""

import json
import os
import time

import pytest

from repro.core.config import AssemblyConfig
from repro.faults import RetryPolicy
from repro.service import JobSpec, JobStore, Supervisor
from repro.service import lease as lease_mod
from repro.service.jobstore import JOURNAL_NAME
from repro.service.supervisor import WorkerHandle

MB = 1 << 20


def spec(**kw):
    kw.setdefault("reads_path", "reads.fasta")
    return JobSpec(**kw)


class FakeProc:
    """A 'running' worker process that never exits."""

    def poll(self):
        return None


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "store"), create=True)


def stub_spawner(sup):
    """Replace worker spawning with bookkeeping; returns the call log."""
    spawned = []

    def fake_spawn(record, job_spec, now):
        lease = lease_mod.claim(sup.store.job_dir(record.job_id), sup.owner, sup.lease_ttl)
        if lease is None:
            return False
        sup.store.transition(record.job_id, "leased", now=now)
        sup.workers[record.job_id] = WorkerHandle(
            job_id=record.job_id,
            proc=FakeProc(),
            charge=job_spec.charge,
            deadline=job_spec.deadline,
            started=now,
        )
        spawned.append(record.job_id)
        return True

    sup._spawn = fake_spawn
    return spawned


class TestAdmission:
    def test_priority_order_wins_worker_slots(self, store):
        low = store.submit(spec(priority=0), now=1.0)
        high = store.submit(spec(priority=9), now=2.0)
        mid = store.submit(spec(priority=5), now=3.0)
        sup = Supervisor(store, max_workers=2)
        spawned = stub_spawner(sup)
        sup.poll_once()
        assert spawned == [high.job_id, mid.job_id]
        assert store.load_record(low.job_id).state == "queued"

    def test_submit_order_breaks_priority_ties(self, store):
        first = store.submit(spec(priority=1), now=1.0)
        second = store.submit(spec(priority=1), now=2.0)
        sup = Supervisor(store, max_workers=1)
        spawned = stub_spawner(sup)
        sup.poll_once()
        assert spawned == [first.job_id]
        assert store.load_record(second.job_id).state == "queued"

    def test_not_before_holds_a_job_back(self, store):
        held = store.submit(spec(), now=1.0)
        store.transition(held.job_id, "leased", now=1.0)
        store.transition(
            held.job_id, "queued", now=1.0, attempt=2, not_before=100.0
        )
        sup = Supervisor(store)
        spawned = stub_spawner(sup)
        sup.poll_once(now=50.0)
        assert spawned == []
        sup.poll_once(now=101.0)
        assert spawned == [held.job_id]

    def test_memory_budget_defers_second_job(self, store):
        a = store.submit(spec(memory_bytes=60 * MB), now=1.0)
        b = store.submit(spec(memory_bytes=60 * MB), now=2.0)
        sup = Supervisor(store, max_workers=4, memory_budget=100 * MB)
        spawned = stub_spawner(sup)
        sup.poll_once()
        assert spawned == [a.job_id]  # b would breach the budget
        assert store.load_record(b.job_id).state == "queued"

    def test_oversized_job_admitted_alone(self, store):
        # Serial fallback under pressure: a job bigger than the whole
        # budget still runs — by itself.
        big = store.submit(spec(memory_bytes=500 * MB), now=1.0)
        small = store.submit(spec(memory_bytes=60 * MB), now=2.0)
        sup = Supervisor(store, max_workers=4, memory_budget=100 * MB)
        spawned = stub_spawner(sup)
        sup.poll_once()
        # The oversized job was first in queue order and admitted alone;
        # the small job waits (admitting it too would breach the budget).
        assert spawned == [big.job_id]
        assert store.load_record(small.job_id).state == "queued"

    def test_worker_quota_caps_admission(self, store):
        for i in range(5):
            store.submit(spec(), now=float(i))
        sup = Supervisor(store, max_workers=3, memory_budget=10**12)
        spawned = stub_spawner(sup)
        sup.poll_once()
        assert len(spawned) == 3


class TestRecoveryPass:
    def test_stale_leased_job_requeued(self, store):
        record = store.submit(spec(), now=1.0)
        store.transition(record.job_id, "leased", now=1.0)
        lease_mod.claim(store.job_dir(record.job_id), "dead", ttl=1.0, now=1.0)
        sup = Supervisor(store, max_workers=1)
        stub_spawner(sup)
        summary = sup.poll_once(now=100.0)
        assert summary["recovered"] == 1
        loaded = store.load_record(record.job_id)
        # requeued with a bumped attempt, then re-admitted by the same
        # pass (recover runs before admit)
        assert loaded.attempt == 2

    def test_retry_exhaustion_fails_job(self, store):
        record = store.submit(
            spec(config=AssemblyConfig(retry=RetryPolicy(max_attempts=1))), now=1.0
        )
        store.transition(record.job_id, "leased", now=1.0)
        lease_mod.claim(store.job_dir(record.job_id), "dead", ttl=1.0, now=1.0)
        sup = Supervisor(store)
        stub_spawner(sup)
        sup.poll_once(now=100.0)
        loaded = store.load_record(record.job_id)
        assert loaded.state == "failed"
        assert "stale lease" in loaded.error

    def test_fresh_lease_not_recovered(self, store):
        record = store.submit(spec(), now=1.0)
        store.transition(record.job_id, "leased", now=1.0)
        lease_mod.claim(store.job_dir(record.job_id), "alive", ttl=1000.0)
        sup = Supervisor(store)
        stub_spawner(sup)
        summary = sup.poll_once(now=100.0)
        assert summary["recovered"] == 0
        assert store.load_record(record.job_id).state == "leased"

    def test_requeue_backoff_is_jittered_and_bounded(self, store):
        policy = RetryPolicy(
            max_attempts=3, backoff_base=1.0, backoff_cap=8.0, jitter=0.5
        )
        record = store.submit(spec(config=AssemblyConfig(retry=policy)), now=1.0)
        store.transition(record.job_id, "leased", now=1.0)
        lease_mod.claim(store.job_dir(record.job_id), "dead", ttl=1.0, now=1.0)
        sup = Supervisor(store, max_workers=1)
        # no spawner stub needed: the requeued job's not_before holds
        # it out of the same pass's admission window
        sup.poll_once(now=100.0)
        loaded = store.load_record(record.job_id)
        delay = loaded.not_before - 100.0
        assert 1.0 <= delay <= 1.5  # base * (1 + jitter)
        # deterministic: the same (job, attempt) always jitters alike
        assert delay == pytest.approx(
            policy.backoff(1, token=record.job_id), abs=1e-9
        )


class TestUnreadableRecords:
    def test_damaged_and_mistyped_journals_are_skipped(self, store, capsys):
        damaged = store.submit(spec(priority=3), now=1.0)
        mistyped = store.submit(spec(priority=2), now=2.0)
        torn = store.submit(spec(priority=1), now=3.0)
        healthy = store.submit(spec(), now=4.0)
        paths = {
            j.job_id: os.path.join(store.job_dir(j.job_id), JOURNAL_NAME)
            for j in (damaged, mistyped, torn)
        }
        # A requeued job whose middle line lost its last bytes.
        store.transition(damaged.job_id, "leased", now=5.0)
        store.transition(damaged.job_id, "queued", now=6.0, attempt=2)
        with open(paths[damaged.job_id], "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[1] = lines[1][:-1]
        with open(paths[damaged.job_id], "wb") as fh:
            fh.write(b"\n".join(lines))
        # The last complete line well-formed JSON, but mistyped.
        with open(paths[mistyped.job_id]) as fh:
            entry = json.loads(fh.readline())
        entry["record"].update(priority="5", not_before="soon")
        with open(paths[mistyped.job_id], "w") as fh:
            fh.write(json.dumps(entry) + "\n")
        # A crashed append: the job is as its last complete line says.
        with open(paths[torn.job_id], "a") as fh:
            fh.write('{"prior": "queued", "record": {"job_id"')
        # A submit still in progress: the job directory, no journal.
        os.makedirs(store.job_dir("half-submitted"))
        sup = Supervisor(store, max_workers=4, poll_interval=0.01)
        spawned = stub_spawner(sup)
        sup.poll_once(now=10.0)
        sup.poll_once(now=11.0)
        assert spawned == [torn.job_id, healthy.job_id]
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 2
        for job_id, line_no in ((damaged.job_id, 2), (mistyped.job_id, 1)):
            (line,) = [w for w in warnings if paths[job_id] in w]
            assert line.startswith(f"warning: skipping job {job_id}: corrupt job record")
            assert f"{paths[job_id]!r} line {line_no}:" in line
        # --drain still ends once every readable job is terminal.
        for job in (torn, healthy):
            store.transition(job.job_id, "running", now=12.0)
            store.transition(job.job_id, "done", now=13.0)
        sup.workers.clear()
        assert sup.run(drain=True, max_seconds=30.0) == 1
        assert capsys.readouterr().err == ""


class TestRunLoop:
    def test_run_is_bounded(self, store):
        sup = Supervisor(store, poll_interval=0.01)
        t0 = time.time()
        sup.run(max_seconds=0.1)
        assert time.time() - t0 < 5.0

    def test_run_drains_on_terminal_store(self, store):
        record = store.submit(spec())
        store.transition(record.job_id, "cancelled")
        sup = Supervisor(store, poll_interval=0.01)
        passes = sup.run(drain=True, max_seconds=30.0)
        assert passes >= 1

    def test_stop_callable_breaks_loop(self, store):
        sup = Supervisor(store, poll_interval=0.01)
        calls = []

        def stop():
            calls.append(1)
            return len(calls) >= 3

        sup.run(max_seconds=30.0, stop=stop)
        assert len(calls) == 3

    def test_validates_quotas(self, store):
        with pytest.raises(ValueError):
            Supervisor(store, max_workers=0)
        with pytest.raises(ValueError):
            Supervisor(store, memory_budget=0)
        with pytest.raises(ValueError):
            Supervisor(store, lease_ttl=0.0)
