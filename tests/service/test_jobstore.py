"""Unit tests for the durable job store: records, journal, crash debris."""

import json
import os

import pytest

from repro.service import JobSpec, JobStore
from repro.service import lease as lease_mod
from repro.service.jobstore import JOURNAL_NAME, SPEC_NAME, STATE_NAME


def spec(**kw):
    kw.setdefault("reads_path", "reads.fasta")
    return JobSpec(**kw)


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "store"), create=True)


class TestMarker:
    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not a job store"):
            JobStore(str(tmp_path / "nope"))

    def test_reopen_existing(self, store):
        again = JobStore(store.root)
        assert again.root == store.root

    def test_version_mismatch_raises(self, store):
        marker = os.path.join(store.root, "jobstore.json")
        payload = json.load(open(marker))
        payload["version"] = 999
        with open(marker, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="version"):
            JobStore(store.root)

    def test_corrupt_marker_raises(self, store):
        with open(os.path.join(store.root, "jobstore.json"), "w") as fh:
            fh.write("{")
        with pytest.raises(ValueError, match="corrupt"):
            JobStore(store.root)


class TestSubmit:
    def test_submit_creates_queued_job(self, store):
        record = store.submit(spec(name="x", priority=2), now=10.0)
        assert record.state == "queued"
        assert record.job_id.startswith("x-")
        assert record.priority == 2
        assert store.load_record(record.job_id) == record
        assert store.load_spec(record.job_id).name == "x"

    def test_submit_journals_the_birth(self, store):
        record = store.submit(spec(), now=10.0)
        entries = store.journal(record.job_id)
        assert [(e.state_from, e.state_to) for e in entries] == [
            ("submitted", "queued")
        ]

    def test_ids_are_unique(self, store):
        ids = {store.submit(spec()).job_id for _ in range(20)}
        assert len(ids) == 20
        assert sorted(store.list_jobs()) == sorted(ids)

    def test_load_missing_job_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.load_record("ghost")
        with pytest.raises(KeyError):
            store.load_spec("ghost")


class TestTransitions:
    def test_transition_updates_state_and_journal(self, store):
        record = store.submit(spec(), now=1.0)
        store.transition(record.job_id, "leased", now=2.0, info={"owner": "s"})
        store.transition(record.job_id, "running", now=3.0)
        loaded = store.load_record(record.job_id)
        assert loaded.state == "running"
        assert loaded.updated == 3.0
        entries = store.journal(record.job_id)
        assert [e.state_to for e in entries] == ["queued", "leased", "running"]
        assert entries[1].info == {"owner": "s"}

    def test_illegal_transition_not_journaled(self, store):
        record = store.submit(spec())
        with pytest.raises(ValueError):
            store.transition(record.job_id, "done")
        assert [e.state_to for e in store.journal(record.job_id)] == ["queued"]
        assert store.load_record(record.job_id).state == "queued"

    def test_retry_or_fail_fails_a_job_whose_spec_cannot_be_read(self, store):
        record = store.submit(spec(), now=1.0)
        store.transition(record.job_id, "leased", now=2.0)
        path = os.path.join(store.job_dir(record.job_id), SPEC_NAME)
        with open(path, "w") as fh:
            fh.write('{"reads_path": "x", "color": 1}')
        assert not store.retry_or_fail(record.job_id, "stale lease", "stale lease")
        loaded = store.load_record(record.job_id)
        assert loaded.state == "failed" and path in loaded.error

    def test_torn_journal_tail_ignored(self, store):
        record = store.submit(spec())
        store.transition(record.job_id, "leased")
        path = os.path.join(store.job_dir(record.job_id), JOURNAL_NAME)
        with open(path, "a") as fh:
            fh.write('{"ts": 99, "from": "leased", "to": "runn')  # torn
        entries = store.journal(record.job_id)
        assert [e.state_to for e in entries] == ["queued", "leased"]

    def test_torn_state_json_never_happens_on_crash(self, store):
        # The state file is replaced atomically; a reader can never see
        # a partial write.  Simulate the tmp file surviving a crash:
        # the store still reads the previous committed record.
        record = store.submit(spec())
        state = os.path.join(store.job_dir(record.job_id), STATE_NAME)
        with open(state + ".tmp.999.0", "w") as fh:
            fh.write('{"job_id": "half')
        assert store.load_record(record.job_id).state == "queued"


class TestCancel:
    def test_cancel_queued_is_immediate(self, store):
        record = store.submit(spec())
        assert store.request_cancel(record.job_id) == "cancelled"
        assert store.load_record(record.job_id).state == "cancelled"

    def test_cancel_active_is_cooperative(self, store):
        record = store.submit(spec())
        store.transition(record.job_id, "leased")
        store.transition(record.job_id, "running")
        assert store.request_cancel(record.job_id) == "requested"
        assert store.cancel_requested(record.job_id)
        # the record is untouched until the worker honors the marker
        assert store.load_record(record.job_id).state == "running"

    def test_cancel_terminal_is_ignored(self, store):
        record = store.submit(spec())
        store.transition(record.job_id, "cancelled")
        assert store.request_cancel(record.job_id) == "ignored"


class TestRecoverable:
    def test_queued_is_not_recoverable(self, store):
        record = store.submit(spec())
        assert not store.recoverable(record)

    def test_active_without_lease_is_recoverable(self, store):
        record = store.submit(spec())
        updated = store.transition(record.job_id, "leased")
        assert store.recoverable(updated)

    def test_active_with_fresh_lease_is_not(self, store):
        record = store.submit(spec())
        updated = store.transition(record.job_id, "leased")
        lease_mod.claim(store.job_dir(record.job_id), "sup", ttl=100.0)
        assert not store.recoverable(updated)

    def test_active_with_stale_lease_is_recoverable(self, store):
        record = store.submit(spec())
        updated = store.transition(record.job_id, "leased")
        lease_mod.claim(store.job_dir(record.job_id), "sup", ttl=5.0, now=100.0)
        assert store.recoverable(updated, now=106.0)


class TestResult:
    def test_result_roundtrip(self, store):
        record = store.submit(spec())
        store.write_result(record.job_id, {"n_contigs": 5, "n50": 1234})
        assert store.load_result(record.job_id) == {
            "n_contigs": 5,
            "n50": 1234,
        }
