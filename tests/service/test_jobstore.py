"""Unit tests for the durable job store: records, journal, crash debris."""

import json
import os
import re

import pytest

from repro.service import JobSpec, JobStore
from repro.service import lease as lease_mod
from repro.service.jobstore import JOURNAL_NAME, MARKER_NAME, SPEC_NAME


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

    @pytest.mark.parametrize("version", [1.7, "x", 1], ids=["float", "string", "v1"])
    def test_marker_version_is_decoded_and_named(self, store, version):
        marker = os.path.join(store.root, MARKER_NAME)
        with open(marker, "w") as fh:
            json.dump({"format": "repro.jobstore", "version": version}, fh)
        with pytest.raises(ValueError) as info:
            JobStore(store.root)
        message = str(info.value)
        assert marker in message and "\n" not in message
        if version == 1:
            assert "unsupported job store version 1" in message
            assert "resubmit" in message
        else:
            assert "'version' must be an integer" in message


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
        assert [(e.prior, e.record) for e in entries] == [("submitted", record)]

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
        assert [e.record.state for e in entries] == ["queued", "leased", "running"]
        assert [e.prior for e in entries] == ["submitted", "queued", "leased"]
        assert entries[1].info == {"owner": "s"}
        assert entries[-1].record == loaded

    def test_illegal_transition_not_journaled(self, store):
        record = store.submit(spec())
        with pytest.raises(ValueError):
            store.transition(record.job_id, "done")
        assert [e.record.state for e in store.journal(record.job_id)] == ["queued"]
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
            fh.write('{"prior": "leased", "record": {"job_id": "x", "state": "runn')  # torn
        entries = store.journal(record.job_id)
        assert [e.record.state for e in entries] == ["queued", "leased"]
        assert store.load_record(record.job_id).state == "leased"

    def test_append_after_a_torn_tail_cuts_it_off(self, store):
        record = store.submit(spec())
        store.transition(record.job_id, "leased")
        path = os.path.join(store.job_dir(record.job_id), JOURNAL_NAME)
        with open(path, "a") as fh:
            fh.write('{"ts": 9, "fro')  # a crashed append
        store.transition(record.job_id, "running")
        store.transition(record.job_id, "done")
        assert store.load_record(record.job_id).state == "done"
        states = [e.record.state for e in store.journal(record.job_id)]
        assert states == ["queued", "leased", "running", "done"]
        with open(path, "rb") as fh:
            assert b"fro" not in fh.read()

    def test_append_keeps_a_line_written_since_the_read(self, store):
        # Only a torn tail is cut: a complete line another process
        # appended after this one read the journal stays.
        record = store.submit(spec())
        entries, intact = store._read(record.job_id)
        store.transition(record.job_id, "leased")
        store._append(store.job_dir(record.job_id), entries[0], intact)
        states = [e.record.state for e in store.journal(record.job_id)]
        assert states == ["queued", "leased", "queued"]

    def test_damaged_middle_line_is_named_by_file_and_line(self, store):
        record = store.submit(spec())
        for target in ("leased", "running", "done"):
            store.transition(record.job_id, target)
        path = os.path.join(store.job_dir(record.job_id), JOURNAL_NAME)
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[1] = lines[1][:-3]  # three bytes cut off line 2 of 4
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        for read in (store.load_record, store.journal):
            with pytest.raises(ValueError, match=f"{re.escape(repr(path))} line 2:"):
                read(record.job_id)
        records, unreadable = store.load_records()
        assert records == [] and list(unreadable) == [record.job_id]

    def test_no_complete_line_is_a_submit_in_progress(self, store):
        record = store.submit(spec())
        path = os.path.join(store.job_dir(record.job_id), JOURNAL_NAME)
        with open(path, "rb") as fh:
            line = fh.read()
        with open(path, "wb") as fh:
            fh.write(line[:-1])  # the first append, torn
        with pytest.raises(KeyError):
            store.load_record(record.job_id)
        assert store.load_records() == ([], {})


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
