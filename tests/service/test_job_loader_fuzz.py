"""Loader fuzzing: a damaged job file loads or is refused naming the file.

Every truncation and single-bit flip of a job's ``spec.json`` or
``journal.jsonl`` makes ``JobStore.load_spec`` / ``load_record`` either
return a job or raise a ``ValueError`` whose message holds the file's
path — never a bare ``TypeError``/``UnicodeDecodeError``, and never a
job whose fields have the wrong type (``assert_typed``).  A journal
cut short before its first newline holds no complete line: that is a
submit still in progress, and ``load_record`` raises ``KeyError``.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AssemblyConfig
from repro.faults import RetryPolicy
from repro.io.codec import decode
from repro.service import JobSpec, JobStore
from repro.service.jobstore import JOURNAL_NAME, SPEC_NAME

from tests.fuzz import assert_typed, damaged


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    store = JobStore(str(tmp_path_factory.mktemp("fuzz") / "jobs"), create=True)
    spec = JobSpec(
        name="fz",
        reads_path="reads.fastq",
        config=AssemblyConfig(
            n_partitions=2, retry=RetryPolicy(max_attempts=4, jitter=0.5)
        ),
        deadline=60.0,
    )
    job_id = store.submit(spec, now=1.0).job_id
    store.transition(job_id, "leased", now=2.0, info={"owner": "fz"})
    store.transition(job_id, "running", now=3.0, stage="enrich")
    return store, job_id


LOADERS = {SPEC_NAME: "load_spec", JOURNAL_NAME: "load_record"}


def load_damaged(store, job_id, name, blob):
    """Write ``blob`` as the job's ``name`` file and load it; restore after."""
    path = os.path.join(store.job_dir(job_id), name)
    with open(path, "rb") as fh:
        pristine = fh.read()
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
        return getattr(store, LOADERS[name])(job_id)
    finally:
        with open(path, "wb") as fh:
            fh.write(pristine)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_damaged_job_file_loads_or_names_the_file(job, name, data):
    store, job_id = job
    path = os.path.join(store.job_dir(job_id), name)
    with open(path, "rb") as fh:
        blob = damaged(fh.read(), data)
    try:
        loaded = load_damaged(store, job_id, name, blob)
    except ValueError as exc:
        assert path in str(exc)
    except KeyError:
        assert name == JOURNAL_NAME and b"\n" not in blob
    else:
        assert_typed(loaded)


@pytest.mark.parametrize(
    "blob",
    [
        b"[1]",
        b"\xff\xfe{}",
        b'{"reads_path": "r.fq", "colour": "red"}',
        b'{"reads_path": "r.fq", "config": {"n_partitions": 2, "colour": 1}}',
        b'{"reads_path": "r.fq", "config": {"overlap": {"colour": 1}}}',
        b'{"reads_path": "r.fq", "config": {"retry": 5}}',
        b'{"reads_path": "r.fq", "config": {"retry": {"max_attempts": 0}}}',
        b'{"reads_path": "r.fq", "config": {"n_partitions": "2"}}',
        b'{"reads_path": "r.fq", "config": {"run_trimming": "false"}}',
        b'{"reads_path": "r.fq", "config": 5}',
    ],
    ids=[
        "not-an-object",
        "not-utf8",
        "unknown-field",
        "unknown-config-field",
        "unknown-nested-field",
        "int-retry",
        "bad-retry",
        "string-partitions",
        "string-bool",
        "int-config",
    ],
)
def test_malformed_spec_is_refused_naming_the_file(job, blob):
    store, job_id = job
    with pytest.raises(ValueError) as info:
        load_damaged(store, job_id, SPEC_NAME, blob)
    assert os.path.join(store.job_dir(job_id), SPEC_NAME) in str(info.value)


@pytest.mark.parametrize(
    "blob",
    [
        b"[1]",
        b"\xc3",
        b'{"job_id": "x", "colour": 1}',
        b'{"job_id": "x", "priority": "5", "not_before": "soon"}',
        b'{"job_id": "x", "state": "zombie"}',
    ],
)
def test_malformed_record_is_refused_naming_the_file(job, blob):
    store, job_id = job
    path = os.path.join(store.job_dir(job_id), JOURNAL_NAME)
    with open(path, "rb") as fh:
        journal = fh.read()
    line = b'{"info": {}, "prior": "running", "record": ' + blob + b"}\n"
    with pytest.raises(ValueError) as info:
        load_damaged(store, job_id, JOURNAL_NAME, journal + line)
    assert f"{path!r} line 4:" in str(info.value)


def test_pristine_files_still_load(job):
    store, job_id = job
    spec = store.load_spec(job_id)
    assert spec.config.retry == RetryPolicy(max_attempts=4, jitter=0.5)
    assert store.load_record(job_id).job_id == job_id
    with open(os.path.join(store.job_dir(job_id), SPEC_NAME)) as fh:
        assert decode(JobSpec, json.load(fh)) == spec
