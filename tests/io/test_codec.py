"""The JSON codec of every on-disk record (``repro.io.codec``).

Each record class round-trips through JSON for hypothesis-built
instances, and a file in which any one leaf has a value of the wrong
JSON type, or an object carries an unknown key, is refused with a
``ValueError`` naming that dotted key.  The leaves come from walking
the dataclass fields, so a field added later is covered by itself.
"""

import dataclasses
import json
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.overlapper import OverlapConfig
from repro.core.config import AssemblyConfig
from repro.faults import KERNEL_FAULT_KINDS, FaultPlan, KernelFault, RetryPolicy
from repro.graph.coarsen import CoarsenConfig
from repro.io.codec import decode, encode
from repro.partition.recursive import PartitionConfig
from repro.service.jobs import JOB_STATES, JobRecord, JobSpec
from repro.service.lease import Lease
from repro.store.manifest import ShardInfo, StoreManifest

from tests.fuzz import assert_typed, optional

RECORDS = [
    AssemblyConfig, OverlapConfig, CoarsenConfig, PartitionConfig, RetryPolicy,
    FaultPlan, KernelFault, JobSpec, JobRecord, Lease, ShardInfo, StoreManifest,
]

FRACTION = st.floats(0.01, 0.99)
#: fields whose ``__post_init__`` takes only some values of their type;
#: every other int is >= 1 and every other float >= 1.0, which meets
#: each remaining lower bound.
CHOICES = {
    "OverlapConfig.min_identity": FRACTION,
    "OverlapConfig.method": st.sampled_from(["ungapped", "banded_nw"]),
    "CoarsenConfig.min_reduction": FRACTION,
    "RetryPolicy.backoff_base": FRACTION,
    "RetryPolicy.jitter": FRACTION,
    "AssemblyConfig.n_partitions": st.sampled_from([1, 2, 4, 8]),
    "AssemblyConfig.partition_mode": st.sampled_from(["hybrid", "multilevel"]),
    "AssemblyConfig.backend": st.sampled_from(["serial", "sim", "process"]),
    "KernelFault.kind": st.sampled_from(KERNEL_FAULT_KINDS),
    "JobRecord.state": st.sampled_from(JOB_STATES),
}
#: the rules that tie two fields of one record together.
TIES = {
    AssemblyConfig: lambda kw: kw if kw["fault_plan"] is None else {**kw, "backend": "process"},
    JobSpec: lambda kw: {
        **kw,
        "reads_path": None if kw["config"].store_path is not None else kw["reads_path"] or "r.fq",
    },
}
SCALARS = {
    bool: st.booleans(),
    int: st.integers(1, 2**53),
    float: st.floats(1.0, 1e9),
    str: st.text(max_size=8),
    dict: st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3),
}
#: one value of each JSON type.
JSON_VALUES = {
    "string": "x", "integer": 7, "number": 2.5, "boolean": True,
    "list": [], "object": {}, "null": None,
}


def field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def values_of(kind):
    inner, nullable = optional(kind)
    origin = typing.get_origin(inner)
    if dataclasses.is_dataclass(inner):
        strategy = instances(inner)
    elif origin in (tuple, list):
        strategy = st.lists(values_of(typing.get_args(inner)[0]), max_size=3).map(origin)
    else:
        strategy = SCALARS[inner]
    return st.none() | strategy if nullable else strategy


def instances(cls):
    kwargs = {
        name: CHOICES.get(f"{cls.__name__}.{name}", values_of(kind))
        for name, kind in field_types(cls).items()
    }
    return st.fixed_dictionaries(kwargs).map(TIES.get(cls, dict)).map(lambda kw: cls(**kw))


def accepts(kind, value) -> bool:
    """Whether ``value`` has the JSON type of a field of type ``kind``."""
    inner, nullable = optional(kind)
    if value is None:
        return nullable
    origin = typing.get_origin(inner)
    if dataclasses.is_dataclass(inner) or inner is dict:
        return isinstance(value, dict)
    if origin in (tuple, list):
        return isinstance(value, list)
    if inner is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, inner) and (inner is bool or not isinstance(value, bool))


def fields_of(cls, payload, key="", path=()):
    """``(dotted key, type, path into payload)`` of every field of the
    encoded ``cls`` record ``payload``, nested records and their list
    items included."""
    for name, kind in field_types(cls).items():
        sub, at = f"{key}.{name}" if key else name, (*path, name)
        yield sub, kind, at
        inner, _ = optional(kind)
        value = payload[name]
        if dataclasses.is_dataclass(inner) and value is not None:
            yield from fields_of(inner, value, sub, at)
        elif typing.get_origin(inner) in (tuple, list):
            item = typing.get_args(inner)[0]
            if dataclasses.is_dataclass(item):
                for i, entry in enumerate(value):
                    yield f"{sub}[{i}]", item, (*at, i)
                    yield from fields_of(item, entry, f"{sub}[{i}]", (*at, i))


def replaced(payload, path, value):
    copy = json.loads(json.dumps(payload))
    target = copy
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return copy


def refused(cls, data, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        decode(cls, data)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip(cls, data):
    record = data.draw(instances(cls))
    loaded = decode(cls, json.loads(json.dumps(encode(record))))
    assert loaded == record
    assert_typed(loaded)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_wrong_typed_leaf_is_refused_by_key(cls, data):
    payload = encode(data.draw(instances(cls)))
    for key, kind, path in fields_of(cls, payload):
        for value in JSON_VALUES.values():
            if not accepts(kind, value):
                refused(cls, replaced(payload, path, value), key)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_unknown_key_is_refused_at_every_level(cls, data):
    payload = encode(data.draw(instances(cls)))
    refused(cls, {**payload, "colour": 1}, "colour")
    for key, kind, path in fields_of(cls, payload):
        inner, _ = optional(kind)
        target = payload
        for step in path:
            target = target[step]
        if dataclasses.is_dataclass(inner) and target is not None:
            refused(cls, replaced(payload, path, {**target, "colour": 1}), f"{key}.colour")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("value", [v for v in JSON_VALUES.values() if v != {}], ids=str)
def test_a_record_is_a_json_object(cls, value):
    with pytest.raises(ValueError, match=f"{cls.__name__} must be a JSON object"):
        decode(cls, value)


class TestLoadingRules:
    @pytest.mark.parametrize(
        "cls, data, message",
        [
            # Loaded unchecked, this record made Supervisor.poll_once
            # raise TypeError when it sorted the queue by -priority.
            (JobRecord, {"job_id": "x", "priority": "5"}, "'priority' must be an integer"),
            (RetryPolicy, {"max_attempts": 2.5}, "'max_attempts' must be an integer"),
            (RetryPolicy, {"task_deadline": True}, "'task_deadline' must be a number"),
        ],
    )
    def test_formerly_unchecked_leaves_are_refused(self, cls, data, message):
        with pytest.raises(ValueError, match=message):
            decode(cls, data)

    def test_integer_is_a_float_and_null_fills_an_optional(self):
        policy = decode(RetryPolicy, {"backoff_cap": 2, "task_deadline": None})
        assert policy == RetryPolicy(backoff_cap=2.0, task_deadline=None)

    def test_post_init_and_missing_fields_are_value_errors_by_key(self):
        with pytest.raises(ValueError, match="malformed 'config.retry': max_attempts must be >= 1"):
            decode(JobSpec, {"reads_path": "r.fq", "config": {"retry": {"max_attempts": 0}}})
        with pytest.raises(ValueError, match="malformed Lease: .*'owner'"):
            decode(Lease, {})
        with pytest.raises(ValueError, match=r"malformed 'shards\[1\]': .*'nbytes'"):
            decode(StoreManifest, {"kind": "reads", "shard_size": 1, "shards": [
                {"name": "a", "n_records": 1, "nbytes": 2}, {"name": "b", "n_records": 1},
            ]})

    def test_omitted_keys_take_defaults(self):
        assert decode(FaultPlan, {}) == FaultPlan()
        assert decode(JobRecord, {"job_id": "j"}) == JobRecord(job_id="j")

    def test_encode_is_asdict_with_tuples_as_json_lists(self):
        plan = FaultPlan(kernel_faults=(KernelFault("crash", "*", 0),))
        assert json.loads(json.dumps(encode(plan))) == {
            "seed": 0,
            "kernel_faults": [{"kind": "crash", "stage": "*", "part": 0, "attempts": 1}],
            "hang_seconds": 30.0,
        }

    def test_assert_typed_names_a_mistyped_leaf(self):
        with pytest.raises(AssertionError, match="record.priority"):
            assert_typed(JobRecord(job_id="x", priority="5"))
        retry = RetryPolicy(max_attempts=True)
        with pytest.raises(AssertionError, match=r"record.config.retry.max_attempts"):
            assert_typed(JobSpec(reads_path="r", config=AssemblyConfig(retry=retry)))
