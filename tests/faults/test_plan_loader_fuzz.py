"""Loader fuzzing: a damaged ``--fault-plan`` file loads or names the file.

Every truncation and single-bit flip of a plan file makes the CLI's
plan loader either return a plan or raise a ``ValueError`` whose
message holds the file's path.  A misspelt key is refused rather than
loaded as a plan that silently injects nothing.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _parse_fault_plan
from repro.core.focus import FINISH_STAGES
from repro.faults import FaultPlan, KernelFault
from repro.io.codec import encode

from tests.fuzz import assert_typed, damaged

PLAN = FaultPlan(
    seed=3,
    kernel_faults=(
        KernelFault("crash", "transitive", 1),
        KernelFault("error", "*", 0, attempts=2),
    ),
    hang_seconds=2.0,
)
BLOB = json.dumps(encode(PLAN), indent=2).encode()


def load(tmp_path, blob: bytes):
    path = tmp_path / "plan.json"
    path.write_bytes(blob)
    return str(path), _parse_fault_plan(str(path), FINISH_STAGES, 4)


def test_pristine_plan_loads(tmp_path):
    assert load(tmp_path, BLOB)[1] == PLAN


@pytest.fixture(scope="module")
def plan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("plan")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_plan_loads_or_names_the_file(plan_dir, data):
    blob = damaged(BLOB, data)
    try:
        _, plan = load(plan_dir, blob)
    except ValueError as exc:
        assert str(plan_dir / "plan.json") in str(exc)
    else:
        assert_typed(plan)


@pytest.mark.parametrize(
    "blob",
    [
        b'{"faults": [{"kind": "crash", "stage": "transitive", "part": 1}]}',
        b"\xff{}",
        b"[1]",
        b'{"kernel_faults": [{"kind": "melt", "stage": "transitive", "part": 1}]}',
        b'{"kernel_faults": 5}',
    ],
    ids=["misspelt-key", "not-utf8", "not-an-object", "bad-kind", "not-a-list"],
)
def test_malformed_plan_is_refused_naming_the_file(tmp_path, blob):
    with pytest.raises(ValueError) as info:
        load(tmp_path, blob)
    assert str(tmp_path / "plan.json") in str(info.value)
