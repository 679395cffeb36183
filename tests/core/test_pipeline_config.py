"""Unit tests for StageTimer and AssemblyConfig."""

import json
import time

import pytest

from repro.core.config import AssemblyConfig
from repro.core.pipeline import StageTimer
from repro.faults import FaultPlan, KernelFault


class TestStageTimer:
    def test_stage_records(self):
        t = StageTimer()
        with t.stage("a"):
            time.sleep(0.01)
        assert t.durations["a"] >= 0.01
        assert t.total == pytest.approx(t.durations["a"])

    def test_stage_accumulates(self):
        t = StageTimer()
        with t.stage("a"):
            pass
        first = t.durations["a"]
        with t.stage("a"):
            time.sleep(0.005)
        assert t.durations["a"] > first

    def test_record_external(self):
        t = StageTimer()
        t.record("virtual", 1.5)
        assert t.durations["virtual"] == 1.5

    def test_record_negative(self):
        with pytest.raises(ValueError):
            StageTimer().record("x", -1)

    def test_report(self):
        t = StageTimer()
        t.record("align", 2.0)
        rep = t.report()
        assert "align" in rep and "total" in rep

    def test_report_empty(self):
        assert "no stages" in StageTimer().report()

    def test_exception_still_recorded(self):
        t = StageTimer()
        with pytest.raises(RuntimeError):
            with t.stage("boom"):
                raise RuntimeError
        assert "boom" in t.durations

    def test_to_json_stages_and_total(self):
        t = StageTimer()
        t.record("align", 2.0)
        t.record("trim", 0.5)
        payload = json.loads(t.to_json())
        assert payload["stages"] == {"align": 2.0, "trim": 0.5}
        assert payload["total"] == pytest.approx(2.5)

    def test_to_json_metadata_tags(self):
        t = StageTimer()
        t.record("align", 1.0)
        payload = json.loads(
            t.to_json(backend="process", distributed={"time_kind": "wall"})
        )
        assert payload["backend"] == "process"
        assert payload["distributed"]["time_kind"] == "wall"


class TestAssemblyConfig:
    def test_defaults_valid(self):
        AssemblyConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_partitions=3),
            dict(n_partitions=0),
            dict(partition_mode="metis"),
            dict(min_read_length=0),
            dict(backend="threads"),
            dict(backend_workers=-1),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            AssemblyConfig(**kw)

    @pytest.mark.parametrize("backend", ["serial", "sim", "process"])
    def test_backend_names_accepted(self, backend):
        assert AssemblyConfig(backend=backend).backend == backend

    def test_fault_plan_needs_the_process_backend(self):
        plan = FaultPlan(kernel_faults=(KernelFault("error", "*", 0),))
        assert AssemblyConfig(backend="process", fault_plan=plan).fault_plan == plan
        for backend in ("serial", "sim"):
            with pytest.raises(ValueError, match="process workers"):
                AssemblyConfig(backend=backend, fault_plan=plan)
