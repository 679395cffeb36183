"""Unit tests for StageTimer and AssemblyConfig."""

import json
import time

import numpy as np
import pytest

from repro.align.overlapper import OverlapConfig
from repro.core.config import AssemblyConfig
from repro.core.pipeline import StageTimer
from repro.faults import FaultPlan, KernelFault, RetryPolicy
from repro.graph.coarsen import CoarsenConfig
from repro.io.codec import decode, encode
from repro.partition.recursive import PartitionConfig


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


class TestSpanTree:
    def test_stages_nest_and_durations_stay_flat(self):
        t = StageTimer()
        with t.stage("outer", part=1):
            with t.stage("inner"):
                t.count("bases", 3)
                t.count("bases", 4)
            t.count("blocks")
        outer, inner = t.spans
        assert (outer.parent, inner.parent) == (None, outer.id)
        assert outer.tags == {"part": 1} and outer.counts == {"blocks": 1}
        assert inner.counts == {"bases": 7}
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert list(t.durations) == ["outer"]

    def test_count_needs_an_open_span(self):
        with pytest.raises(ValueError, match="outside any stage"):
            StageTimer().count("bases", 1)

    def test_record_within_starts_with_its_parent(self):
        t = StageTimer()
        outer = t.record("trim", 2.0)
        inner = t.record("transitive", 0.5, within=outer, clock="virtual")
        assert inner.parent == outer.id and inner.start == outer.start
        assert inner.end - inner.start == pytest.approx(0.5)
        assert inner.tags == {"clock": "virtual"}
        assert t.durations == {"trim": pytest.approx(2.0)}

    def test_to_jsonl_one_span_a_line(self):
        t = StageTimer()
        with t.stage("contigs"):
            t.count("blocks", np.int64(2))
        (line,) = t.to_jsonl().splitlines()
        span = json.loads(line)
        assert span["name"] == "contigs" and span["parent"] is None
        assert span["counts"] == {"blocks": 2} and span["tags"] == {}
        assert span["end"] >= span["start"]


def every_field_set() -> AssemblyConfig:
    """A config whose every field, nested ones too, is not the default."""
    return AssemblyConfig(
        trim5=1,
        trim3=2,
        quality_window=7,
        quality_step=2,
        min_quality=20.5,
        min_read_length=40,
        add_reverse_complements=False,
        overlap=OverlapConfig(
            k=12, min_kmer_hits=2, min_overlap=40, min_identity=0.85, n_subsets=4,
        ),
        coarsen=CoarsenConfig(min_nodes=32, min_reduction=0.1, max_levels=5),
        partition=PartitionConfig(
            edge_balance=1.1, stall_window=20, kl_max_passes=3,
            kway_max_passes=2, kway_balance=1.2, run_kway=False,
        ),
        overlap_workers=2,
        backend="process",
        backend_workers=3,
        retry=RetryPolicy(
            max_attempts=5, backoff_base=0.1, backoff_cap=2.0, task_deadline=None,
            fallback_serial=False, jitter=0.5, jitter_seed=9,
        ),
        fault_plan=FaultPlan(
            seed=4, kernel_faults=(KernelFault("crash", "bubbles", 1, 2),), hang_seconds=5.0
        ),
        layout_tolerance=1,
        quality_weighted_consensus=True,
        store_path="/data/reads.store",
        cache_budget=1 << 20,
        n_partitions=8,
        partition_mode="multilevel",
        transitive_tolerance=3,
        containment_min_overlap=60,
        containment_min_identity=0.95,
        max_tip_bases=200,
        run_trimming=False,
        seed=7,
    )


def flat(data: dict, prefix: str = ""):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from flat(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


class TestConfigDict:
    def test_every_field_is_set(self):
        defaults = dict(flat(encode(AssemblyConfig())))
        same = [k for k, v in flat(encode(every_field_set())) if defaults.get(k) == v]
        assert same == []

    @pytest.mark.parametrize("config", [AssemblyConfig(), every_field_set()], ids=["default", "every-field"])
    def test_json_round_trip(self, config):
        assert decode(AssemblyConfig, json.loads(json.dumps(encode(config)))) == config

    def test_omitted_keys_take_defaults(self):
        assert decode(AssemblyConfig, {"partition": {"run_kway": False}}) == AssemblyConfig(
            partition=PartitionConfig(run_kway=False)
        )

    def test_seed_is_the_one_assembly_seed(self):
        leaves = dict(flat(encode(AssemblyConfig())))
        assert len(leaves) == 44
        assert sorted(k for k in leaves if "seed" in k) == ["retry.jitter_seed", "seed"]

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"colour": 1}, "'colour'"),
            ({"overlap": {"colour": 1}}, "'overlap.colour'"),
            ({"coarsen": {"colour": 1}}, "'coarsen.colour'"),
            ({"retry": {"colour": 1}}, "'retry.colour'"),
            ({"backend": "process", "fault_plan": {"colour": 1}}, "'fault_plan.colour'"),
            # The seeds and coarsening rules of older configs are gone.
            ({"coarsen": {"seed": 3}}, "'coarsen.seed'"),
            ({"partition": {"seed": 5}}, "'partition.seed'"),
            ({"partition": {"coarsen": {}}}, "'partition.coarsen'"),
            # So are the banded verifier's knobs and the dedupe switch.
            ({"overlap": {"method": "ungapped"}}, "'overlap.method'"),
            ({"overlap": {"band": 5}}, "'overlap.band'"),
            ({"dedupe_rc": True}, "'dedupe_rc'"),
        ],
        ids=[
            "top", "overlap", "coarsen", "retry", "fault_plan",
            "coarsen.seed", "partition.seed", "partition.coarsen",
            "overlap.method", "overlap.band", "dedupe_rc",
        ],
    )
    def test_unknown_key_is_refused_by_name(self, data, key):
        with pytest.raises(ValueError, match=key):
            decode(AssemblyConfig, data)

    @pytest.mark.parametrize(
        "data, key",
        [
            ([], "JSON object"),
            ({"overlap": 5}, "overlap"),
            ({"retry": 5}, "retry"),
            ({"fault_plan": []}, "fault_plan"),
            ({"n_partitions": "4"}, "n_partitions"),
            # A JSON type that Python would coerce is refused too.
            ({"run_trimming": "false"}, "run_trimming"),
            ({"add_reverse_complements": 0}, "add_reverse_complements"),
            ({"max_tip_bases": "150"}, "max_tip_bases"),
            ({"n_partitions": True}, "n_partitions"),
            ({"containment_min_identity": "0.9"}, "containment_min_identity"),
            ({"partition": {"run_kway": "false"}}, "partition.run_kway"),
            ({"retry": {"fallback_serial": "no"}}, "fallback_serial"),
            ({"seed": 1.5}, "seed"),
            ({"store_path": 5}, "store_path"),
        ],
        ids=[
            "list", "int-overlap", "int-retry", "list-fault-plan", "string-partitions",
            "string-bool", "int-bool", "string-int", "bool-int", "string-float",
            "nested-string-bool", "retry-string-bool", "float-seed", "int-path",
        ],
    )
    def test_malformed_dict_is_a_value_error(self, data, key):
        with pytest.raises(ValueError, match=key):
            decode(AssemblyConfig, data)

    @pytest.mark.parametrize("data", [{"containment_min_identity": 1}, {"store_path": None}])
    def test_json_number_and_null_load(self, data):
        assert decode(AssemblyConfig, data) == AssemblyConfig(**data)


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
            dict(seed=-1),
            dict(seed=True),
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
