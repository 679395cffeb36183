"""Tests for the overlap benchmark harness."""

import json

from repro.bench.datasets import DatasetSpec, build_dataset
from repro.bench.overlap_bench import (
    SCHEMA,
    OverlapBenchRecord,
    OverlapBenchReport,
    bench_dataset,
)
from repro.simulate.community import GUT_GENERA, CommunityConfig
from repro.simulate.reads import ReadSimConfig

TINY = DatasetSpec(
    name="tiny",
    seed=9,
    community=CommunityConfig(
        taxa=GUT_GENERA[:2], shared_length=400, private_length=300, repeat_copies=0
    ),
    reads=ReadSimConfig(read_length=100, coverage=4.0),
)


def rec(dataset, driver, wall):
    return OverlapBenchRecord(
        dataset=dataset,
        driver=driver,
        wall_s=wall,
        reads_per_s=100.0,
        candidates_verified=10,
        overlaps_found=5,
    )


class TestBenchDataset:
    def test_records_and_agreement(self):
        records, agree = bench_dataset(build_dataset(TINY), workers=2, n_subsets=2)
        assert agree
        assert [r.driver for r in records] == ["serial", "process"]
        serial, proc = records
        assert serial.dataset == "tiny"
        assert serial.overlaps_found == proc.overlaps_found
        assert serial.candidates_verified == proc.candidates_verified
        assert serial.workers == 1 and proc.workers == 2
        assert all(r.wall_s > 0 and r.reads_per_s > 0 for r in records)


class TestReport:
    def test_json_schema(self, tmp_path):
        report = OverlapBenchReport(
            records=[rec("D1", "serial", 2.0), rec("D1", "process", 0.5)],
            metadata={"cpu_count": 1},
        )
        path = tmp_path / "bench.json"
        report.write(str(path))
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA
        assert data["metadata"]["cpu_count"] == 1
        assert len(data["results"]) == 2
        assert set(data["results"][0]) == {
            "dataset",
            "driver",
            "wall_s",
            "reads_per_s",
            "candidates_verified",
            "overlaps_found",
            "workers",
        }
