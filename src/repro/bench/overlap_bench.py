"""Perf-trajectory benchmark for overlap detection (``repro bench overlap``).

Times the serial detector (``serial``) and the multiprocess driver
(``process``) on the standard D1–D3 datasets with ``n_subsets > 1`` —
the only place the overlap pool is timed with more than one work unit —
asserts both produce identical overlap sets, writes the
machine-readable trajectory to ``BENCH_overlap.json``, and prints a
human summary table.  The end-to-end benchmark of record is
``benchmarks/e2e`` (see its README); docs/performance.md explains how
to read this file.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.align.overlapper import OverlapConfig, OverlapDetector
from repro.bench.datasets import BenchDataset, standard_datasets
from repro.bench.reporting import format_table

__all__ = [
    "OverlapBenchRecord",
    "OverlapBenchReport",
    "bench_dataset",
    "run_overlap_bench",
    "main",
]

#: schema of one record in ``BENCH_overlap.json``; bump when fields change.
SCHEMA = "repro.bench.overlap/v2"

DEFAULT_OUTPUT = "BENCH_overlap.json"


@dataclass(frozen=True)
class OverlapBenchRecord:
    """One (dataset, driver) timing measurement."""

    dataset: str
    #: "serial" (in-process) or "process" (worker pool).
    driver: str
    wall_s: float
    reads_per_s: float
    candidates_verified: int
    overlaps_found: int
    workers: int = 1


@dataclass
class OverlapBenchReport:
    """A full bench run: records plus environment metadata."""

    records: list[OverlapBenchRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEMA,
                "metadata": self.metadata,
                "results": [asdict(r) for r in self.records],
            },
            indent=2,
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def summary_table(self) -> str:
        rows = [
            [
                r.dataset,
                r.driver,
                f"{r.wall_s:.3f}",
                f"{r.reads_per_s:.0f}",
                r.candidates_verified,
                r.overlaps_found,
            ]
            for r in self.records
        ]
        return format_table(
            ["Dataset", "Driver", "Wall (s)", "Reads/s", "Candidates", "Overlaps"],
            rows,
        )


def _overlap_key(overlaps) -> list[tuple]:
    return sorted(
        (o.query, o.ref, o.q_start, o.r_start, o.length, o.identity, o.kind.value)
        for o in overlaps
    )


def bench_dataset(
    dataset: BenchDataset,
    workers: int = 4,
    n_subsets: int = 4,
    min_overlap: int = 50,
    repeats: int = 2,
) -> tuple[list[OverlapBenchRecord], bool]:
    """Time both drivers on one dataset.

    Each driver runs ``repeats`` times and reports its best wall time
    (the standard guard against scheduler noise on shared hosts).
    Returns the records plus a drivers-agree flag (identical sorted
    overlap sets from the serial and process paths).
    """
    reads = dataset.reads
    records: list[OverlapBenchRecord] = []
    keys: list[list[tuple]] = []

    def measure(driver: str, run_workers: int):
        config = OverlapConfig(min_overlap=min_overlap, n_subsets=n_subsets)
        detector = OverlapDetector(config)
        wall = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            if run_workers > 1:
                overlaps = detector.find_overlaps_processes(reads, run_workers)
            else:
                overlaps = detector.find_overlaps(reads)
            wall = min(wall, time.perf_counter() - t0)
        records.append(
            OverlapBenchRecord(
                dataset=dataset.name,
                driver=driver,
                wall_s=wall,
                reads_per_s=len(reads) / wall if wall > 0 else 0.0,
                candidates_verified=detector.last_candidates,
                overlaps_found=len(overlaps),
                workers=run_workers if run_workers > 1 else 1,
            )
        )
        keys.append(_overlap_key(overlaps))

    measure("serial", 1)
    measure("process", workers)
    return records, keys[0] == keys[1]


def run_overlap_bench(
    datasets: list[BenchDataset] | None = None,
    workers: int = 4,
    n_subsets: int = 4,
    min_overlap: int = 50,
    repeats: int = 2,
) -> tuple[OverlapBenchReport, bool]:
    """Bench both drivers on all datasets; returns (report, drivers_agree)."""
    if datasets is None:
        datasets = standard_datasets()
    report = OverlapBenchReport(
        metadata={
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "n_subsets": n_subsets,
            "min_overlap": min_overlap,
            "repeats": repeats,
        }
    )
    agree = True
    for dataset in datasets:
        records, dataset_agree = bench_dataset(
            dataset,
            workers=workers,
            n_subsets=n_subsets,
            min_overlap=min_overlap,
            repeats=repeats,
        )
        report.records.extend(records)
        agree = agree and dataset_agree
    return report, agree


def main(
    output: str = DEFAULT_OUTPUT,
    workers: int = 4,
    n_subsets: int = 4,
    dataset_names: list[str] | None = None,
    stream=None,
) -> int:
    """CLI entry point for ``repro bench overlap``.

    Exit codes: 0 ok; 2 the drivers disagreed on an overlap set
    (results written either way).
    """
    stream = stream or sys.stdout
    datasets = standard_datasets()
    if dataset_names:
        wanted = set(dataset_names)
        unknown = wanted - {d.name for d in datasets}
        if unknown:
            print(f"error: unknown datasets {sorted(unknown)}", file=sys.stderr)
            return 2
        datasets = [d for d in datasets if d.name in wanted]
    report, agree = run_overlap_bench(datasets, workers=workers, n_subsets=n_subsets)
    report.write(output)
    print(report.summary_table(), file=stream)
    print(f"wrote {len(report.records)} records to {output}", file=stream)
    if not agree:
        print("FAIL: drivers disagree on overlap sets", file=stream)
        return 2
    return 0
