"""Benchmark harness: standard datasets, runners, and table formatting."""

from repro.bench.datasets import (
    BenchDataset,
    DatasetSpec,
    STANDARD_SPECS,
    build_dataset,
    standard_datasets,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "DatasetSpec",
    "BenchDataset",
    "STANDARD_SPECS",
    "build_dataset",
    "standard_datasets",
    "format_table",
    "format_series",
]
