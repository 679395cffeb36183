"""Standard datasets D1-D3 and table formatting for the paper benchmarks."""

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
