"""Shared fixtures for the paper-reproduction benchmarks.

The expensive, partition-count-independent pipeline stages (dataset
generation, read alignment, graph/hybrid construction) run once per
session and are shared by every bench.  Each bench writes the table or
figure series it regenerates into ``benchmarks/results/`` so the
numbers quoted in EXPERIMENTS.md are reproducible artifacts; its first
line names the host that recorded them.
"""

from __future__ import annotations

import datetime
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.bench.datasets import standard_datasets
from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.mpi.timing import CommCostModel

RESULTS_DIR = Path(__file__).parent / "results"

#: fast interconnect model so sub-millisecond compute tasks are not
#: swamped by synthetic latency.
FAST_NET = CommCostModel(alpha=1e-6, beta=1e-9)


@pytest.fixture(scope="session")
def datasets():
    """The three standard gut-community datasets D1-D3 (Table I)."""
    return standard_datasets()


@pytest.fixture(scope="session")
def assembler():
    return FocusAssembler(AssemblyConfig(), cost_model=FAST_NET)


@pytest.fixture(scope="session")
def prepared(datasets, assembler):
    """name -> PreparedAssembly, aligned and graph-built once."""
    return {ds.name: assembler.prepare(ds.reads) for ds in datasets}


K_SWEEP = (8, 16, 32, 64)


@pytest.fixture(scope="session")
def partition_sweep(prepared):
    """(dataset, k) -> {'hybrid': PartitionResult, 'multilevel': ...}.

    The Fig. 5 / Table II runs: each dataset's hybrid and multilevel
    graph sets partitioned into 8, 16, 32 and 64 parts.
    """
    from repro.partition.multilevel import partition_via_hybrid, partition_via_multilevel

    out = {}
    for name, prep in prepared.items():
        for k in K_SWEEP:
            out[(name, k)] = {
                "hybrid": partition_via_hybrid(prep.mls, prep.hyb, k),
                "multilevel": partition_via_multilevel(prep.mls, k),
            }
    return out


def host_stamp() -> str:
    """One line: the host's CPU count and load, the Python and numpy
    versions and the UTC date, so absolute times say where they ran."""
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    today = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    return (
        f"# host: cpu_count {os.cpu_count()}, loadavg {load}, "
        f"python {platform.python_version()}, numpy {np.__version__}, {today} UTC"
    )


@pytest.fixture(scope="session")
def write_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(f"{host_stamp()}\n{text}\n", encoding="utf-8")
        print(f"\n=== {name} ===\n{text}\n")

    return _write
