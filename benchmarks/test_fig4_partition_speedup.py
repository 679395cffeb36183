"""Fig. 4 — graph partitioning speedup vs processor count.

Paper: partitioning each hybrid graph set into 16 partitions with an
increasing number of processors; speedup rises and levels off around
8-10 processors (2^(log2 16 - 1) = 8 concurrent bisection tasks in the
widest step, ~10 graph levels in the k-way refinement stage).  Each
point averages three runs (random greedy-growing seeds vary runtimes).

Here every bisection/k-way task's serial duration is *measured* during
real partitioning runs, and T(p) comes from replaying the task DAG on
p processors with LPT list scheduling (see repro.mpi.schedule) — the
deterministic form of the paper's processor assignment, immune to the
sub-millisecond thread-timing noise of our much smaller graphs.  It is
the one path: no partitioner runs on SimCluster ranks.
"""

import numpy as np

from repro.bench.reporting import format_series, format_table
from repro.mpi.schedule import speedup_curve
from repro.partition.multilevel import partition_via_hybrid

K_PARTS = 16
PROCS = (1, 2, 4, 6, 8, 10, 12, 16)
RUNS = 3


def _mean_speedups(prep):
    per_run = []
    for r in range(RUNS):
        result = partition_via_hybrid(prep.mls, prep.hyb, K_PARTS, seed=r)
        per_run.append(dict(speedup_curve(result.tasks, PROCS)))
    return {p: float(np.mean([run[p] for run in per_run])) for p in PROCS}


def test_fig4_partition_speedup(benchmark, prepared, write_result):
    curves = {}

    def run_all():
        for name, prep in prepared.items():
            curves[name] = _mean_speedups(prep)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    lines = []
    for name, speedups in curves.items():
        rows.append([name] + [f"{speedups[p]:.2f}x" for p in PROCS])
        lines.append(
            format_series(f"speedup_{name}", list(PROCS), [speedups[p] for p in PROCS], "p")
        )
    table = format_table(["Data set"] + [f"p={p}" for p in PROCS], rows)
    write_result("fig4_partition_speedup", table + "\n\n" + "\n\n".join(lines))

    for name, s in curves.items():
        assert s[1] == 1.0
        # Rising region: real parallel gains by 8 processors.  The
        # magnitude is Amdahl-bounded by the serial step-0 bisection
        # (~35% of the work on our small hybrid graphs), so assert the
        # paper's *shape* — clear gains, monotone rise — not its scale.
        assert s[8] > 1.25, f"{name}: speedup at p=8 only {s[8]:.2f}"
        assert s[8] > s[2] > s[1], f"{name}: curve not rising"
        assert s[4] > 1.2, f"{name}: no gain at p=4"
        # Saturation: the paper's levelling-off at ~8-10 processors.
        assert s[16] <= 1.3 * s[8], f"{name}: no saturation ({s[16]:.2f} vs {s[8]:.2f})"
