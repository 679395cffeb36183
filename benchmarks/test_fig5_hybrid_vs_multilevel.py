"""Fig. 5 — hybrid vs multilevel graph set partitioning runtime.

Paper: for k in {8, 16, 32, 64}, partitioning the hybrid graph set
took roughly *half* the runtime of partitioning the multilevel graph
set (full un-coarsening to the overlap graph), on every dataset.

Our hybrid graph is relatively even smaller than the paper's (smaller
datasets coarsen further), so the gap is larger; the asserted shape is
the paper's direction — hybrid strictly faster everywhere.

The hybrid route is not free: its graph set has to be built first
(representative selection + one graph per level, the prepared
assembly's ``hybrid`` stage).  That cost is paid once per dataset,
whatever k; the table shows it, and the assertion charges it in full to
every single partitioning: build + hybrid partition must still beat
the multilevel partition.
"""

from repro.bench.reporting import format_table
from repro.partition.multilevel import partition_via_hybrid

from conftest import K_SWEEP


def test_fig5_hybrid_vs_multilevel_runtime(
    benchmark, prepared, partition_sweep, write_result
):
    rows = []
    for name, prep in prepared.items():
        t_build = prep.timer.durations["hybrid"]
        for k in K_SWEEP:
            runs = partition_sweep[(name, k)]
            t_h = runs["hybrid"].wall_time
            t_m = runs["multilevel"].wall_time
            rows.append(
                [name, k, f"{t_build:.3f}", f"{t_h:.3f}", f"{t_m:.3f}", f"{t_m / t_h:.1f}x"]
            )
    table = format_table(
        [
            "Data set",
            "Partitions",
            "Hybrid build (s)",
            "Hybrid (s)",
            "Multilevel (s)",
            "Ratio",
        ],
        rows,
    )
    write_result("fig5_hybrid_vs_multilevel", table)

    # Shape: hybrid partitioning beats full un-coarsening everywhere
    # (paper: ~2x; here the hybrid graph is proportionally smaller) —
    # even when each partitioning pays for building the hybrid set.
    for name, prep in prepared.items():
        t_build = prep.timer.durations["hybrid"]
        for k in K_SWEEP:
            runs = partition_sweep[(name, k)]
            assert t_build + runs["hybrid"].wall_time < runs["multilevel"].wall_time, (
                f"{name} k={k}: hybrid build + partition not faster"
            )

    # Benchmark one representative hybrid partitioning call.
    prep = next(iter(prepared.values()))
    benchmark.pedantic(
        partition_via_hybrid,
        args=(prep.mls, prep.hyb, 16),
        kwargs={"seed": 1},
        rounds=1,
        iterations=1,
    )
