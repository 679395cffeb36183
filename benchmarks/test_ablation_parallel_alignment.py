"""Ablation — parallel read alignment over subset pairs (paper §II-B).

Focus splits the read set into subsets and farms each subset pair out
to a processor.  This bench measures the virtual runtime of the
``overlap`` stage on 1-8 simulated ranks (D1 reads, 4 subsets = 10
independent pair tasks LPT-packed into one part per rank) through the
generic SPMD driver, and checks the expected speedup shape: gains up
to the task-granularity limit, then saturation.
"""

from repro.align.overlapper import OverlapConfig, OverlapSubject
from repro.bench.reporting import format_series, format_table
from repro.distributed.stages import get_stage, run_stage_on_comm
from repro.mpi.cluster import SimCluster

from conftest import FAST_NET

RANKS = (1, 2, 4, 8)
N_SUBSETS = 4  # -> 10 subset-pair tasks


def test_ablation_parallel_alignment(benchmark, datasets, write_result):
    reads = datasets[0].reads
    config = OverlapConfig(min_overlap=50, n_subsets=N_SUBSETS)
    times = {}
    counts = {}

    def run_all():
        for p in RANKS:
            cluster = SimCluster(p, cost_model=FAST_NET)
            results, stats = cluster.run(
                run_stage_on_comm, get_stage("overlap"), OverlapSubject(reads, config, p)
            )
            times[p] = stats.elapsed
            counts[p] = len(results[0][0])

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    speedups = {p: times[1] / times[p] for p in RANKS}
    table = format_table(
        ["Ranks", "Virtual time (s)", "Speedup"],
        [[p, f"{times[p]:.3f}", f"{speedups[p]:.2f}x"] for p in RANKS],
    )
    series = format_series(
        "alignment_speedup", list(RANKS), [speedups[p] for p in RANKS], "p"
    )
    write_result("ablation_parallel_alignment", table + "\n\n" + series)

    # Same overlaps at every rank count.
    assert len(set(counts.values())) == 1
    # Parallel alignment pays off and keeps paying with more ranks.
    # Ten unequal tasks put error bars on the exact factors. With ranks
    # timed one after another on one thread, 20 runs on a 2-core host
    # read 1.70-2.16x at p=2, 2.62-3.42x at p=4 and 4.18-5.62x at p=8
    # (EXPERIMENTS.md, "The simulated cluster is a schedule"); a rank's
    # whole share at p=8 is ~35 ms, so assert the robust shape only.
    assert speedups[2] > 1.15
    assert speedups[4] > 1.5
    assert speedups[8] > 2.5
    assert speedups[8] > speedups[4] > speedups[2]
