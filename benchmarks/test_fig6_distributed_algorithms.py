"""Fig. 6 — distributed graph trimming and traversal runtimes.

Paper: the distributed trimming pass (transitive reduction, dead-end
trimming, bubble popping, containment removal) gets markedly faster as
the hybrid graph is split over 8 -> 64 partitions; graph traversal is
very cheap and roughly flat in the partition count.

Here each stage runs on the simulated cluster with one rank per
partition; plotted runtimes are virtual elapsed seconds, the median of
``RUNS`` repetitions.  To give the workers non-trivial per-rank work we
trim a *lightly coarsened* hybrid graph (few coarsening levels keep
thousands of nodes) — the paper's hybrid graphs likewise hold far more
nodes per partition than our default benchmark datasets produce.

Status: the simulated cluster runs its ranks one after another on one
thread, so each rank's kernel is timed with no other rank competing for
the cores.  The whole trim pass on these ~3,220-node graphs takes
2.5-3.7 virtual ms at k = 8 and 1.5-2.1 at k = 64 (per-call numpy
overhead, not partition work), and each sub-millisecond kernel is timed
once, so the strong-scaling assertion below does not hold in every run
on this input: it passed 18 of 20 runs on a 2-core host, both failures
on "trimming did not speed up".  The input and the assertions are
deliberately unchanged.  EXPERIMENTS.md has the numbers and ROADMAP
open item 10 the follow-up (repeated timing of sub-millisecond parts,
an input with per-rank work).
"""

import numpy as np
import pytest

from repro.bench.reporting import format_table
from repro.core import AssemblyConfig, finish_plan, run_plan
from repro.distributed.dgraph import DistributedAssemblyGraph, enrich_hybrid
from repro.graph.coarsen import CoarsenConfig, build_multilevel_set
from repro.graph.hybrid import build_hybrid_set
from repro.parallel.backend import create_backend
from repro.partition.multilevel import partition_via_hybrid

from conftest import FAST_NET, K_SWEEP

RUNS = 5


@pytest.fixture(scope="module")
def big_hybrids(prepared):
    """name -> (HybridAssembly, hybrid set) with light coarsening."""
    out = {}
    for name, prep in prepared.items():
        mls = build_multilevel_set(prep.g0, CoarsenConfig(max_levels=3))
        hyb = build_hybrid_set(mls, prep.reads.lengths)
        asm = enrich_hybrid(hyb, prep.g0, prep.reads)
        out[name] = (mls, hyb, asm)
    return out


def _run_stages(mls, hyb, asm, k):
    """Median (trim, traversal) virtual seconds over RUNS repetitions."""
    part = partition_via_hybrid(mls, hyb, k)
    trims, travs = [], []
    for _ in range(RUNS):
        dag = DistributedAssemblyGraph(asm, part.labels_finest)
        with create_backend("sim", dag, cost_model=FAST_NET) as runner:
            outcomes = run_plan(runner, finish_plan(AssemblyConfig()))
        travs.append(outcomes.pop("traversal").elapsed)
        trims.append(sum(out.elapsed for out in outcomes.values()))
    return float(np.median(trims)), float(np.median(travs))


def test_fig6_distributed_algorithms(benchmark, big_hybrids, write_result):
    results = {}

    def run_all():
        for name, (mls, hyb, asm) in big_hybrids.items():
            for k in K_SWEEP:
                results[(name, k)] = _run_stages(mls, hyb, asm, k)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [name, k, f"{results[(name, k)][0] * 1e3:.2f}", f"{results[(name, k)][1] * 1e3:.2f}"]
        for name in big_hybrids
        for k in K_SWEEP
    ]
    sizes = {name: big_hybrids[name][1].hybrid.n_nodes for name in big_hybrids}
    table = format_table(
        ["Data set", "Partitions", "Trimming (virtual ms)", "Traversal (virtual ms)"], rows
    )
    table += "\nhybrid graph sizes: " + ", ".join(f"{n}={s}" for n, s in sizes.items())
    write_result("fig6_distributed_algorithms", table)

    for name in big_hybrids:
        trims = np.array([results[(name, k)][0] for k in K_SWEEP])
        travs = np.array([results[(name, k)][1] for k in K_SWEEP])
        # Trimming gets faster with more partitions (paper: steep drop).
        assert trims[-1] < 0.75 * trims[0], f"{name}: trimming did not speed up {trims}"
        # Traversal is much cheaper than trimming and roughly flat.
        assert travs[0] < 0.6 * trims[0], f"{name}: traversal not cheap {travs[0]} vs {trims[0]}"
        assert travs.max() < 8 * max(travs.min(), 1e-6), f"{name}: traversal not flat {travs}"
