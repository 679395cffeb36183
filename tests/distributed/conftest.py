"""Fixtures for distributed-algorithm tests."""

import numpy as np
import pytest

from repro.distributed.dgraph import DistributedAssemblyGraph, HybridAssembly
from repro.distributed.stages import get_stage, run_stage_on_comm
from repro.graph.coarsen import CoarsenConfig, build_multilevel_set
from repro.graph.hybrid import build_hybrid_set
from repro.graph.overlap_graph import OverlapGraph
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.simulate.genome import random_genome
from tests.graph.conftest import graph_from_reads, tiled_readset

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def make_assembly(contigs, edges):
    """Build a HybridAssembly from explicit contigs and (u, v, delta) edges.

    Edge weight is the implied contig overlap (>=1).
    """
    lengths = np.array([c.size for c in contigs], dtype=np.int64)
    if edges:
        eu = np.array([e[0] for e in edges], dtype=np.int64)
        ev = np.array([e[1] for e in edges], dtype=np.int64)
        d = np.array([e[2] for e in edges], dtype=np.int64)
        ov = np.minimum(lengths[eu], d + lengths[ev]) - np.maximum(0, d)
        w = np.maximum(ov, 1).astype(np.float64)
    else:
        eu = ev = d = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64)
    graph = OverlapGraph(len(contigs), eu, ev, w, deltas=d)
    clusters = [np.array([i], dtype=np.int64) for i in range(len(contigs))]
    return HybridAssembly(graph=graph, contigs=list(contigs), clusters=clusters)


def chain_assembly(n=6, contig_len=120, step=60, seed=0):
    """n contigs tiling a genome left to right, adjacent overlaps only."""
    rng = np.random.default_rng(seed)
    genome = random_genome(step * (n - 1) + contig_len, rng)
    contigs = [genome[i * step : i * step + contig_len] for i in range(n)]
    edges = [(i, i + 1, step) for i in range(n - 1)]
    return make_assembly(contigs, edges), genome


def dag_of(assembly, labels):
    return DistributedAssemblyGraph(assembly, np.asarray(labels, dtype=np.int64))


def run_on_cluster(fn, dag, n_parts, **kw):
    # sanitize=True: every distributed-algorithm test also proves the
    # collectives are free of mutate-after-send races and message leaks.
    cluster = SimCluster(n_parts, cost_model=FAST, deadlock_timeout=30.0, sanitize=True)
    results, stats = cluster.run(fn, dag, **kw)
    return results, stats


def run_stage_on_cluster(name, dag, n_parts, **params):
    """Run one registered stage SPMD, one simulated rank per partition."""
    stage = get_stage(name)
    return run_on_cluster(
        lambda comm, dag: run_stage_on_comm(comm, stage, dag, **params), dag, n_parts
    )


def ids(found):
    """Sorted unique ids of a scan result.

    The reference scans return lists in scan order and may repeat an
    id; the production kernels return sorted unique arrays.
    """
    return sorted(set(np.asarray(found, dtype=np.int64).tolist()))


@pytest.fixture(scope="module")
def pipeline_graphs():
    """Realistic end-to-end structures from tiled reads."""
    reads, genome = tiled_readset(genome_len=2400, stride=30, seed=5)
    g0 = graph_from_reads(reads)
    mls = build_multilevel_set(g0, CoarsenConfig(min_nodes=6, seed=5))
    hyb = build_hybrid_set(mls, reads.lengths)
    return reads, genome, g0, mls, hyb
