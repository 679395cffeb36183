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


def defect_chain_assembly(backbone, seed, length=150, step=60):
    """A ``backbone``-contig chain with one finish defect per node, at scale.

    Consecutive contigs overlap by ``length - step`` bases; the chain is
    decorated in a fixed 30-cycle so every finish stage has real work:

    * every 5th node gets a skip edge ``(i, i+2)`` — removed by
      transitive reduction (witness ``i+1``);
    * cycle offset 7: an error tip hanging off a junction — removed by
      dead-end trimming (too short to be a containment);
    * cycle offset 13: a two-branch bubble to ``i+1`` (the direct
      chain edge becomes transitive through the branches; the shorter
      branch is popped);
    * cycle offset 22: a node properly contained in its anchor —
      removed by containment with identity 1.0.

    Returns the assembly, every node's backbone position (decorations
    inherit their anchor's; the key for block labels) and the genome
    the backbone tiles — the one contig a correct finish emits.
    """
    genome = random_genome(step * (backbone - 1) + length, np.random.default_rng(seed))
    contigs = [genome[i * step : i * step + length] for i in range(backbone)]
    anchors = list(range(backbone))
    edges = [(i, i + 1, step) for i in range(backbone - 1)]

    def add_node(anchor, start, clen):
        contigs.append(genome[start : start + clen])
        anchors.append(anchor)
        return len(contigs) - 1

    for i in range(backbone):
        base = i * step
        if i % 5 == 2 and i + 2 < backbone:
            edges.append((i, i + 2, 2 * step))  # transitive via i+1
        cycle = i % 30
        if cycle == 7 and 0 < i < backbone - 1:
            # Tip past the junction contig's end: overlap exactly 50,
            # so the edge is not short and the tip is not contained.
            edges.append((i, add_node(i, base + 100, 80), 100))
        elif cycle == 13 and i + 1 < backbone:
            long_b = add_node(i, base + 30, length)
            short_b = add_node(i, base + 35, length - 10)
            edges.append((i, long_b, 30))
            edges.append((long_b, i + 1, step - 30))
            edges.append((i, short_b, 35))
            edges.append((short_b, i + 1, step - 35))
        elif cycle == 22:
            edges.append((i, add_node(i, base + 25, 100), 25))  # contained in i
    return make_assembly(contigs, edges), np.array(anchors, dtype=np.int64), genome


def dag_of(assembly, labels):
    return DistributedAssemblyGraph(assembly, np.asarray(labels, dtype=np.int64))


def run_on_cluster(fn, dag, n_parts, **kw):
    cluster = SimCluster(n_parts, cost_model=FAST)
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
    mls = build_multilevel_set(g0, CoarsenConfig(min_nodes=6), seed=5)
    hyb = build_hybrid_set(mls, reads.lengths)
    return reads, genome, g0, mls, hyb
