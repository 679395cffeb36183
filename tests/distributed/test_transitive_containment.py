"""Tests for distributed transitive reduction and containment removal."""

import numpy as np
import pytest

from repro.distributed.containment import find_containments
from repro.distributed.transitive import find_transitive_edges
from repro.simulate.genome import random_genome
from tests.distributed.conftest import (
    chain_assembly,
    dag_of,
    ids,
    make_assembly,
    run_stage_on_cluster,
)
from tests.reference import finish_loop

#: every hand-built case holds for the scalar oracle and the production scan.
FIND_TRANSITIVE = (finish_loop.find_transitive_edges, find_transitive_edges)
FIND_CONTAINMENTS = (finish_loop.find_containments, find_containments)


def triangle_assembly(seed=0):
    """Three tiling contigs where 0->2 is transitive through 1."""
    rng = np.random.default_rng(seed)
    genome = random_genome(220, rng)
    contigs = [genome[0:100], genome[60:160], genome[120:220]]
    edges = [(0, 1, 60), (1, 2, 60), (0, 2, 120)]
    return make_assembly(contigs, edges), genome


class TestTransitiveReduction:
    def test_detects_triangle(self):
        asm, _ = triangle_assembly()
        dag = dag_of(asm, [0, 0, 0])
        g = dag.graph
        for find in FIND_TRANSITIVE:
            (e,) = ids(find(dag, np.array([0, 1, 2])))
            assert {int(g.eu[e]), int(g.ev[e])} == {0, 2}

    def test_chain_has_no_transitive(self):
        asm, _ = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        for find in FIND_TRANSITIVE:
            assert ids(find(dag, np.arange(6))) == []

    def test_distributed_run_removes(self):
        asm, _ = triangle_assembly()
        dag = dag_of(asm, [0, 1, 1])
        results, stats = run_stage_on_cluster("transitive", dag, 2)
        assert results == [1, 1]  # both ranks learn the removal count
        assert dag.n_alive_edges == 2
        assert stats.elapsed > 0

    def test_cross_partition_edge_recorded_once_effectively(self):
        asm, _ = triangle_assembly()
        # transitive edge 0-2 crosses partitions 0|1: both may record it
        dag = dag_of(asm, [0, 0, 1])
        results, _ = run_stage_on_cluster("transitive", dag, 2)
        assert results[0] == 1

    def test_respects_tolerance(self):
        asm, _ = triangle_assembly()
        dag = dag_of(asm, [0, 0, 0])
        # with tolerance 0 the exact deltas still match (60 + 60 = 120)
        for find in FIND_TRANSITIVE:
            assert len(ids(find(dag, np.arange(3), tolerance=0))) == 1


class TestContainment:
    def make_contained(self):
        rng = np.random.default_rng(3)
        genome = random_genome(200, rng)
        contigs = [genome[0:150], genome[20:90]]  # 1 contained in 0
        edges = [(0, 1, 20)]
        return make_assembly(contigs, edges), genome

    def test_detects_contained_node(self):
        asm, _ = self.make_contained()
        dag = dag_of(asm, [0, 0])
        for find in FIND_CONTAINMENTS:
            nodes, edges = find(dag, np.array([0, 1]))
            assert ids(nodes) == [1]
            assert ids(edges) == []

    def test_short_overlap_edge_flagged(self):
        rng = np.random.default_rng(4)
        genome = random_genome(300, rng)
        contigs = [genome[0:100], genome[80:180]]  # 20bp overlap < 50
        asm = make_assembly(contigs, [(0, 1, 80)])
        dag = dag_of(asm, [0, 0])
        for find in FIND_CONTAINMENTS:
            nodes, edges = find(dag, np.array([0, 1]))
            assert ids(nodes) == []
            # both endpoints may record the same crossing edge (paper
            # §V-A); the master deduplicates
            assert len(ids(edges)) == 1

    def test_identity_guard(self):
        rng = np.random.default_rng(5)
        genome = random_genome(200, rng)
        inner = random_genome(70, np.random.default_rng(99))  # unrelated
        contigs = [genome[0:150], inner]
        asm = make_assembly(contigs, [(0, 1, 20)])
        dag = dag_of(asm, [0, 0])
        for find in FIND_CONTAINMENTS:
            nodes, _ = find(dag, np.array([0, 1]))
            assert ids(nodes) == []  # interval says contained, sequence says no

    def test_distributed_run(self):
        asm, _ = self.make_contained()
        dag = dag_of(asm, [0, 1])
        results, _ = run_stage_on_cluster("containment", dag, 2)
        assert results[0] == (1, 0)
        assert not dag.node_alive[1]

    def test_chain_untouched(self):
        asm, _ = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        for find in FIND_CONTAINMENTS:
            nodes, edges = find(dag, np.arange(6))
            assert ids(nodes) == [] and ids(edges) == []
