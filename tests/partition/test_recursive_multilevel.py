"""Integration tests for recursive bisection and graph-set partitioning."""

import numpy as np
import pytest

from repro.graph.coarsen import CoarsenConfig, build_multilevel_set
from repro.graph.csr import split_groups
from repro.graph.hybrid import build_hybrid_set
from repro.partition.metrics import edge_cut, edge_cut_fraction, node_weight_balance
from repro.partition.multilevel import (
    partition_via_hybrid,
    partition_via_multilevel,
)
from tests.graph.conftest import graph_from_reads, tiled_readset
from tests.partition.conftest import (
    random_weighted_graph,
    recursive_labels,
    ring_of_cliques,
    two_cliques,
)


SMALL = CoarsenConfig(min_nodes=8)


class TestRecursiveBisection:
    def test_k_must_be_power_of_two(self):
        g = two_cliques()
        with pytest.raises(ValueError):
            recursive_labels(g, 3)
        with pytest.raises(ValueError):
            recursive_labels(g, 0)

    def test_k1_trivial(self):
        g = two_cliques()
        assert (recursive_labels(g, 1) == 0).all()

    def test_k2_two_cliques(self):
        g = two_cliques(n_each=12)
        labels = recursive_labels(g, 2, SMALL)
        assert edge_cut(g, labels) == 1.0

    def test_k4_ring_of_cliques(self):
        g = ring_of_cliques(n_cliques=4, n_each=8)
        labels = recursive_labels(g, 4, SMALL)
        assert len(set(labels.tolist())) == 4
        # Ideal cut = 4 bridges; accept near-ideal.
        assert edge_cut(g, labels) <= 3 * 10.0 + 4.0

    def test_labels_in_range(self):
        g = random_weighted_graph(60, 0.1, seed=4)
        labels = recursive_labels(g, 8, SMALL, 4)
        assert set(labels.tolist()) <= set(range(8))

    def test_task_records_counts(self):
        g = random_weighted_graph(80, 0.08, seed=5)
        tasks = []
        recursive_labels(g, 8, SMALL, 5, tasks=tasks)
        bisects = [t for t in tasks if t.kind == "bisect"]
        assert len(bisects) == 1 + 2 + 4
        assert sorted({t.step for t in bisects}) == [0, 1, 2]
        assert all(t.duration >= 0 for t in tasks)

    def test_balance_reasonable(self):
        g = random_weighted_graph(128, 0.06, seed=6)
        labels = recursive_labels(g, 4, SMALL, 6)
        assert node_weight_balance(g, labels, 4) <= 1.6


class TestGraphSetPartitioning:
    @pytest.fixture(scope="class")
    def assembled(self):
        reads, genome = tiled_readset(genome_len=3000, stride=20, seed=2)
        g0 = graph_from_reads(reads)
        mls = build_multilevel_set(g0, SMALL, seed=2)
        hyb = build_hybrid_set(mls, reads.lengths)
        return reads, g0, mls, hyb

    def test_multilevel_partition(self, assembled):
        _, g0, mls, _ = assembled
        res = partition_via_multilevel(mls, 4)
        assert res.labels_g0.size == g0.n_nodes
        assert len(set(res.labels_g0.tolist())) == 4
        assert res.cut_g0 == edge_cut(g0, res.labels_g0)

    def test_hybrid_partition_projects_to_g0(self, assembled):
        _, g0, mls, hyb = assembled
        res = partition_via_hybrid(mls, hyb, 4)
        assert res.labels_finest.size == hyb.hybrid.n_nodes
        assert res.labels_g0.size == g0.n_nodes
        # Every hybrid cluster lands in exactly one part.
        for cluster in split_groups(*hyb.members_of_hybrid()):
            assert len(set(res.labels_g0[cluster].tolist())) == 1

    def test_hybrid_cut_is_small_fraction(self, assembled):
        _, g0, mls, hyb = assembled
        res = partition_via_hybrid(mls, hyb, 4)
        # Paper: cuts never exceeded 0.43% of total edge weight; our
        # small linear datasets should also cut only a tiny fraction.
        assert edge_cut_fraction(g0, res.labels_g0) < 0.1

    def test_hybrid_faster_than_multilevel(self, assembled):
        _, _, mls, hyb = assembled
        t_h = partition_via_hybrid(mls, hyb, 4).wall_time
        t_m = partition_via_multilevel(mls, 4).wall_time
        # The headline claim (Fig. 5): hybrid partitioning is faster.
        # Allow slack on tiny test graphs.
        assert t_h < 2.0 * t_m

    def test_tasks_recorded(self, assembled):
        _, _, mls, hyb = assembled
        res = partition_via_hybrid(mls, hyb, 4)
        kinds = {t.kind for t in res.tasks}
        assert kinds == {"bisect", "kway"}
        kway_tasks = [t for t in res.tasks if t.kind == "kway"]
        assert len(kway_tasks) == hyb.n_levels
