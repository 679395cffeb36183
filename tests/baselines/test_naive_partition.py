"""Tests for the naive partitioner baselines."""

import numpy as np
import pytest

from repro.baselines.naive_partition import bfs_block_partition, hash_partition
from repro.partition.metrics import edge_cut, partition_node_weights
from tests.partition.conftest import two_cliques


class TestHashPartition:
    def test_labels_in_range(self):
        labels = hash_partition(100, 4, seed=0)
        assert labels.min() >= 0 and labels.max() < 4

    def test_deterministic(self):
        assert (hash_partition(50, 4, seed=1) == hash_partition(50, 4, seed=1)).all()

    def test_roughly_uniform(self):
        labels = hash_partition(4000, 4, seed=2)
        counts = np.bincount(labels, minlength=4)
        assert counts.min() > 800

    def test_validation(self):
        with pytest.raises(ValueError):
            hash_partition(10, 0)
        with pytest.raises(ValueError):
            hash_partition(-1, 2)


class TestBfsBlockPartition:
    def test_balanced_blocks(self):
        g = two_cliques(n_each=8)
        labels = bfs_block_partition(g, 2)
        assert partition_node_weights(g, labels, 2).tolist() == [8, 8]

    def test_respects_connectivity_better_than_hash(self):
        g = two_cliques(n_each=10)
        bfs_cut = edge_cut(g, bfs_block_partition(g, 2))
        hash_cut = edge_cut(g, hash_partition(g.n_nodes, 2, seed=0))
        assert bfs_cut < hash_cut

    def test_empty_graph(self):
        from repro.graph.overlap_graph import Level

        g = Level(0, np.array([]), np.array([]), np.array([]))
        assert bfs_block_partition(g, 2).size == 0

    def test_k_one(self):
        g = two_cliques()
        assert (bfs_block_partition(g, 1) == 0).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            bfs_block_partition(two_cliques(), 0)
