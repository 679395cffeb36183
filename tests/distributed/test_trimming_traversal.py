"""Tests for dead-end trimming, bubble popping, and traversal."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.distributed.traversal import (
    contigs_from_paths,
    merge_subpaths,
    subpath_kernel,
)
from repro.distributed.trimming import find_bubbles, find_dead_ends
from repro.sequence.dna import decode
from repro.simulate.genome import random_genome
from tests.distributed.conftest import (
    chain_assembly,
    dag_of,
    ids,
    make_assembly,
    run_stage_on_cluster,
)
from tests.reference import finish_loop
from tests.reference.traversal_walk import pack_paths

#: every hand-built case holds for the scalar oracle and the production scan.
FIND_DEAD_ENDS = (finish_loop.find_dead_ends, find_dead_ends)
FIND_BUBBLES = (finish_loop.find_bubbles, find_bubbles)


def spur_assembly():
    """Backbone 0-1-2-3 (200bp contigs) with a short spur 4 off node 1."""
    rng = np.random.default_rng(7)
    genome = random_genome(500, rng)
    contigs = [genome[0:200], genome[100:300], genome[200:400], genome[300:500],
               random_genome(60, rng)]
    edges = [(0, 1, 100), (1, 2, 100), (2, 3, 100), (1, 4, 30)]
    return make_assembly(contigs, edges), genome


def bubble_assembly():
    """v(0) - {a(1), b(2)} - w(3) with a longer than b."""
    rng = np.random.default_rng(8)
    genome = random_genome(260, rng)
    contigs = [genome[0:100], genome[60:180], genome[60:150], genome[140:240]]
    edges = [(0, 1, 60), (0, 2, 60), (1, 3, 80), (2, 3, 80)]
    return make_assembly(contigs, edges), genome


class TestDeadEnds:
    def test_spur_detected(self):
        asm, _ = spur_assembly()
        dag = dag_of(asm, [0] * 5)
        for find in FIND_DEAD_ENDS:
            assert ids(find(dag, np.arange(5))) == [4]

    def test_backbone_tips_not_removed(self):
        # chain ends are degree-1 but lead into degree-2 nodes, never a
        # junction, so nothing is trimmed
        asm, _ = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        for find in FIND_DEAD_ENDS:
            assert ids(find(dag, np.arange(6))) == []

    def test_long_spur_kept(self):
        asm, _ = spur_assembly()
        dag = dag_of(asm, [0] * 5)
        # threshold below the spur's 60bp contig: nothing is short enough
        for find in FIND_DEAD_ENDS:
            assert ids(find(dag, np.arange(5), max_tip_bases=50)) == []

    def test_backbone_end_never_trimmed(self):
        asm, _ = spur_assembly()
        dag = dag_of(asm, [0] * 5)
        # even a generous threshold keeps the 200bp backbone ends
        for find in FIND_DEAD_ENDS:
            found = ids(find(dag, np.arange(5), max_tip_bases=150))
            assert 0 not in found and 3 not in found

    def test_distributed_run(self):
        asm, _ = spur_assembly()
        dag = dag_of(asm, [0, 0, 1, 1, 1])
        results, stats = run_stage_on_cluster("dead_ends", dag, 2)
        assert results == [1, 1]
        assert not dag.node_alive[4]
        assert stats.elapsed > 0


class TestBubbles:
    def test_bubble_pops_shorter_branch(self):
        asm, _ = bubble_assembly()
        dag = dag_of(asm, [0] * 4)
        # branch 2 (90bp) is shorter than branch 1 (120bp)
        for find in FIND_BUBBLES:
            assert ids(find(dag, np.array([0]))) == [2]

    def test_no_bubble_in_chain(self):
        asm, _ = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        for find in FIND_BUBBLES:
            assert ids(find(dag, np.arange(6))) == []

    def test_distributed_run(self):
        asm, _ = bubble_assembly()
        dag = dag_of(asm, [0, 0, 1, 1])
        results, _ = run_stage_on_cluster("bubbles", dag, 2)
        assert results[0] == 1
        assert not dag.node_alive[2]
        # after popping, the graph is a clean chain 0-1-3
        assert dag.rows_of([0, 3])[1].tolist() == [1, 1]


def packed(*paths):
    """(flat, lens) of the given node-id paths."""
    return pack_paths([list(p) for p in paths])


class TestTraversal:
    def test_single_partition_full_path(self):
        asm, genome = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        flat, lens = subpath_kernel(dag, 0)
        assert lens.tolist() == [6]
        assert flat.tolist() == [0, 1, 2, 3, 4, 5]

    def test_partition_boundary_splits_then_joins(self):
        asm, _ = chain_assembly()
        dag = dag_of(asm, [0, 0, 0, 1, 1, 1])
        subs = [subpath_kernel(dag, part) for part in range(2)]
        assert [lens.tolist() for _, lens in subs] == [[3], [3]]
        flat, lens = merge_subpaths(dag, subs)
        assert lens.tolist() == [6]
        assert flat.tolist() == [0, 1, 2, 3, 4, 5]

    def test_junction_stops_path(self):
        asm, _ = spur_assembly()
        dag = dag_of(asm, [0] * 5)
        _, lens = subpath_kernel(dag, 0)
        # node 1 has two out-edges (to 2 and 4): no single path spans all
        assert lens.sum() == 5 and (lens < 5).all()

    def test_distributed_traversal_matches_serial(self):
        asm, _ = chain_assembly(n=8)
        for parts in ([0] * 8, [0] * 4 + [1] * 4, [0, 0, 1, 1, 2, 2, 3, 3]):
            dag = dag_of(asm, parts)
            k = max(parts) + 1
            results, _ = run_stage_on_cluster("traversal", dag, k)
            assert results[0] is not None
            flat, lens = results[0]
            assert lens.tolist() == [8] and flat.tolist() == list(range(8))

    def test_cycle_starts_at_smallest_member(self):
        # 3 -> 1 -> 4 -> 0 -> 2 -> 3: one unambiguous cycle.
        asm, _ = chain_assembly(n=5)
        ring = [3, 1, 4, 0, 2]
        edges = [(u, v, 10) for u, v in zip(ring, ring[1:] + ring[:1])]
        dag = dag_of(make_assembly(asm.contigs, edges), [0] * 5)
        flat, lens = subpath_kernel(dag, 0)
        assert lens.tolist() == [5] and flat.tolist() == [0, 2, 3, 1, 4]
        # Cut across two partitions, the joined cycle starts at the
        # first sub-path, partition 0's, not at node 0.
        dag = dag_of(dag.assembly, [1, 0, 1, 1, 0])
        subs = [subpath_kernel(dag, part) for part in range(2)]
        assert [f.tolist() for f, _ in subs] == [[1, 4], [0, 2, 3]]
        flat, lens = merge_subpaths(dag, subs)
        assert lens.tolist() == [5] and flat.tolist() == [1, 4, 0, 2, 3]

    def test_contigs_from_paths_reconstruct_genome(self):
        asm, genome = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        contigs = contigs_from_paths(dag, subpath_kernel(dag, 0))
        assert len(contigs) == 1
        assert decode(contigs[0]) == decode(genome)

    def test_contig_emission_bounded_by_block(self):
        """One 2.4 Mbp path spells its genome, and the overlay's peak is
        the output plus block-sized transients: byte rows and byte counts
        spanning the path (three rows and four counts per column) would,
        with the output, exceed the bound."""
        n = 40_000
        asm, genome = chain_assembly(n=n, contig_len=150, step=60)
        dag = dag_of(asm, [0] * n)
        path = packed(range(n))
        tracemalloc.start()
        try:
            (contig,) = contigs_from_paths(dag, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(contig, genome)
        assert peak < 4 * genome.size + (8 << 20)

    def test_long_node_with_short_nodes_inside_bounded_by_block(self):
        """A 200 kbp node with ~4,000 short nodes inside it: every short
        node starts before the long one ends, so a block holding it and
        the ~1,000 short nodes its bases allow would deal them onto ~1,000
        rows of 200 kbp (~200 MB).  Blocks are cut on rows x width too:
        the long node is a block of one row, and the peak stays a few
        bytes per column."""
        rng = np.random.default_rng(3)
        size, short, step = 200_000, 60, 50
        genome = random_genome(size, rng)
        m = (size - short) // step
        contigs = [genome] + [genome[j * step + 10 : j * step + 10 + short] for j in range(m)]
        edges = [(0, 1, 10)] + [(j, j + 1, step) for j in range(1, m)]
        dag = dag_of(make_assembly(contigs, edges), [0] * (m + 1))
        seen = Counter()
        tracemalloc.start()
        try:
            (contig,) = contigs_from_paths(
                dag, packed(range(m + 1)), lambda name, n: seen.update({name: n})
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(contig, genome)
        assert peak < 40 * size
        # Work guard: no block was dealt onto more rows than overlap.
        assert seen["max_depth"] == 2 and seen["nodes_overlaid"] == m + 1

    def test_single_node_path_contig(self):
        asm, _ = chain_assembly(n=2)
        dag = dag_of(asm, [0, 0])
        contigs = contigs_from_paths(dag, packed([0]))
        assert decode(contigs[0]) == decode(asm.contigs[0])

    def test_invalid_path_step_raises(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0] * 3)
        with pytest.raises(ValueError, match="path step 0->2 has no alive edge"):
            contigs_from_paths(dag, packed([1], [0, 1], [0, 2]))
