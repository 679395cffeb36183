"""Unit + integration tests for the distributed assembly graph."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.distributed.dgraph import (
    DistributedAssemblyGraph,
    HybridAssembly,
    enrich_hybrid,
)
from repro.graph.coarsen import CoarsenConfig
from repro.graph.hybrid import HybridGraphSet
from repro.graph.overlap_graph import Level, OverlapGraph
from repro.io.readset import ReadSet
from repro.sequence.dna import decode
from tests.distributed.conftest import chain_assembly, dag_of, make_assembly
from tests.graph.strategies import edge_lists
from tests.reference.finish_loop import edge_delta


def one_cluster_hybrid(g0, read_offsets):
    """A hand-built hybrid set whose single H0 node holds all of G0,
    laid out at ``read_offsets``."""
    empty = np.empty(0, dtype=np.int64)
    h0 = Level(1, empty, empty, np.empty(0), node_weights=[g0.n_nodes])
    n = g0.n_nodes
    return HybridGraphSet(
        graphs=[h0],
        mappings=[],
        base_maps=[np.zeros(n, dtype=np.int64)],
        rep_level=np.ones(n, dtype=np.int64),
        read_offsets=np.asarray(read_offsets),
    )


class TestEnrichHybrid:
    def test_contigs_cover_genome(self, pipeline_graphs):
        reads, genome, g0, mls, hyb = pipeline_graphs
        asm = enrich_hybrid(hyb, g0, reads)
        assert len(asm.contigs) == hyb.hybrid.n_nodes
        genome_str = decode(genome)
        for c in asm.contigs:
            assert decode(c) in genome_str  # consensus is error-free here

    def test_deltas_match_genome_offsets(self, pipeline_graphs):
        reads, genome, g0, mls, hyb = pipeline_graphs
        asm = enrich_hybrid(hyb, g0, reads)
        genome_str = decode(genome)
        pos = [genome_str.find(decode(c)) for c in asm.contigs]
        g = asm.graph
        for e in range(g.n_edges):
            u, v = int(g.eu[e]), int(g.ev[e])
            assert int(g.deltas[e]) == pos[v] - pos[u]

    def test_weights_are_overlaps(self, pipeline_graphs):
        reads, genome, g0, mls, hyb = pipeline_graphs
        asm = enrich_hybrid(hyb, g0, reads)
        g = asm.graph
        lengths = asm.contig_lengths
        for e in range(g.n_edges):
            u, v, d = int(g.eu[e]), int(g.ev[e]), int(g.deltas[e])
            expect = min(lengths[u], d + lengths[v]) - max(0, d)
            assert g.weights[e] == max(expect, 1)

    def test_contig_lengths(self):
        asm, _ = chain_assembly()
        assert (asm.contig_lengths == 120).all()

    def test_tolerance_must_be_the_layouts(self, pipeline_graphs):
        reads, _, g0, _, hyb = pipeline_graphs
        assert hyb.tolerance == 0
        with pytest.raises(ValueError, match="laid out at tolerance 0, not 2"):
            enrich_hybrid(hyb, g0, reads, tolerance=2)

    def test_cluster_with_a_coverage_gap_is_refused(self):
        # A consistent layout that leaves columns 100..149 uncovered.
        g0 = OverlapGraph(
            2, np.array([0]), np.array([1]), np.array([60.0]), deltas=np.array([150])
        )
        reads = ReadSet.from_strings(["ACGT" * 25] * 2)
        with pytest.raises(RuntimeError, match="not contiguous"):
            enrich_hybrid(one_cluster_hybrid(g0, [0, 150]), g0, reads)


class TestLayoutWork:
    """Selection lays clusters out in bulk, not edge by edge, and enrich
    reads its layouts instead of making its own."""

    def test_no_scalar_edge_reads_and_one_layout_per_level(self, pipeline_graphs):
        reads = pipeline_graphs[0]
        # A graph has no per-edge delta reader to walk edge by edge with.
        assert not hasattr(OverlapGraph, "edge_delta")
        config = AssemblyConfig(coarsen=CoarsenConfig(min_nodes=6), seed=5)
        prep = FocusAssembler(config).prepare(reads)
        layouts = {span.name: span.counts.get("layouts", 0) for span in prep.timer.spans}
        assert prep.mls.n_levels > 2 and 1 <= layouts["hybrid"] <= prep.mls.n_levels - 1
        assert layouts["enrich"] == 0
        assert 1 < len(prep.assembly.contigs) == prep.hyb.hybrid.n_nodes


class TestDistributedAssemblyGraph:
    def test_partition_nodes(self):
        asm, _ = chain_assembly(n=6)
        dag = dag_of(asm, [0, 0, 0, 1, 1, 1])
        assert dag.partition_nodes(0).tolist() == [0, 1, 2]
        assert dag.partition_nodes(1).tolist() == [3, 4, 5]
        assert dag.n_parts == 2

    def test_labels_validation(self):
        asm, _ = chain_assembly(n=3)
        with pytest.raises(ValueError):
            DistributedAssemblyGraph(asm, np.array([0, 1]))
        with pytest.raises(ValueError):
            DistributedAssemblyGraph(asm, np.array([0, -1, 0]))

    def test_rows_of_splits_right_and_left(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        # node 1 has a left neighbour 0 and a right neighbour 2
        rows, degrees = dag.rows_of([1])
        assert degrees.tolist() == [2]
        dst, delta = dag.graph.adj[rows], dag.graph.adj_delta[rows]
        assert dst[delta > 0].tolist() == [2]
        assert dst[delta < 0].tolist() == [0]

    def test_pair_deltas_seen_from_each_end(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        deltas, found = dag.pair_deltas([0, 1, 0], [1, 0, 2])
        assert found.tolist() == [True, True, False]
        assert deltas.tolist() == [60, -60, 0]

    def test_remove_edges(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        rows, _ = dag.rows_of([0])
        assert dag.remove_edges(dag.graph.adj_edge[rows]) == 1
        assert dag.rows_of([0])[1].tolist() == [0]
        assert dag.pair_deltas([0], [1])[1].tolist() == [False]
        assert dag.n_alive_edges == 1

    def test_remove_nodes_kills_incident_edges(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        assert dag.remove_nodes([1]) == 1
        assert dag.rows_of([0, 2])[1].tolist() == [0, 0]
        assert not dag.lookup([1, 2], [2, 1])[1].any()
        assert dag.n_alive_nodes == 2
        assert dag.n_alive_edges == 0

    def test_worker_view_shares_the_graph_and_key(self):
        # Only the masks are the view's own.
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        dag.remove_nodes([1])
        view = dag.worker_view()
        assert view.graph is dag.graph and view.key is dag.key
        assert view.node_alive is not dag.node_alive
        assert view.edge_alive is not dag.edge_alive
        assert view.node_alive.all() and view.edge_alive.all()
        view.remove_nodes([0])
        assert dag.node_alive.tolist() == [True, False, True]

    def test_remove_idempotent(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        assert dag.remove_nodes([1]) == 1
        assert dag.remove_nodes([1]) == 0

    def test_remove_empty(self):
        asm, _ = chain_assembly(n=3)
        dag = dag_of(asm, [0, 0, 0])
        assert dag.remove_nodes([]) == 0
        assert dag.remove_edges([]) == 0


@st.composite
def masked_graphs(draw):
    """An ``OverlapGraph`` (parallel and flipped edges, isolated nodes,
    no edges at all), possibly the edges of a ``contract`` or
    ``induced_subgraph`` of it, and random alive masks."""
    n, eu, ev, weights, _ = draw(edge_lists())
    g = Level(n, eu, ev, weights)
    derive = draw(st.sampled_from(["none", "contract", "induced"]))
    if derive == "contract":
        n1 = draw(st.integers(0, n))
        mapping = draw(st.lists(st.integers(-1, n1 - 1), min_size=n, max_size=n))
        g = g.contract(np.array(mapping, dtype=np.int64), n1)
    elif derive == "induced":
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        g, _ = g.induced_subgraph(np.flatnonzero(np.array(keep, dtype=bool)))
    n, m = g.n_nodes, g.n_edges
    deltas = draw(st.lists(st.integers(-500, 500), min_size=m, max_size=m))
    og = OverlapGraph(n, g.eu, g.ev, g.weights, deltas=np.array(deltas, dtype=np.int64))
    node_alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edge_alive = draw(st.lists(st.booleans(), min_size=og.n_edges, max_size=og.n_edges))
    return og, np.array(node_alive, dtype=bool), np.array(edge_alive, dtype=bool)


class TestCsrReader:
    """The masked CSR reader against brute force over the edge list."""

    @given(masked_graphs())
    @settings(max_examples=300, deadline=None)
    def test_key_lookup_and_deltas_match_brute_force(self, case):
        g, node_alive, edge_alive = case
        n = g.n_nodes
        asm = HybridAssembly(
            graph=g,
            contigs=[np.zeros(1, dtype=np.uint8)] * n,
            clusters=[np.array([i]) for i in range(n)],
        )
        dag = DistributedAssemblyGraph(asm, np.zeros(n, dtype=np.int64))
        # The key that lookup binary-searches is increasing as built.
        assert (np.diff(dag.key) > 0).all()
        # Each row's delta is its edge's, seen from the row's node.
        for v in range(n):
            for r in range(g.indptr[v], g.indptr[v + 1]):
                assert g.adj_delta[r] == edge_delta(g, int(g.adj_edge[r]), v)
        dag.state = (node_alive, edge_alive)
        want = {}
        for e in range(g.n_edges):
            u, v, d = int(g.eu[e]), int(g.ev[e]), int(g.deltas[e])
            if edge_alive[e] and node_alive[u] and node_alive[v]:
                want[u, v], want[v, u] = d, -d
        # Every ordered pair: present, absent and u == v.
        us, vs = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        pos, found = dag.lookup(us, vs)
        deltas, found2 = dag.pair_deltas(us, vs)
        assert found.tolist() == found2.tolist()
        for u, v, p, f, d in zip(
            us.tolist(), vs.tolist(), pos.tolist(), found.tolist(), deltas.tolist()
        ):
            assert f == ((u, v) in want)
            assert d == want.get((u, v), 0)
            if f:
                assert g.indptr[u] <= p < g.indptr[u + 1] and g.adj[p] == v
        # rows_of: each node's alive rows are its alive neighbours.
        rows, degrees = dag.rows_of(np.arange(n))
        src = np.repeat(np.arange(n), degrees)
        got = sorted(zip(src.tolist(), g.adj[rows].tolist()))
        assert got == sorted(want)


class _WatchedContigs(list):
    """Contigs that note, in a file, every process but the first that
    walks them."""

    def __init__(self, contigs, record):
        super().__init__(contigs)
        self.master, self.record = os.getpid(), record

    def __iter__(self):
        if os.getpid() != self.master:
            with open(self.record, "a") as out:
                out.write(f"{os.getpid()}\n")
        return super().__iter__()


def test_workers_take_the_lengths_enrich_measured(tmp_path):
    """The enriched assembly carries its contig lengths, so no forked
    worker walks 10^5 contigs again to count them (22-58 ms and about
    3,200 copy-on-write faults per fresh worker on ``finish_100k``)."""
    from dataclasses import replace

    from repro.core.config import AssemblyConfig
    from repro.core.focus import FocusAssembler
    from repro.parallel.backend import create_backend
    from repro.simulate.genome import Genome, random_genome
    from repro.simulate.reads import ReadSimConfig, ReadSimulator

    genome = Genome("g", random_genome(3000, np.random.default_rng(4)))
    reads = ReadSimulator(ReadSimConfig(read_length=100, coverage=6, seed=4)).simulate_genome(genome)
    prep = FocusAssembler(AssemblyConfig(backend="serial")).prepare(reads)
    assembly = prep.assembly
    assert np.array_equal(assembly.contig_lengths, [c.size for c in assembly.contigs])
    record = str(tmp_path / "walked")
    watched = replace(assembly, contigs=_WatchedContigs(assembly.contigs, record))
    dag = DistributedAssemblyGraph(watched, np.arange(watched.graph.n_nodes) % 2)
    with create_backend("process", dag, workers=2) as runner:
        for name in ("transitive", "containment", "dead_ends"):
            runner.run_stage(name)
        assert runner.fault_report.retries == runner.fault_report.fallbacks == 0
    assert not os.path.exists(record)
