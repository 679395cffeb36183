"""Property tests: production finish kernels == scalar reference scans.

The vectorized kernels' whole contract (docs/performance.md) is that
for any graph, any alive-mask state, and any partitioning, each stage's
kernel proposes exactly the removals the per-node reference scan
(``tests/reference/finish_loop.py``) finds.  Hypothesis drives the four
kernel/oracle pairs over randomized genome-sliced assemblies with
random dead nodes/edges, the list-ranking traversal against the
per-node walk (``tests/reference/traversal_walk.py``) over random
chains and cycles, and the layered contig overlay against the
per-node ``np.add.at`` overlay (``tests/reference/contigs.py``).  A
defect chain then finishes to its genome at every partition count on
every backend, and a chaos smoke proves fault injection composes with
the kernels end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AssemblyConfig, finish_plan, run_plan
from repro.core.focus import FocusAssembler, deduplicate_contigs
from repro.distributed.containment import containment_kernel
from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.transitive import transitive_kernel
from repro.distributed.traversal import (
    contigs_from_paths,
    merge_subpaths,
    subpath_kernel,
)
from repro.distributed.trimming import bubble_kernel, dead_end_kernel
from repro.faults import FaultPlan, KernelFault, RetryPolicy
from repro.parallel.backend import BACKEND_NAMES, create_backend
from repro.simulate.genome import random_genome

from tests.distributed.conftest import (
    dag_of,
    defect_chain_assembly,
    make_assembly,
)
from tests.reference import contigs as contigs_ref
from tests.reference import finish_loop, traversal_walk

GENOME_LEN = 400


@st.composite
def masked_dags(draw):
    """A random genome-sliced assembly with random masks and labels.

    Contigs are true slices of one genome and edge deltas are the true
    offset differences (with occasional jitter), so transitive chains,
    containments, tips, and bubbles all actually occur; random kill
    masks then exercise the kernels' alive-filtering paths.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=2, max_value=24))
    rng = np.random.default_rng(seed)
    genome = random_genome(GENOME_LEN, rng)
    lengths = rng.integers(20, 121, size=n)
    offsets = rng.integers(0, GENOME_LEN - 120, size=n)
    contigs = [genome[o : o + ln] for o, ln in zip(offsets, lengths)]

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            lo = max(offsets[u], offsets[v])
            hi = min(offsets[u] + lengths[u], offsets[v] + lengths[v])
            if hi - lo <= 0 or rng.random() < 0.4:
                continue
            jitter = int(rng.integers(-3, 4)) if rng.random() < 0.2 else 0
            edges.append((u, v, int(offsets[v] - offsets[u]) + jitter))
    assembly = make_assembly(contigs, edges)

    k = draw(st.sampled_from([1, 2, 4]))
    dag = dag_of(assembly, rng.integers(0, k, size=n))
    dag.node_alive &= rng.random(n) > 0.1
    dag.edge_alive &= rng.random(assembly.graph.eu.size) > 0.1
    return dag


def assert_same_proposals(dag, reference_scan, kernel, **params):
    # Set equality: the reference scans may report an id twice (seen
    # from two anchors of one partition); union_proposals dedups at
    # merge time, so duplicates are not an observable difference.
    for part in range(dag.n_parts):
        expect = reference_scan(dag, dag.partition_nodes(part), **params)
        got = kernel(dag, part, **params)
        if not isinstance(got, tuple):
            expect, got = (expect,), (got,)
        for a, b in zip(expect, got):
            np.testing.assert_array_equal(
                np.unique(np.asarray(a, dtype=np.int64)), np.unique(b)
            )


class TestKernelEquivalence:
    @given(dag=masked_dags(), tolerance=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_transitive(self, dag, tolerance):
        assert_same_proposals(
            dag,
            finish_loop.find_transitive_edges,
            transitive_kernel,
            tolerance=tolerance,
        )

    @given(
        dag=masked_dags(),
        min_overlap=st.integers(min_value=1, max_value=80),
        min_identity=st.floats(min_value=0.5, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_containment(self, dag, min_overlap, min_identity):
        assert_same_proposals(
            dag,
            finish_loop.find_containments,
            containment_kernel,
            min_overlap=min_overlap,
            min_identity=min_identity,
        )

    @given(dag=masked_dags(), max_tip_bases=st.integers(min_value=20, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_dead_ends(self, dag, max_tip_bases):
        assert_same_proposals(
            dag,
            finish_loop.find_dead_ends,
            dead_end_kernel,
            max_tip_bases=max_tip_bases,
        )

    @given(dag=masked_dags())
    @settings(max_examples=40, deadline=None)
    def test_bubbles(self, dag):
        assert_same_proposals(dag, finish_loop.find_bubbles, bubble_kernel)

    @pytest.mark.parametrize("max_pairs", [None, 500])
    def test_transitive_high_degree(self, monkeypatch, max_pairs):
        """A 60-clique (every contig overlaps every other: ~7 * 10^4
        row pairs, quadratic in the degree) reduces to the same edges as
        the reference, in one block and in ~150 bounded blocks."""
        from repro.distributed import transitive

        if max_pairs is not None:
            monkeypatch.setattr(transitive, "_MAX_PAIRS", max_pairs)
        n = 60
        genome = random_genome(GENOME_LEN, np.random.default_rng(3))
        contigs = [genome[2 * i : 2 * i + 150] for i in range(n)]
        edges = [(u, v, 2 * (v - u)) for u in range(n) for v in range(u + 1, n)]
        dag = dag_of(make_assembly(contigs, edges), np.arange(n) % 3)
        assert_same_proposals(
            dag, finish_loop.find_transitive_edges, transitive_kernel, tolerance=2
        )
        # Every edge but the n - 1 adjacent ones has a closer witness.
        found = [transitive_kernel(dag, part) for part in range(dag.n_parts)]
        assert np.unique(np.concatenate(found)).size == len(edges) - (n - 1)


@st.composite
def dags_with_paths(draw):
    """A random assembly cut into vertex-disjoint paths.

    Contigs are 1-60 random bases, ~8 % ``N``; consecutive path nodes
    are joined by an edge of any delta in [-40, 70], so cumulative
    offsets go negative, columns pile up unevenly (argmax ties) and a
    step past its contig's end leaves uncovered columns.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=1, max_value=30))
    rng = np.random.default_rng(seed)
    contigs = [
        rng.choice(5, size=int(rng.integers(1, 61)), p=[0.23] * 4 + [0.08]).astype(
            np.uint8
        )
        for _ in range(n)
    ]
    nodes = rng.permutation(n).tolist()
    cuts = np.flatnonzero(rng.random(n - 1) < 0.3) + 1
    paths = [p.tolist() for p in np.split(np.asarray(nodes), cuts)]
    edges = [
        (u, v, int(rng.integers(-40, 71)))
        for path in paths
        for u, v in zip(path[:-1], path[1:])
    ]
    return dag_of(make_assembly(contigs, edges), np.zeros(n)), paths


@st.composite
def chain_cases(draw):
    """Random chain assemblies, cut into hand-built paths.

    A path's contigs mix short (1-8 bp), mid (20-60 bp) and long
    (100-400 bp) ones.  A step usually lands inside the node before it
    (a short node then lies inside a long one), sometimes left of it
    (the offsets are unsorted) or past its end (uncovered columns).  A
    fifth of the contigs are all ``N``, the rest ~10 % ``N``, and each
    path draws its bases from two, so columns tie 2-vs-2 often.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    contigs, edges, paths = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pair = rng.choice(4, size=2, replace=False)
        path = []
        for _ in range(int(rng.integers(2, 14))):
            size = int(rng.choice([rng.integers(1, 9), rng.integers(20, 61), rng.integers(100, 401)]))
            if rng.random() < 0.2:
                codes = np.full(size, 4, dtype=np.uint8)
            else:
                codes = rng.choice([*pair, 4], size=size, p=[0.45, 0.45, 0.1]).astype(np.uint8)
            if path:
                before = contigs[path[-1]].size
                kind = rng.random()
                if kind < 0.15:
                    delta = int(rng.integers(-30, 0))
                elif kind < 0.25:
                    delta = int(rng.integers(before + 1, before + 20))
                else:
                    delta = int(rng.integers(0, before + 1))
                edges.append((path[-1], len(contigs), delta))
            path.append(len(contigs))
            contigs.append(codes)
        paths.append(path)
    return dag_of(make_assembly(contigs, edges), np.zeros(len(contigs))), paths


class TestContigOverlayEquivalence:
    @given(
        case=st.one_of(dags_with_paths(), chain_cases()),
        max_cells=st.sampled_from([1, 7, 64, 500, 1 << 18]),
    )
    @settings(max_examples=120, deadline=None)
    def test_overlay_matches_reference(self, case, max_cells):
        """Any path set, in one block and in many (a budget below one
        contig's size puts every node in its own block; small budgets cut
        blocks inside paths and across their edges)."""
        from repro.graph import contigs

        dag, paths = case
        expect = contigs_ref.contigs_from_paths(dag, paths)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(contigs, "_MAX_CELLS", max_cells)
            got = contigs_from_paths(dag, traversal_walk.pack_paths(paths))
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype == np.uint8
            np.testing.assert_array_equal(a, b)

    def test_columns_deeper_than_a_byte(self):
        """A 1 bp-step chain of 300 bp contigs stacks 300 votes on a
        column; a tenth of each contig's bases vote for the next base,
        so a count kept in one byte (300 wraps to 44) would lose to them."""
        rng = np.random.default_rng(5)
        n, size = 400, 300
        genome = random_genome(n - 1 + size, rng)
        contigs = []
        for i in range(n):
            codes = genome[i : i + size].copy()
            wrong = rng.random(size) < 0.1
            codes[wrong] = (codes[wrong] + 1) % 4
            contigs.append(codes)
        dag = dag_of(make_assembly(contigs, [(i, i + 1, 1) for i in range(n - 1)]), np.zeros(n))
        path = [list(range(n))]
        seen = {}
        (got,) = contigs_from_paths(
            dag, traversal_walk.pack_paths(path), lambda name, k: seen.update({name: k})
        )
        (expect,) = contigs_ref.contigs_from_paths(dag, path)
        np.testing.assert_array_equal(got, expect)
        assert seen["max_depth"] > 255
        np.testing.assert_array_equal(got[size - 1 : n], genome[size - 1 : n])


@st.composite
def linked_dags(draw):
    """Random chains and cycles with every hazard traversal must stop at.

    The nodes are shuffled and cut into runs; each run is a chain of
    positive-delta edges, and about half the runs of three or more are
    closed into a cycle.  Extra edges between random pairs add
    junctions (out- or in-degree 2), zero-delta edges and repeated
    pairs (merged into one edge, keeping one delta).  Labels are drawn
    over up to eight partitions, so cycles cross boundaries and small
    partitions hold one node or none; some nodes and edges are dead.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(seed)
    runs = np.split(rng.permutation(n), np.flatnonzero(rng.random(n - 1) < 0.2) + 1)
    edges = []
    for run in runs:
        ring = run.tolist()
        if len(ring) >= 3 and rng.random() < 0.5:
            ring.append(ring[0])
        edges += [(u, v, int(rng.integers(1, 60))) for u, v in zip(ring, ring[1:])]
    for _ in range(int(rng.integers(0, n // 3 + 2))):
        u, v = rng.integers(0, n, size=2).tolist()
        if u != v:
            edges.append((u, v, int(rng.choice([0, *rng.integers(-60, 60, size=3)]))))
    contigs = [random_genome(int(rng.integers(60, 121)), rng) for _ in range(n)]
    k = draw(st.integers(min_value=1, max_value=8))
    dag = dag_of(make_assembly(contigs, edges), rng.integers(0, k, size=n))
    dag.node_alive &= rng.random(n) > 0.1
    dag.edge_alive &= rng.random(dag.graph.n_edges) > 0.1
    return dag


def assert_same_paths(got, want):
    for a, b in zip(got, want):
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, b)


class TestTraversalEqualsWalk:
    @given(dag=linked_dags())
    @settings(max_examples=150, deadline=None)
    def test_kernel_and_merge_equal_walk(self, dag):
        """List ranking returns the walk's paths in the walk's order:
        per partition, and joined across partitions."""
        proposals, walked = [], []
        for part in range(dag.n_parts):
            visited = np.zeros(dag.graph.n_nodes, dtype=bool)
            sub = traversal_walk.extract_subpaths(dag, part, visited)
            proposals.append(subpath_kernel(dag, part))
            assert_same_paths(proposals[-1], traversal_walk.pack_paths(sub))
            walked += sub
        assert_same_paths(
            merge_subpaths(dag, proposals),
            traversal_walk.pack_paths(traversal_walk.join_subpaths(dag, walked)),
        )


class TestGroundTruthAcrossPartitions:
    """Table III on the finish half: a defect-laden chain over one
    genome finishes to exactly that genome for every partition count
    and backend."""

    BACKBONE = 600

    @pytest.fixture(scope="class")
    def chain(self):
        return defect_chain_assembly(self.BACKBONE, seed=13)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_one_contig_equal_to_genome(self, chain, backend, k):
        assembly, anchors, genome = chain
        dag = DistributedAssemblyGraph(assembly, anchors * k // self.BACKBONE)
        with create_backend(backend, dag, workers=2) as runner:
            paths = run_plan(runner, finish_plan(AssemblyConfig()))["traversal"].result
        contigs = contigs_from_paths(dag, paths)
        assert len(contigs) == 1
        np.testing.assert_array_equal(contigs[0], genome)


def reference_contigs(assembly, labels, cfg):
    """Contigs of one assembly trimmed by the scalar reference scans.

    Every scan is per node on the frozen graph, so scanning all alive
    nodes at once proposes the union of the per-partition proposals.
    Traversal is the walk-and-join reference; overlay and dedupe are
    the references too.
    """
    dag = DistributedAssemblyGraph(assembly, labels)
    params = dict(finish_plan(cfg))

    def alive():
        return np.flatnonzero(dag.node_alive)

    dag.remove_edges(
        finish_loop.find_transitive_edges(dag, alive(), **params["transitive"])
    )
    nodes, edges = finish_loop.find_containments(
        dag, alive(), **params["containment"]
    )
    dag.remove_nodes(nodes)
    dag.remove_edges(edges)
    dag.remove_nodes(finish_loop.find_dead_ends(dag, alive(), **params["dead_ends"]))
    dag.remove_nodes(finish_loop.find_bubbles(dag, alive(), **params["bubbles"]))
    visited = np.zeros(dag.graph.n_nodes, dtype=bool)
    paths = traversal_walk.join_subpaths(
        dag,
        [
            path
            for part in range(dag.n_parts)
            for path in traversal_walk.extract_subpaths(dag, part, visited)
        ],
    )
    return contigs_ref.deduplicate_contigs(
        contigs_ref.contigs_from_paths(dag, paths)
    )


class TestSparseChaosSmoke:
    """Fault injection composes with the vectorized kernels: the
    faulted run on process workers recovers contigs byte-identical to
    the fault-free assembly trimmed by the scalar reference scans."""

    PLAN = FaultPlan(
        kernel_faults=(
            KernelFault("error", "transitive", 0),
            KernelFault("crash", "bubbles", 1),
        ),
        hang_seconds=0.5,
    )
    POLICY = RetryPolicy(
        max_attempts=3, backoff_base=0.0, backoff_cap=0.0, task_deadline=5.0
    )

    @pytest.fixture(scope="class")
    def prep_and_baseline(self):
        from repro.simulate.genome import Genome
        from repro.simulate.reads import ReadSimConfig, ReadSimulator

        g = Genome("g", random_genome(5000, np.random.default_rng(11)))
        reads = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=10, seed=11)
        ).simulate_genome(g)
        assembler = FocusAssembler(AssemblyConfig(backend_workers=2))
        prep = assembler.prepare(reads)
        clean = assembler.finish(prep, n_partitions=4, backend="serial")
        baseline = reference_contigs(
            prep.assembly, clean.dag.labels, assembler.config
        )
        return prep, sorted(c.tobytes() for c in baseline)

    def test_faulted_sparse_matches_loop_baseline(self, prep_and_baseline):
        prep, baseline = prep_and_baseline
        chaos = FocusAssembler(
            AssemblyConfig(
                backend="process",
                backend_workers=2,
                retry=self.POLICY,
                fault_plan=self.PLAN,
            )
        )
        result = chaos.finish(prep, n_partitions=4)
        assert sorted(c.tobytes() for c in result.contigs) == baseline
        report = result.fault_report
        assert report is not None and report.total_injected >= 1


@pytest.mark.slow
class TestEngineMatrixSlow:
    """Backend byte-identity against the scalar reference on a larger
    assembly with every implanted defect class."""

    def test_all_cells_agree(self):
        backbone, k = 4000, 8
        assembly, anchors, _ = defect_chain_assembly(backbone, seed=77)
        labels = np.minimum(anchors * k // backbone, k - 1)  # k backbone blocks
        cfg = AssemblyConfig()
        expect = sorted(
            c.tobytes() for c in reference_contigs(assembly, labels, cfg)
        )
        for backend in BACKEND_NAMES:
            dag = DistributedAssemblyGraph(assembly, labels)
            with create_backend(backend, dag, workers=2) as runner:
                paths = run_plan(runner, finish_plan(cfg))["traversal"].result
            contigs = deduplicate_contigs(contigs_from_paths(dag, paths))
            assert sorted(c.tobytes() for c in contigs) == expect, backend
