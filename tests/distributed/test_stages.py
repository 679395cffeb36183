"""Kernel/merge split: registry, proposal merging, kernel purity."""

import numpy as np
import pytest

from repro.distributed.containment import containment_kernel, find_containments
from repro.distributed.stages import (
    StageSpec,
    all_stages,
    get_stage,
    register_stage,
    union_proposals,
)
from repro.distributed.transitive import find_transitive_edges, transitive_kernel
from repro.distributed.traversal import (
    extract_subpaths,
    pack_paths,
    subpath_kernel,
    unpack_paths,
)
from repro.distributed.trimming import dead_end_kernel, find_dead_ends
from tests.distributed.conftest import (
    chain_assembly,
    dag_of,
    ids,
    run_stage_on_cluster,
)
from tests.reference import finish_loop


class TestRegistry:
    def test_all_standard_stages_registered(self):
        names = {s.name for s in all_stages()}
        assert {"transitive", "containment", "dead_ends", "bubbles", "traversal"} <= names

    def test_get_stage_returns_spec(self):
        spec = get_stage("transitive")
        assert isinstance(spec, StageSpec)
        assert spec.name == "transitive"
        assert callable(spec.kernel) and callable(spec.merge)

    def test_unknown_stage_raises_with_known_names(self):
        with pytest.raises(KeyError, match="traversal"):
            get_stage("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_stage("transitive", lambda *a: None, lambda *a: None)  # noqa: ARCH002 - duplicate-name probe


class TestUnionProposals:
    def test_dedupes_and_sorts(self):
        out = union_proposals(
            [np.array([3, 1]), np.array([1, 2]), np.empty(0, dtype=np.int64)]
        )
        assert out.tolist() == [1, 2, 3]
        assert out.dtype == np.int64

    def test_empty_input(self):
        assert union_proposals([]).size == 0


class TestPackPaths:
    def test_roundtrip(self):
        paths = [[0, 1, 2], [5], [], [7, 8]]
        flat, lens = pack_paths(paths)
        assert flat.dtype == np.int64 and lens.dtype == np.int64
        assert unpack_paths(flat, lens) == paths

    def test_empty(self):
        flat, lens = pack_paths([])
        assert unpack_paths(flat, lens) == []


@pytest.fixture(scope="module")
def chain_dag():
    assembly, _ = chain_assembly(n=6)
    labels = [0, 0, 0, 1, 1, 1]
    return dag_of(assembly, labels)


class TestKernelsMatchScans:
    """Kernels return exactly what the per-partition scans find —
    the production scan and the scalar oracle alike."""

    def test_transitive_kernel(self, chain_dag):
        for part in range(2):
            nodes = chain_dag.partition_nodes(part)
            got = transitive_kernel(chain_dag, part, tolerance=2)
            for find in (finish_loop.find_transitive_edges, find_transitive_edges):
                assert ids(got) == ids(find(chain_dag, nodes, tolerance=2))

    def test_containment_kernel(self, chain_dag):
        for part in range(2):
            nodes = chain_dag.partition_nodes(part)
            got_nodes, got_edges = containment_kernel(
                chain_dag, part, min_overlap=50, min_identity=0.9
            )
            for find in (finish_loop.find_containments, find_containments):
                exp_nodes, exp_edges = find(
                    chain_dag, nodes, min_overlap=50, min_identity=0.9
                )
                assert ids(got_nodes) == ids(exp_nodes)
                assert ids(got_edges) == ids(exp_edges)

    def test_dead_end_kernel(self, chain_dag):
        for part in range(2):
            nodes = chain_dag.partition_nodes(part)
            got = dead_end_kernel(chain_dag, part, max_tip_bases=150)
            for find in (finish_loop.find_dead_ends, find_dead_ends):
                assert ids(got) == ids(find(chain_dag, nodes, max_tip_bases=150))

    def test_subpath_kernel_packs_extract(self, chain_dag):
        for part in range(2):
            visited = np.zeros(chain_dag.graph.n_nodes, dtype=bool)
            expect = extract_subpaths(chain_dag, part, visited)
            flat, lens = subpath_kernel(chain_dag, part)
            assert unpack_paths(flat, lens) == expect

    def test_kernels_do_not_mutate(self, chain_dag):
        node_before = chain_dag.node_alive.copy()
        edge_before = chain_dag.edge_alive.copy()
        transitive_kernel(chain_dag, 0, tolerance=2)
        containment_kernel(chain_dag, 0, min_overlap=50, min_identity=0.9)
        dead_end_kernel(chain_dag, 0, max_tip_bases=150)
        subpath_kernel(chain_dag, 0)
        assert (chain_dag.node_alive == node_before).all()
        assert (chain_dag.edge_alive == edge_before).all()

    def test_kernel_proposals_are_picklable(self, chain_dag):
        import pickle

        flat, lens = subpath_kernel(chain_dag, 0)
        blob = pickle.dumps((flat, lens))
        back_flat, back_lens = pickle.loads(blob)
        assert (back_flat == flat).all() and (back_lens == lens).all()


class TestRunStageOnComm:
    def test_matches_serial_merge(self):
        assembly, _ = chain_assembly(n=6)
        labels = [0, 0, 0, 1, 1, 1]
        spec = get_stage("transitive")

        serial_dag = dag_of(assembly, labels)
        proposals = [spec.kernel(serial_dag, p, tolerance=2) for p in range(2)]
        expect = spec.merge(serial_dag, proposals, tolerance=2)

        sim_dag = dag_of(assembly, labels)
        results, _ = run_stage_on_cluster("transitive", sim_dag, 2, tolerance=2)
        assert all(r == expect for r in results)
        assert (sim_dag.edge_alive == serial_dag.edge_alive).all()
