"""Kernel/merge split: registry, proposal merging, kernel purity."""

import pickle
import random

import numpy as np
import pytest

from repro.align.overlapper import OverlapConfig, OverlapSubject
from repro.core import AssemblyConfig, finish_plan
from repro.core.focus import FINISH_STAGES
from repro.distributed.containment import containment_kernel, find_containments
from repro.distributed import stages
from repro.distributed.stages import (
    StageSpec,
    get_stage,
    register_stage,
    union_proposals,
)
from repro.distributed.transitive import find_transitive_edges, transitive_kernel
from repro.distributed.traversal import subpath_kernel
from repro.distributed.trimming import dead_end_kernel, find_dead_ends
from tests.distributed.conftest import (
    chain_assembly,
    dag_of,
    defect_chain_assembly,
    ids,
    run_stage_on_cluster,
)
from tests.graph.conftest import tiled_readset
from tests.reference import finish_loop
from tests.reference.traversal_walk import extract_subpaths, pack_paths, unpack_paths


def registered_stages() -> list[StageSpec]:
    """Every registered stage, sorted by name: the registry itself, once
    every stage module is imported."""
    stages._load_stage_modules()
    return [stages._STAGES[name] for name in sorted(stages._STAGES)]


class TestRegistry:
    def test_all_standard_stages_registered(self):
        for name, _ in finish_plan(AssemblyConfig()):
            assert get_stage(name).name == name

    def test_registry_holds_only_the_stages_assembly_runs(self):
        # prepare() runs ``overlap`` and finish() the finish plan; a
        # stage nothing runs is dead code the orphan-module guard misses,
        # as the registry's own import counts as its caller.
        assert {spec.name for spec in registered_stages()} == {"overlap", *FINISH_STAGES}
        with pytest.raises(KeyError):
            get_stage("variants")

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
            register_stage("transitive", lambda *a: None, lambda *a: None)

    def test_misnamed_kernel_rejected(self):
        # MEM001 finds kernels by their ``*_kernel`` name.
        def trim(subject, part):
            return []

        with pytest.raises(ValueError, match="not named"):
            register_stage("misnamed", trim, lambda *a: None)
        with pytest.raises(KeyError):
            get_stage("misnamed")


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
    """The oracle's encoding of walked paths, which the production
    kernel's packed output is compared against."""

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


#: subject kind and kernel parameters of every registered stage; the
#: contract test runs each kernel on its subject.
CONTRACT_CASES = {
    **{name: ("dag", p) for name, p in finish_plan(AssemblyConfig())},
    "overlap": ("reads", {}),
}


def uncovered_stages(specs):
    """Names of ``specs`` with no case in :data:`CONTRACT_CASES`."""
    return sorted(s.name for s in specs if s.name not in CONTRACT_CASES)


@pytest.fixture(scope="module")
def contract_subjects():
    """Builders of fresh subjects on which every stage has work."""
    backbone, n_parts = 90, 3
    assembly, anchors, _ = defect_chain_assembly(backbone, seed=5)
    labels = anchors * n_parts // backbone
    reads, _ = tiled_readset(genome_len=1200, stride=30)
    return {
        "dag": lambda: dag_of(assembly, labels),
        "reads": lambda: OverlapSubject(reads, OverlapConfig(n_subsets=3), n_parts=2),
    }


@pytest.fixture
def seed_global_rngs():
    """Reseeds the global ``random`` and ``np.random``; restores them after.

    The contract test drives the hidden global state on purpose, to
    show that no kernel reads it.
    """
    saved = random.getstate(), np.random.get_state()  # noqa: DET001

    def seed(value):
        random.seed(value)  # noqa: DET001
        np.random.seed(value)  # noqa: DET001

    yield seed
    random.setstate(saved[0])  # noqa: DET001
    np.random.set_state(saved[1])  # noqa: DET001


def proposal_size(proposal):
    """Ids, paths or records in one proposal (0 when the part had no work)."""
    if isinstance(proposal, np.ndarray):
        return proposal.size
    if isinstance(proposal, (list, tuple)):
        return sum(proposal_size(p) for p in proposal)
    return 1


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
            assert flat.dtype == lens.dtype == np.int64

    def test_kernels_do_not_mutate(self, contract_subjects, seed_global_rngs):
        """The kernel contract, checked by running every registered
        kernel on every part: the subject's state is bit-identical
        after each call, and the proposals (as the pickled bytes the
        process backend ships) depend neither on the order the parts
        run in nor on the global ``random`` / ``np.random`` state."""
        assert uncovered_stages(registered_stages()) == []
        for spec in registered_stages():
            kind, params = CONTRACT_CASES[spec.name]
            subject = contract_subjects[kind]()
            parts = range(subject.n_parts)
            assert subject.n_parts >= 2, spec.name
            state = pickle.dumps(subject.state)

            def run(order, seed):
                seed_global_rngs(seed)
                blobs = {}
                for part in order:
                    proposal = spec.kernel(subject, part, **params)
                    assert pickle.dumps(subject.state) == state, (
                        f"{spec.name} kernel mutated the subject on part {part}"
                    )
                    blobs[part] = pickle.dumps(proposal)
                return blobs

            forward = run(parts, seed=0)
            assert sum(
                proposal_size(pickle.loads(b)) for b in forward.values()
            ) > 0, f"{spec.name} has no work on this subject"
            assert run(reversed(parts), seed=0) == forward, (
                f"{spec.name} proposals depend on the part order"
            )
            assert run(parts, seed=1) == forward, (
                f"{spec.name} proposals depend on the global RNG"
            )

    def test_unlisted_stage_fails_the_guard(self):
        extra = StageSpec("extra", subpath_kernel, lambda *a: None)
        assert uncovered_stages([*registered_stages(), extra]) == ["extra"]

    def test_kernel_proposals_are_picklable(self, chain_dag):
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
