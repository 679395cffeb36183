"""Execution backends: serial/sim/process equivalence and plumbing."""

import threading

import numpy as np
import pytest

from repro.align.overlapper import (
    OverlapConfig,
    OverlapDetector,
    OverlapSubject,
    overlap_backend,
)
from repro.core import AssemblyConfig, finish_plan, run_plan
from repro.distributed.stages import StageSpec, get_stage
from repro.faults import FaultPlan, KernelFault
from repro.parallel.backend import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    StageOutcome,
    create_backend,
)
from tests.align.test_overlapper import tiled_reads
from tests.distributed.conftest import FAST, chain_assembly, dag_of
from tests.reference.overlap_loop import assert_same_columns

LABELS_6 = [0, 0, 0, 1, 1, 1]
PLAN = finish_plan(AssemblyConfig())


def fresh_dag():
    assembly, _ = chain_assembly(n=6)
    return dag_of(assembly, LABELS_6)


class TestSerialBackend:
    def test_outcome_shape(self):
        engine = SerialBackend(fresh_dag())
        out = engine.run_stage("transitive", tolerance=2)
        assert isinstance(out, StageOutcome)
        assert out.stage == "transitive"
        assert out.time_kind == "wall"
        assert out.elapsed >= 0.0

    def test_context_manager(self):
        with SerialBackend(fresh_dag()) as engine:
            assert engine.run_stage("traversal").result[1].size


class TestPartitionCosts:
    def test_counts_alive_nodes_per_partition(self):
        dag = fresh_dag()
        assert dag.partition_costs().tolist() == [3.0, 3.0]
        dag.node_alive[0] = False
        assert dag.partition_costs().tolist() == [2.0, 3.0]


class TestCreateBackend:
    def test_names(self):
        assert BACKEND_NAMES == ("serial", "sim", "process")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_creates_each(self, name):
        engine = create_backend(name, fresh_dag(), cost_model=FAST)
        try:
            assert engine.name == name
            assert engine.time_kind == ("virtual" if name == "sim" else "wall")
        finally:
            engine.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("threads", fresh_dag())

    @pytest.mark.parametrize("name", ["serial", "sim"])
    def test_fault_plan_refused_off_process(self, name):
        plan = FaultPlan(kernel_faults=(KernelFault("error", "*", 0),))
        with pytest.raises(ValueError, match="process workers"):
            create_backend(name, fresh_dag(), fault_plan=plan)


class TestKernelErrorsPropagate:
    """A kernel that raises in the calling process would raise again:
    serial and sim run it once and fail loudly."""

    def test_serial_runs_a_failing_kernel_once(self):
        calls = []

        def failing_kernel(subject, part, **params):
            calls.append(part)
            raise RuntimeError("kernel bug")

        spec = StageSpec("transitive", failing_kernel, get_stage("transitive").merge)
        with pytest.raises(RuntimeError, match="kernel bug"):
            SerialBackend(fresh_dag()).run_stage(spec, tolerance=2)
        assert calls == [0]

    def test_sim_raises_and_names_the_rank(self):
        transitive = get_stage("transitive")

        def rank_one_kernel(subject, part, **params):
            if part == 1:
                raise RuntimeError("kernel bug on rank 1")
            return transitive.kernel(subject, part, **params)

        spec = StageSpec("transitive", rank_one_kernel, transitive.merge)
        with create_backend("sim", fresh_dag(), cost_model=FAST) as engine:
            with pytest.raises(RuntimeError, match="rank 1 failed.*kernel bug"):
                engine.run_stage(spec, tolerance=2)
            assert not engine.fault_report.has_activity

    def test_sim_names_the_lowest_failing_rank_every_time(self):
        transitive = get_stage("transitive")

        def two_rank_kernel(subject, part, **params):
            if part == 1:
                sum(range(200_000))  # rank 1 fails after rank 2 in wall time
            if part in (1, 2):
                raise RuntimeError(f"kernel bug on rank {part}")
            return transitive.kernel(subject, part, **params)

        spec = StageSpec("transitive", two_rank_kernel, transitive.merge)
        assembly, _ = chain_assembly(n=6)
        dag = dag_of(assembly, [0, 0, 1, 1, 2, 2])
        for _ in range(20):
            with create_backend("sim", dag, cost_model=FAST) as engine:
                with pytest.raises(RuntimeError, match="rank 1 failed.*kernel bug on rank 1"):
                    engine.run_stage(spec, tolerance=2)

    def test_sim_runs_every_rank_on_the_calling_thread(self):
        transitive = get_stage("transitive")
        seen = []

        def recording_kernel(subject, part, **params):
            seen.append((threading.current_thread(), threading.active_count()))
            return transitive.kernel(subject, part, **params)

        spec = StageSpec("transitive", recording_kernel, transitive.merge)
        before = threading.active_count()
        with create_backend("sim", fresh_dag(), cost_model=FAST) as engine:
            engine.run_stage(spec, tolerance=2)
        assert seen == [(threading.current_thread(), before)] * 2


class TestProcessBackend:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(fresh_dag(), workers=-1)

    def test_single_partition_falls_back_to_serial(self):
        assembly, _ = chain_assembly(n=4)
        dag = dag_of(assembly, [0, 0, 0, 0])
        engine = ProcessBackend(dag, workers=4)
        try:
            out = engine.run_stage("traversal")
            assert out.result[1].size  # ran fine without ever building a pool
            assert engine._pool is None
        finally:
            engine.close()

    def test_real_pool_matches_serial(self):
        # workers=2 forces a genuine pool even on single-core hosts.
        serial_dag, process_dag = fresh_dag(), fresh_dag()
        serial_paths = run_plan(SerialBackend(serial_dag), PLAN)["traversal"].result
        with ProcessBackend(process_dag, workers=2) as engine:
            outcomes = run_plan(engine, PLAN)
            assert engine._pool is not None  # the pool really ran
        process_paths = outcomes["traversal"].result
        assert all(map(np.array_equal, process_paths, serial_paths))
        assert (process_dag.node_alive == serial_dag.node_alive).all()
        assert (process_dag.edge_alive == serial_dag.edge_alive).all()
        assert all(o.time_kind == "wall" for o in outcomes.values())


class TestBackendEquivalenceSmall:
    def test_all_backends_identical_masks_and_paths(self):
        results = {}
        for name in BACKEND_NAMES:
            dag = fresh_dag()
            engine = create_backend(name, dag, workers=2, cost_model=FAST)
            try:
                paths = run_plan(engine, PLAN)["traversal"].result
            finally:
                engine.close()
            results[name] = (paths, dag.node_alive.copy(), dag.edge_alive.copy())
        base_paths, base_nodes, base_edges = results["serial"]
        for name in ("sim", "process"):
            paths, nodes, edges = results[name]
            assert all(map(np.array_equal, paths, base_paths)), name
            assert (nodes == base_nodes).all(), name
            assert (edges == base_edges).all(), name

    def test_sim_backend_reports_virtual_time(self):
        dag = fresh_dag()
        engine = create_backend("sim", dag, cost_model=FAST)
        try:
            out = engine.run_stage("transitive", tolerance=2)
        finally:
            engine.close()
        assert out.time_kind == "virtual"
        assert out.elapsed > 0.0


class TestOverlapStage:
    """Alignment is one more stage on the same three backends."""

    def test_identical_to_serial(self):
        reads, _ = tiled_reads(genome_len=1200)
        config = OverlapConfig(min_overlap=50, n_subsets=4)
        serial = OverlapDetector(config).find_overlaps(reads)
        with overlap_backend(reads, config, n_workers=2) as backend:
            packed, candidates = backend.run_stage("overlap").result
            assert backend._pool is not None  # the pool really ran
        assert_same_columns(packed, serial)  # row for row, in order
        assert len(backend.subject.pairs) == 10 and backend.subject.n_parts == 2
        assert candidates > 0
        assert backend.retry.task_deadline is None  # sized for graph kernels

    def test_single_worker_short_circuits(self):
        reads, _ = tiled_reads(genome_len=600)
        config = OverlapConfig(min_overlap=50, n_subsets=2)
        serial = OverlapDetector(config).find_overlaps(reads)
        with overlap_backend(reads, config, n_workers=1) as backend:
            assert isinstance(backend, SerialBackend)
            assert_same_columns(backend.run_stage("overlap").result[0], serial)
        # One work unit: the process backend spawns nothing either.
        with overlap_backend(reads, OverlapConfig(min_overlap=50), 2) as backend:
            backend.run_stage("overlap")
            assert backend._pool is None

    def test_detector_facade(self):
        reads, _ = tiled_reads(genome_len=800)
        detector = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=3))
        serial = detector.find_overlaps(reads)
        serial_candidates = detector.last_candidates
        assert_same_columns(detector.find_overlaps(reads, n_workers=2), serial)
        assert detector.last_candidates == serial_candidates

    def test_candidate_counts_match_serial(self):
        reads, _ = tiled_reads(genome_len=1000)
        config = OverlapConfig(min_overlap=50, n_subsets=4)
        detector = OverlapDetector(config)
        detector.find_overlaps(reads)
        for name in BACKEND_NAMES:
            subject = OverlapSubject(reads, config, n_parts=3)
            with create_backend(name, subject, workers=2, cost_model=FAST) as backend:
                _, candidates = backend.run_stage("overlap").result
            assert candidates == detector.last_candidates, name
