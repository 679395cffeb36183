"""ProcessBackend recovery: dead pools, hung workers, serial fallback.

These tests drive the backend directly (not through the assembler) so
they can kill real worker processes and inspect the pool.  The
acceptance case is the external ``kill -9`` of a live worker: the
backend must detect the broken pool, respawn its workers, re-run only
the unfinished partitions, and still produce the exact serial masks.
"""

import os
import signal

import numpy as np
import pytest

from repro.align.overlapper import OverlapConfig, OverlapDetector, overlap_backend
from repro.core import AssemblyConfig, finish_plan, run_plan
from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.faults import FaultPlan, KernelFault, RetryPolicy, StageExecutionError
from repro.parallel.backend import ProcessBackend, SerialBackend
from tests.align.test_engine_equivalence import assert_same_columns
from tests.faults.conftest import small_reads

PLAN = finish_plan(AssemblyConfig())

FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_base=0.0, backoff_cap=0.0, task_deadline=10.0
)


def fresh_dag(prepared):
    assembler, prep = prepared
    from repro.partition.multilevel import partition_via_hybrid

    part = partition_via_hybrid(prep.mls, prep.hyb, 4, assembler.config.partition)
    return DistributedAssemblyGraph(prep.assembly, part.labels_finest)


@pytest.fixture(scope="module")
def serial_reference(prepared):
    dag = fresh_dag(prepared)
    paths = run_plan(SerialBackend(dag), PLAN)["traversal"].result
    return dag.node_alive.copy(), dag.edge_alive.copy(), paths


def assert_plan_matches_serial(backend, serial_reference, after=None):
    """Run the finish plan on ``backend``: the exact serial masks and paths."""
    node_alive, edge_alive, ref_paths = serial_reference
    paths = run_plan(backend, PLAN, after=after)["traversal"].result
    assert (backend.subject.node_alive == node_alive).all()
    assert (backend.subject.edge_alive == edge_alive).all()
    assert all(map(np.array_equal, paths, ref_paths))


class TestExternalKill:
    def test_kill9_live_worker_recovered_by_respawn(
        self, prepared, serial_reference
    ):
        killed = []

        def kill_after_first(name, _):
            if name == PLAN[0][0]:
                killed.extend(backend.worker_pids())
                assert len(killed) == 2
                os.kill(killed[0], signal.SIGKILL)

        with ProcessBackend(fresh_dag(prepared), workers=2, retry=FAST_RETRY) as backend:
            assert_plan_matches_serial(backend, serial_reference, after=kill_after_first)
            assert killed
            assert backend.fault_report.respawns >= 1
            # The pool really was rebuilt with fresh workers.
            assert backend.worker_pids() != killed


class TestInjectedFaults:
    def test_injected_crash_is_a_real_sigkill_recovered(
        self, prepared, serial_reference
    ):
        plan = FaultPlan(
            kernel_faults=(KernelFault("crash", "containment", 1),)
        )
        dag = fresh_dag(prepared)
        with ProcessBackend(dag, workers=2, retry=FAST_RETRY, fault_plan=plan) as backend:
            assert_plan_matches_serial(backend, serial_reference)
            report = backend.fault_report
            assert report.injected.get("crash") == 1
            assert report.respawns >= 1
            assert report.recovered_partitions >= 1
            assert report.fallbacks == 0

    def test_hung_worker_killed_at_deadline_and_recovered(
        self, prepared, serial_reference
    ):
        # hang_seconds far beyond the deadline: recovery must come from
        # the pool kill, not from riding out the sleep.
        plan = FaultPlan(
            kernel_faults=(KernelFault("hang", "transitive", 0),),
            hang_seconds=30.0,
        )
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.0, backoff_cap=0.0, task_deadline=1.0
        )
        dag = fresh_dag(prepared)
        with ProcessBackend(dag, workers=2, retry=policy, fault_plan=plan) as backend:
            assert_plan_matches_serial(backend, serial_reference)
            report = backend.fault_report
            assert report.deadline_exceeded >= 1
            assert report.respawns >= 1


class TestBudgetExhaustion:
    def test_serial_fallback_after_budget(self, prepared, serial_reference):
        plan = FaultPlan(
            kernel_faults=(KernelFault("error", "bubbles", 3, attempts=99),)
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, backoff_cap=0.0, task_deadline=10.0
        )
        dag = fresh_dag(prepared)
        with ProcessBackend(dag, workers=2, retry=policy, fault_plan=plan) as backend:
            assert_plan_matches_serial(backend, serial_reference)
            report = backend.fault_report
            assert report.fallbacks >= 1
            assert report.retries >= 1

    def test_no_fallback_raises_stage_execution_error(self, prepared):
        plan = FaultPlan(
            kernel_faults=(KernelFault("error", "transitive", 0, attempts=99),)
        )
        policy = RetryPolicy(
            max_attempts=2,
            backoff_base=0.0,
            backoff_cap=0.0,
            task_deadline=10.0,
            fallback_serial=False,
        )
        dag = fresh_dag(prepared)
        with ProcessBackend(dag, workers=2, retry=policy, fault_plan=plan) as backend:
            with pytest.raises(StageExecutionError, match="transitive"):
                run_plan(backend, PLAN)


class TestOverlapStage:
    """Alignment runs under the same policy; its faults are named
    explicitly (seeded plans draw over the ``finish()`` stages only)."""

    CONFIG = OverlapConfig(min_overlap=50, n_subsets=3)

    @pytest.mark.parametrize("kind, part", [("error", 0), ("crash", 1)])
    def test_fault_retried_and_recorded(self, kind, part):
        # A transient kernel error, and a real worker SIGKILL.
        reads = small_reads(genome_len=2000)
        plan = FaultPlan(kernel_faults=(KernelFault(kind, "overlap", part),))
        with overlap_backend(reads, self.CONFIG, 2, FAST_RETRY, plan) as backend:
            packed, _ = backend.run_stage("overlap").result
        fault_free = OverlapDetector(self.CONFIG).find_overlaps_packed(reads)
        assert_same_columns(packed, fault_free)
        report = backend.fault_report
        assert report.injected == {kind: 1}
        assert report.retries >= 1 and report.recovered_partitions == 1
        assert report.respawns >= (kind == "crash") and report.fallbacks == 0

    def test_exhausted_budget_without_fallback_raises(self):
        plan = FaultPlan(
            kernel_faults=(KernelFault("crash", "overlap", 0, attempts=99),)
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, backoff_cap=0.0, fallback_serial=False
        )
        reads = small_reads(genome_len=2000)
        with overlap_backend(reads, self.CONFIG, 2, policy, plan) as backend:
            with pytest.raises(StageExecutionError, match="overlap"):
                backend.run_stage("overlap")
