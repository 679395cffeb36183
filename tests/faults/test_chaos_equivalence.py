"""Chaos equivalence: faulted runs recover byte-identical contigs.

The fault-tolerance invariant (docs/robustness.md): under any seeded
FaultPlan whose faults fit the retry budget, every backend's final
contigs are byte-identical to the fault-free serial run — and the
fault report proves the faults actually fired.  The fast tier runs
one crafted plan per backend; the ``slow`` tier sweeps randomly
generated plans across the full backend matrix.
"""

import pytest

from repro.core.config import AssemblyConfig
from repro.core.focus import FINISH_STAGES, FocusAssembler
from repro.faults import FaultPlan, KernelFault, MessageFault, RetryPolicy
from repro.parallel.backend import BACKEND_NAMES

from tests.faults.conftest import contig_key, small_reads

#: fast in-test policy: no real backoff sleeping, quick hang detection.
POLICY = RetryPolicy(
    max_attempts=3, backoff_base=0.0, backoff_cap=0.0, task_deadline=5.0
)

#: one fault of every kernel kind, spread across stages/partitions.
KERNEL_PLAN = FaultPlan(
    kernel_faults=(
        KernelFault("error", "transitive", 0),
        KernelFault("crash", "dead_ends", 2),
        KernelFault("hang", "traversal", 1),
    ),
    hang_seconds=0.5,
)

#: one fault of every message kind (sim backend only).
MESSAGE_PLAN = FaultPlan(
    message_faults=(
        MessageFault("drop", "transitive", 1, 0),
        MessageFault("duplicate", "containment", 2, 0),
        MessageFault("delay", "bubbles", 3, 0, delay=0.1),
    ),
)


def faulted_assembler(assembler, plan):
    cfg = AssemblyConfig(
        backend_workers=2, retry=POLICY, fault_plan=plan
    )
    return FocusAssembler(cfg, cost_model=assembler.cost_model)


class TestChaosSmoke:
    """Fast tier: crafted plans, every backend, byte-identity."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_kernel_faults_recovered(self, prepared, baseline, backend):
        assembler, prep = prepared
        chaos = faulted_assembler(assembler, KERNEL_PLAN)
        result = chaos.finish(prep, n_partitions=4, backend=backend)
        assert contig_key(result) == baseline, backend
        report = result.fault_report
        assert report is not None and report.has_activity
        assert report.total_injected >= 1
        assert report.retries >= 1
        assert report.fallbacks == 0

    def test_message_faults_recovered_on_sim(self, prepared, baseline):
        assembler, prep = prepared
        chaos = faulted_assembler(assembler, MESSAGE_PLAN)
        result = chaos.finish(prep, n_partitions=4, backend="sim")
        assert contig_key(result) == baseline
        report = result.fault_report
        assert report is not None and report.has_activity
        # delay and duplicate are absorbed in-flight; the drop forces
        # at least one stage retry.
        assert set(report.injected) & {"drop", "duplicate", "delay"}

    def test_fault_report_serializes_and_summarizes(self, prepared):
        assembler, prep = prepared
        chaos = faulted_assembler(assembler, KERNEL_PLAN)
        result = chaos.finish(prep, n_partitions=4, backend="serial")
        report = result.fault_report
        d = report.to_dict()
        assert d["total_injected"] == report.total_injected >= 1
        assert d["retries"] == report.retries >= 1
        assert "injected" in report.summary()
        assert "retries" in report.summary()

    def test_align_fault_recovered_and_reported_first(self, prepared, baseline):
        assembler, _ = prepared
        plan = FaultPlan(kernel_faults=(KernelFault("error", "overlap", 0),))
        result = faulted_assembler(assembler, plan).assemble(small_reads())
        assert contig_key(result) == baseline
        assert result.fault_report.injected == {"error": 1}
        assert result.fault_report.events[0]["stage"] == "overlap"

    def test_clean_run_reports_no_activity(self, prepared):
        assembler, prep = prepared
        result = assembler.finish(prep, n_partitions=4, backend="serial")
        assert result.fault_report is not None
        assert not result.fault_report.has_activity


@pytest.mark.slow
class TestChaosMatrix:
    """Slow tier: random seeded plans x all backends x both plans."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_random_plans_recovered(self, prepared, baseline, backend, seed):
        assembler, prep = prepared
        plan = FaultPlan.random(
            seed, FINISH_STAGES, n_parts=4, n_kernel_faults=3, n_message_faults=2
        )
        plan = FaultPlan(
            seed=plan.seed,
            kernel_faults=plan.kernel_faults,
            message_faults=plan.message_faults,
            hang_seconds=0.5,
        )
        chaos = faulted_assembler(assembler, plan)
        result = chaos.finish(prep, n_partitions=4, backend=backend)
        assert contig_key(result) == baseline, (backend, seed)
        assert result.fault_report.has_activity
