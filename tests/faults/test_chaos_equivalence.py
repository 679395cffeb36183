"""Chaos equivalence: faulted process runs recover byte-identical contigs.

The fault-tolerance invariant (docs/robustness.md): under any seeded
FaultPlan whose faults fit the retry budget, the process backend's
final contigs are byte-identical to the fault-free serial run — and the
fault report proves the faults actually fired.  A plan fires only in
process workers (serial and sim refuse one).  The fast tier runs one
crafted plan; the ``slow`` tier sweeps randomly generated plans.
"""

from dataclasses import replace

import pytest

from repro.align.overlapper import OverlapConfig
from repro.core.config import AssemblyConfig
from repro.core.focus import FINISH_STAGES, FocusAssembler
from repro.faults import FaultPlan, KernelFault, RetryPolicy

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


def faulted_assembler(assembler, plan, **config):
    cfg = AssemblyConfig(
        backend="process", backend_workers=2, retry=POLICY, fault_plan=plan, **config
    )
    return FocusAssembler(cfg, cost_model=assembler.cost_model)


class TestChaosSmoke:
    """Fast tier: a crafted plan on process workers, byte-identity."""

    def test_kernel_faults_recovered(self, prepared, baseline):
        assembler, prep = prepared
        result = faulted_assembler(assembler, KERNEL_PLAN).finish(prep, n_partitions=4)
        assert contig_key(result) == baseline
        report = result.fault_report
        assert report is not None and report.has_activity
        assert report.total_injected >= 1
        assert report.retries >= 1
        assert report.fallbacks == 0

    def test_fault_report_serializes_and_summarizes(self, prepared):
        assembler, prep = prepared
        result = faulted_assembler(assembler, KERNEL_PLAN).finish(prep, n_partitions=4)
        report = result.fault_report
        d = report.to_dict()
        assert d["total_injected"] == report.total_injected >= 1
        assert d["retries"] == report.retries >= 1
        assert "injected" in report.summary()
        assert "retries" in report.summary()

    def test_align_fault_recovered_and_reported_first(self, prepared, baseline):
        assembler, _ = prepared
        plan = FaultPlan(kernel_faults=(KernelFault("error", "overlap", 0),))
        chaos = faulted_assembler(
            assembler, plan, overlap=OverlapConfig(n_subsets=2), overlap_workers=2
        )
        result = chaos.assemble(small_reads())
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
    """Slow tier: random seeded plans on process workers."""

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_random_plans_recovered(self, prepared, baseline, seed):
        assembler, prep = prepared
        plan = FaultPlan.random(seed, FINISH_STAGES, n_parts=4, n_kernel_faults=3)
        chaos = faulted_assembler(assembler, replace(plan, hang_seconds=0.5))
        result = chaos.finish(prep, n_partitions=4)
        assert contig_key(result) == baseline, seed
        assert result.fault_report.has_activity
