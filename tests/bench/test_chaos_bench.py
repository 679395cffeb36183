"""Chaos-bench schema, plan generation, and report plumbing (no real runs)."""

import json
from pathlib import Path

from repro.bench.chaos_bench import (
    CHAOS_RETRY,
    SCHEMA,
    ChaosBenchRecord,
    ChaosBenchReport,
    chaos_plan,
)


def record(backend="serial", plan_seed=1, stage_s=1.0, contigs_match=True):
    return ChaosBenchRecord(
        dataset="D1",
        backend=backend,
        partitions=4,
        plan_seed=plan_seed,
        stage_s=stage_s,
        slowdown=stage_s / 0.8,
        contigs_match=contigs_match,
        n_contigs=10,
        injected=2,
        retries=2,
        respawns=1,
        fallbacks=0,
        recovered_partitions=2,
    )


class TestChaosPlan:
    def test_deterministic_over_real_stage_registry(self):
        from repro.core.focus import FINISH_STAGES
        from repro.distributed.stages import get_stage
        from repro.faults import FaultPlan

        plan = chaos_plan(7, n_parts=4)
        assert plan == chaos_plan(7, n_parts=4)
        assert not plan.empty
        for spec in plan.kernel_faults:
            assert spec.stage in FINISH_STAGES
            assert get_stage(spec.stage).name == spec.stage
        # Serializable, so the plan a cell ran under can be re-run.
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_retry_budget_outlasts_generated_plans(self):
        # CHAOS_RETRY must tolerate every fault the generator emits,
        # otherwise cells would legitimately fail the recovery gate.
        for seed in range(1, 20):
            plan = chaos_plan(seed, n_parts=4)
            assert plan.max_fault_attempts < CHAOS_RETRY.max_attempts

    def test_hangs_are_short(self):
        assert chaos_plan(1, n_parts=4).hang_seconds < CHAOS_RETRY.task_deadline


class TestReport:
    def test_json_schema_and_roundtrip(self):
        report = ChaosBenchReport(
            records=[record(plan_seed=-1, stage_s=0.8), record()],
            metadata={"cpu_count": 1, "retry": CHAOS_RETRY.to_dict()},
        )
        payload = json.loads(report.to_json())
        assert payload["schema"] == SCHEMA
        assert len(payload["results"]) == 2
        faulted = payload["results"][1]
        for key in (
            "dataset",
            "backend",
            "partitions",
            "plan_seed",
            "stage_s",
            "slowdown",
            "contigs_match",
            "injected",
            "retries",
            "respawns",
            "fallbacks",
            "recovered_partitions",
        ):
            assert key in faulted
        assert faulted["contigs_match"] is True

    def test_summary_table_flags_mismatch(self):
        report = ChaosBenchReport(
            records=[record(), record(plan_seed=2, contigs_match=False)]
        )
        table = report.summary_table()
        assert "ok" in table
        assert "MISMATCH" in table
        assert "seed 2" in table

    def test_write(self, tmp_path):
        path = tmp_path / "chaos.json"
        ChaosBenchReport(records=[record()]).write(str(path))
        assert json.loads(path.read_text())["schema"] == SCHEMA


class TestServiceAxis:
    """Gating logic of bench_service, with the scenario runner stubbed."""

    @staticmethod
    def _results(**overrides):
        from repro.service.chaos import ScenarioResult

        base = dict(
            state="done",
            contigs=b">contig_0\nACGT\n",
            wall_s=1.0,
            result={"n_contigs": 5},
        )
        made = {
            "baseline": ScenarioResult(
                scenario="baseline", job_id="b", **base
            ),
            "worker-kill": ScenarioResult(
                scenario="worker-kill",
                job_id="w",
                kills=1,
                attempts=2,
                takeovers=1,
                **base,
            ),
            "supervisor-kill": ScenarioResult(
                scenario="supervisor-kill",
                job_id="s",
                kills=2,
                attempts=2,
                takeovers=1,
                owners=2,
                **base,
            ),
            "takeover": ScenarioResult(
                scenario="takeover",
                job_id="t",
                attempts=2,
                takeovers=1,
                owners=2,
                **base,
            ),
        }
        for name, fields in overrides.items():
            for key, value in fields.items():
                setattr(made[name], key, value)
        return made

    def _run(self, monkeypatch, made):
        import repro.service.chaos as chaos_mod
        from repro.bench.chaos_bench import bench_service

        monkeypatch.setattr(
            chaos_mod, "run_scenario", lambda sc, root, reads, timeout: made[sc]
        )
        monkeypatch.setattr(
            chaos_mod, "write_service_reads", lambda path: path
        )
        return bench_service()

    def test_clean_scenarios_pass(self, monkeypatch):
        records, ok = self._run(monkeypatch, self._results())
        assert ok
        assert [r.scenario for r in records] == [
            "baseline",
            "worker-kill",
            "supervisor-kill",
            "takeover",
        ]
        assert all(r.contigs_match for r in records)
        assert all(r.dataset == "SVC" for r in records)

    def test_contig_mismatch_fails_gate(self, monkeypatch):
        made = self._results(**{"worker-kill": {"contigs": b"different"}})
        records, ok = self._run(monkeypatch, made)
        assert not ok
        bad = next(r for r in records if r.scenario == "worker-kill")
        assert not bad.contigs_match

    def test_double_takeover_fails_gate(self, monkeypatch):
        # Two stale-lease requeues for one incident means the CAS
        # arbitration failed — both supervisors acted.
        made = self._results(takeover={"takeovers": 2})
        records, ok = self._run(monkeypatch, made)
        assert not ok

    def test_single_owner_supervisor_kill_fails_gate(self, monkeypatch):
        # If one supervisor owned every attempt, the restart path was
        # never exercised.
        made = self._results(**{"supervisor-kill": {"owners": 1}})
        _, ok = self._run(monkeypatch, made)
        assert not ok

    def test_unfinished_job_fails_gate(self, monkeypatch):
        made = self._results(
            **{"supervisor-kill": {"state": "failed", "contigs": b""}}
        )
        _, ok = self._run(monkeypatch, made)
        assert not ok


class TestCheckedInTrajectory:
    """The committed BENCH_chaos.json must stay valid and fully recovered."""

    def _payload(self):
        path = Path(__file__).resolve().parents[2] / "BENCH_chaos.json"
        return json.loads(path.read_text())

    def test_checked_in_file_matches_schema(self):
        payload = self._payload()
        assert payload["schema"] == SCHEMA
        assert payload["results"], "trajectory must not be empty"
        backends = {r["backend"] for r in payload["results"]}
        assert backends == {"serial", "sim", "process", "service"}
        records = [ChaosBenchRecord(**r) for r in payload["results"]]
        # The recovery gate that produced the file: every faulted cell
        # recovered the fault-free contigs byte-for-byte.
        assert all(r.contigs_match for r in records)
        # Each backend has a baseline cell and at least one chaos cell
        # where faults actually fired.
        for backend in backends - {"service"}:
            cells = [r for r in records if r.backend == backend]
            assert any(r.plan_seed < 0 for r in cells)
            assert any(r.plan_seed >= 0 and r.injected > 0 for r in cells)

    def test_checked_in_service_axis_proves_recovery(self):
        records = [
            ChaosBenchRecord(**r)
            for r in self._payload()["results"]
            if r["backend"] == "service"
        ]
        by_scenario = {r.scenario: r for r in records}
        assert set(by_scenario) == {
            "baseline",
            "worker-kill",
            "supervisor-kill",
            "takeover",
        }
        # the kills actually happened, recovery actually resumed
        assert by_scenario["worker-kill"].kills == 1
        assert by_scenario["worker-kill"].attempts == 2
        assert by_scenario["supervisor-kill"].kills == 2
        assert by_scenario["supervisor-kill"].owners >= 2
        # exactly one supervisor won the stale-lease race
        assert by_scenario["takeover"].takeovers == 1
