"""Unit tests for FaultPlan / RetryPolicy / FaultReport."""

import json

import pytest

from repro.faults import (
    KERNEL_FAULT_KINDS,
    FaultPlan,
    FaultReport,
    KernelFault,
    RetryPolicy,
)
from repro.io.codec import decode, encode


def json_round_trip(record):
    return decode(type(record), json.loads(json.dumps(encode(record))))

#: ``FaultPlan.random(seed, FINISH_STAGES, 4)`` kernel draws, recorded
#: when plans still drew message faults after them: dropping those draws
#: changed no plan, and neither did registering ``overlap``: plans
#: draw over ``FINISH_STAGES``, not the registry.
SEEDED_KERNEL_DRAWS = {
    7: (KernelFault("error", "transitive", 2), KernelFault("error", "dead_ends", 3)),
    11: (KernelFault("crash", "bubbles", 3), KernelFault("hang", "dead_ends", 2)),
    22: (KernelFault("error", "containment", 2), KernelFault("crash", "traversal", 0)),
    33: (KernelFault("error", "dead_ends", 1), KernelFault("hang", "traversal", 3)),
}


class TestKernelFault:
    def test_attempt_gating(self):
        spec = KernelFault("error", "transitive", 1, attempts=2)
        assert spec.matches("transitive", 1, 1)
        assert spec.matches("transitive", 1, 2)
        assert not spec.matches("transitive", 1, 3)
        assert not spec.matches("transitive", 0, 1)
        assert not spec.matches("bubbles", 1, 1)

    def test_wildcard_stage(self):
        spec = KernelFault("crash", "*", 0)
        assert spec.matches("transitive", 0, 1)
        assert spec.matches("traversal", 0, 1)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel fault kind"):
            KernelFault("explode", "transitive", 0)


def test_seeded_plans_draw_over_the_finish_stages_only():
    from repro.core.focus import FINISH_STAGES

    assert FINISH_STAGES == (
        "bubbles", "containment", "dead_ends", "transitive", "traversal"
    )
    for seed, kernel_faults in SEEDED_KERNEL_DRAWS.items():
        assert FaultPlan.random(seed, FINISH_STAGES, 4) == FaultPlan(
            seed=seed, kernel_faults=kernel_faults
        ), seed


class TestFaultPlan:
    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            kernel_faults=(
                KernelFault("error", "transitive", 0),
                KernelFault("crash", "*", 0),
            )
        )
        assert plan.kernel_fault("transitive", 0, 1).kind == "error"
        assert plan.kernel_fault("bubbles", 0, 1).kind == "crash"
        assert plan.kernel_fault("bubbles", 0, 2) is None

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(
            kernel_faults=(KernelFault("error", "*", 0),)
        ).empty

    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=7,
            kernel_faults=(KernelFault("hang", "traversal", 2, attempts=2),),
            hang_seconds=1.5,
        )
        assert json_round_trip(plan) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            decode(FaultPlan, [1, 2])
        with pytest.raises(ValueError, match=r"'kernel_faults\[0\]\.part' must be an integer"):
            decode(FaultPlan, {"kernel_faults": [{"kind": "crash", "stage": "*", "part": "1"}]})

    def test_random_is_deterministic_and_serializable(self):
        stages = ("transitive", "bubbles", "traversal")
        a = FaultPlan.random(42, stages, n_parts=4)
        b = FaultPlan.random(42, stages, n_parts=4)
        assert a == b
        assert json_round_trip(a) == a
        for spec in a.kernel_faults:
            assert spec.kind in KERNEL_FAULT_KINDS
            assert spec.stage in stages
            assert 0 <= spec.part < 4
        assert FaultPlan.random(43, stages, n_parts=4) != a

    def test_scaled_to_folds_indices(self):
        plan = FaultPlan(
            kernel_faults=(KernelFault("error", "*", 7), KernelFault("hang", "*", 2))
        )
        assert [s.part for s in plan.scaled_to(2).kernel_faults] == [1, 0]


class TestRetryPolicy:
    def test_allows(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1) and policy.allows(3)
        assert not policy.allows(4)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped, not 0.4

    def test_backoff_cap_holds_with_jitter_bound(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35, jitter=0.5)
        for attempt in (1, 2, 3, 6):
            base = min(0.35, 0.1 * (2 ** (attempt - 1)))
            for token in range(8):
                value = policy.backoff(attempt, token=token)
                assert base <= value <= base * 1.5 + 1e-12

    def test_jitter_is_deterministic_per_token(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.3, jitter_seed=7)
        again = RetryPolicy(backoff_base=0.1, jitter=0.3, jitter_seed=7)
        assert policy.backoff(2, token=4) == again.backoff(2, token=4)
        assert policy.backoff(2, token="job-a") == again.backoff(2, token="job-a")

    def test_jitter_spreads_tokens(self):
        # The thundering-herd fix: distinct retry sites must not all
        # sleep the same time.
        policy = RetryPolicy(backoff_base=0.1, jitter=1.0, jitter_seed=1)
        waits = {policy.backoff(1, token=t) for t in range(16)}
        assert len(waits) > 1

    def test_jitter_seed_changes_the_stream(self):
        a = RetryPolicy(backoff_base=0.1, jitter=1.0, jitter_seed=1)
        b = RetryPolicy(backoff_base=0.1, jitter=1.0, jitter_seed=2)
        assert any(
            a.backoff(1, token=t) != b.backoff(1, token=t) for t in range(8)
        )

    def test_zero_jitter_keeps_historical_curve(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=1.0)
        assert policy.backoff(1, token=3) == pytest.approx(0.05)
        assert policy.backoff(2, token=3) == pytest.approx(0.1)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_dict_roundtrip(self):
        policy = RetryPolicy(max_attempts=5, task_deadline=1.0)
        assert json_round_trip(policy) == policy

    def test_dict_roundtrip_with_jitter(self):
        policy = RetryPolicy(jitter=0.25, jitter_seed=9)
        assert json_round_trip(policy) == policy

    def test_from_dict_accepts_pre_jitter_payloads(self):
        legacy = {
            "max_attempts": 3,
            "backoff_base": 0.05,
            "backoff_cap": 1.0,
            "task_deadline": 30.0,
            "fallback_serial": True,
        }
        policy = decode(RetryPolicy, legacy)
        assert policy.jitter == 0.0


class TestFaultReport:
    def test_counters_and_summary(self):
        report = FaultReport()
        assert not report.has_activity
        assert report.summary() == "no faults"
        report.record_injected("crash", "transitive", "part 0")
        report.record_retry("transitive", "part 0", "WorkerCrash")
        report.record_respawn("transitive", "BrokenProcessPool")
        report.record_recovery("transitive", "part 0")
        assert report.has_activity
        assert report.total_injected == 1
        assert report.retries == 1
        assert report.respawns == 1
        assert report.recovered_partitions == 1
        text = report.summary()
        assert "1 injected" in text and "1 respawns" in text

    def test_merge(self):
        a, b = FaultReport(), FaultReport()
        a.record_injected("error", "bubbles", "part 1")
        b.record_injected("error", "bubbles", "part 1")
        b.record_fallback("bubbles", "part 1")
        a.merge(b)
        assert a.total_injected == 2
        assert a.fallbacks == 1

    def test_event_log_is_bounded(self):
        report = FaultReport()
        for i in range(500):
            report.record_retry("s", f"part {i}", "E")
        assert report.retries == 500
        assert len(report.events) <= 200
        assert report.events_dropped > 0
        assert report.to_dict()["events_dropped"] == report.events_dropped
