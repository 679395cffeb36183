"""Recovery-overhead benchmark under injected faults (``repro bench chaos``).

Runs the distributed finish stages on the D1 dataset fault-free and
then under seeded chaos :class:`~repro.faults.FaultPlan`s on each
execution backend, and writes the recovery record to
``BENCH_chaos.json``: slowdown versus the fault-free run of the same
backend, plus the recovery activity that produced it (retries,
respawns, fallbacks, recovered partitions).

The correctness gate is the fault-tolerance invariant itself
(docs/robustness.md): every faulted run must recover contigs
**byte-identical** to the fault-free run of the same backend, or the
harness exits 2.  Overhead is reported, never gated — injected chaos
is *supposed* to cost time; it is not supposed to cost correctness.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.bench.datasets import BenchDataset, standard_datasets
from repro.bench.reporting import format_table
from repro.core.config import AssemblyConfig
from repro.core.focus import FINISH_STAGES, FocusAssembler
from repro.faults import FaultPlan, RetryPolicy

__all__ = [
    "ChaosBenchRecord",
    "ChaosBenchReport",
    "chaos_plan",
    "bench_backend",
    "bench_service",
    "run_chaos_bench",
    "main",
]

#: schema of one record in ``BENCH_chaos.json``; bump when fields change.
#: v2: service-axis records (scenario/kills/takeovers/owners/attempts).
SCHEMA = "repro.bench.chaos/v2"

DEFAULT_OUTPUT = "BENCH_chaos.json"
DEFAULT_DATASET = "D1"
DEFAULT_BACKENDS = ("serial", "sim", "process")
DEFAULT_SEEDS = (1, 2)
DEFAULT_PARTITIONS = 4

#: how long an injected hang sleeps inside a real process worker —
#: kept short so a leaked worker exits quickly (in-process backends
#: model hangs as immediate deadline failures and never sleep).
HANG_SECONDS = 0.3
#: retry policy used for every chaos cell: enough attempts to outlast
#: the generated plans, no backoff sleeping, and a deadline that kills
#: hung process workers quickly.
CHAOS_RETRY = RetryPolicy(
    max_attempts=3, backoff_base=0.0, backoff_cap=0.0, task_deadline=2.0
)


@dataclass(frozen=True)
class ChaosBenchRecord:
    """One (backend, fault-plan seed) recovery measurement."""

    dataset: str
    backend: str
    partitions: int
    #: fault-plan seed; -1 for the fault-free baseline cell.
    plan_seed: int
    #: distributed-stage wall seconds for this run.
    stage_s: float
    #: ``stage_s`` / fault-free ``stage_s`` on the same backend.
    slowdown: float
    #: recovered contigs byte-identical to the fault-free run.
    contigs_match: bool
    n_contigs: int
    #: fault/recovery accounting (``FaultReport.to_dict()`` subset).
    injected: int = 0
    retries: int = 0
    respawns: int = 0
    fallbacks: int = 0
    recovered_partitions: int = 0
    #: which chaos axis produced this record: ``"faultplan"`` for the
    #: in-process injected faults above, or a service scenario name
    #: (``baseline`` / ``worker-kill`` / ``supervisor-kill`` /
    #: ``takeover``) for whole-process SIGKILL recovery.
    scenario: str = "faultplan"
    #: processes SIGKILLed by a service scenario.
    kills: int = 0
    #: stale-lease requeues journaled (the takeover gate wants exactly 1).
    takeovers: int = 0
    #: distinct supervisors that leased the job.
    owners: int = 1
    #: final attempt counter (1 = never requeued).
    attempts: int = 1


@dataclass
class ChaosBenchReport:
    """A full chaos run: records plus environment metadata."""

    records: list[ChaosBenchRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEMA,
                "metadata": self.metadata,
                "results": [asdict(r) for r in self.records],
            },
            indent=2,
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def summary_table(self) -> str:
        rows = []
        for r in self.records:
            if r.scenario != "faultplan":
                plan = r.scenario
            elif r.plan_seed < 0:
                plan = "baseline"
            else:
                plan = f"seed {r.plan_seed}"
            rows.append(
                [
                    r.backend,
                    plan,
                    f"{r.stage_s:.3f}",
                    f"{r.slowdown:.2f}x",
                    r.injected,
                    r.retries,
                    r.respawns,
                    r.fallbacks,
                    r.kills,
                    r.attempts,
                    "ok" if r.contigs_match else "MISMATCH",
                ]
            )
        return format_table(
            [
                "Backend",
                "Plan",
                "Stage (s)",
                "Slowdown",
                "Injected",
                "Retries",
                "Respawns",
                "Fallbacks",
                "Kills",
                "Attempts",
                "Contigs",
            ],
            rows,
        )


def chaos_plan(seed: int, n_parts: int) -> FaultPlan:
    """The seeded plan one chaos cell runs under.

    Drawn over the stages ``finish()`` runs (a seed keeps naming the
    plan ``BENCH_chaos.json`` recorded under it), with short hangs
    (see :data:`HANG_SECONDS`) and single-attempt faults so
    :data:`CHAOS_RETRY` always outlasts the plan.
    """
    plan = FaultPlan.random(seed, FINISH_STAGES, n_parts)
    return replace(plan, hang_seconds=HANG_SECONDS)


def _stage_total(stage_times: dict[str, float]) -> float:
    return sum(v for k, v in stage_times.items() if k != "trim_total")


def _contig_key(contigs: list[np.ndarray]) -> list[bytes]:
    return sorted(c.tobytes() for c in contigs)


def bench_backend(
    assembler: FocusAssembler,
    prep,
    dataset_name: str,
    backend: str,
    seeds: tuple[int, ...],
    n_partitions: int,
) -> tuple[list[ChaosBenchRecord], bool]:
    """Fault-free baseline plus one faulted run per seed on one backend.

    Returns the records and an all-matched flag (every faulted run
    recovered the baseline contigs byte-for-byte).
    """
    base = assembler.finish(prep, n_partitions=n_partitions, backend=backend)
    base_s = _stage_total(base.virtual_times)
    base_key = _contig_key(base.contigs)
    records = [
        ChaosBenchRecord(
            dataset=dataset_name,
            backend=backend,
            partitions=n_partitions,
            plan_seed=-1,
            stage_s=base_s,
            slowdown=1.0,
            contigs_match=True,
            n_contigs=base.stats.n_contigs,
        )
    ]
    all_match = True
    for seed in seeds:
        chaos_cfg = replace(
            assembler.config,
            retry=CHAOS_RETRY,
            fault_plan=chaos_plan(seed, n_partitions),
        )
        chaos = FocusAssembler(chaos_cfg, cost_model=assembler.cost_model)
        result = chaos.finish(prep, n_partitions=n_partitions, backend=backend)
        stage_s = _stage_total(result.virtual_times)
        match = _contig_key(result.contigs) == base_key
        all_match = all_match and match
        report = result.fault_report
        records.append(
            ChaosBenchRecord(
                dataset=dataset_name,
                backend=backend,
                partitions=n_partitions,
                plan_seed=seed,
                stage_s=stage_s,
                slowdown=stage_s / base_s if base_s > 0 else 1.0,
                contigs_match=match,
                n_contigs=result.stats.n_contigs,
                injected=report.total_injected if report else 0,
                retries=report.retries if report else 0,
                respawns=report.respawns if report else 0,
                fallbacks=report.fallbacks if report else 0,
                recovered_partitions=report.recovered_partitions if report else 0,
            )
        )
    return records, all_match


def bench_service(
    workdir: str | None = None, timeout: float = 180.0
) -> tuple[list[ChaosBenchRecord], bool]:
    """The service axis: SIGKILL whole processes, gate full recovery.

    Runs the four :data:`~repro.service.chaos.SCENARIOS` on the small
    deterministic SVC dataset.  A scenario passes when the job ends
    ``done`` with contigs byte-identical to the unkilled baseline run;
    the ``takeover`` scenario additionally requires *exactly one*
    stale-lease requeue (two racing supervisors, one winner) and the
    ``supervisor-kill`` scenario requires the job to have been owned by
    two distinct supervisors.
    """
    import tempfile

    from repro.service.chaos import (
        SCENARIOS,
        run_scenario,
        write_service_reads,
    )

    records: list[ChaosBenchRecord] = []
    all_ok = True
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        reads = write_service_reads(os.path.join(tmp, "reads.fasta"))
        base_contigs = b""
        base_wall = 0.0
        for scenario in SCENARIOS:
            res = run_scenario(
                scenario, os.path.join(tmp, scenario), reads, timeout=timeout
            )
            if scenario == "baseline":
                base_contigs = res.contigs
                base_wall = res.wall_s
                ok = res.state == "done" and bool(res.contigs)
            else:
                ok = res.state == "done" and res.contigs == base_contigs
                if scenario == "takeover":
                    ok = ok and res.takeovers == 1
                if scenario == "supervisor-kill":
                    ok = ok and res.owners >= 2
            all_ok = all_ok and ok
            records.append(
                ChaosBenchRecord(
                    dataset="SVC",
                    backend="service",
                    partitions=4,
                    plan_seed=-1,
                    stage_s=res.wall_s,
                    slowdown=res.wall_s / base_wall if base_wall > 0 else 1.0,
                    contigs_match=ok,
                    n_contigs=int(res.result.get("n_contigs", 0)),
                    scenario=scenario,
                    kills=res.kills,
                    takeovers=res.takeovers,
                    owners=res.owners,
                    attempts=res.attempts,
                )
            )
    return records, all_ok


def run_chaos_bench(
    dataset: BenchDataset | None = None,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    n_partitions: int = DEFAULT_PARTITIONS,
) -> tuple[ChaosBenchReport, bool]:
    """Chaos-test every backend; returns (report, all recovered)."""
    if dataset is None:
        dataset = next(
            d for d in standard_datasets() if d.name == DEFAULT_DATASET
        )
    cpu_count = os.cpu_count()
    # On a single-core host ProcessBackend needs >= 2 granted workers
    # to exercise the real pool (its fallback path is serial).
    workers = max(2, cpu_count or 1)
    config = AssemblyConfig(backend_workers=workers)
    assembler = FocusAssembler(config)
    prep = assembler.prepare(dataset.reads)
    report = ChaosBenchReport(
        metadata={
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": cpu_count,
            "dataset": dataset.name,
            "partitions": n_partitions,
            "seeds": list(seeds),
            "backends": list(backends),
            "workers": workers,
            "retry": CHAOS_RETRY.to_dict(),
        }
    )
    all_match = True
    for backend in backends:
        records, matched = bench_backend(
            assembler, prep, dataset.name, backend, seeds, n_partitions
        )
        report.records.extend(records)
        all_match = all_match and matched
    return report, all_match


def main(
    output: str = DEFAULT_OUTPUT,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    n_partitions: int = DEFAULT_PARTITIONS,
    service: bool = False,
    stream=None,
) -> int:
    """CLI entry point for ``repro bench chaos``.

    ``service=True`` appends the whole-process SIGKILL axis (worker
    kill, supervisor kill, two-supervisor takeover race) on the SVC
    dataset.  Exit codes: 0 every chaos cell recovered the fault-free
    contigs byte-for-byte (and the service gates held); 2 at least one
    did not (results written either way).
    """
    stream = stream or sys.stdout
    report, all_match = run_chaos_bench(
        backends=backends, seeds=seeds, n_partitions=n_partitions
    )
    if service:
        service_records, service_ok = bench_service()
        report.records.extend(service_records)
        report.metadata["service_scenarios"] = [
            r.scenario for r in service_records
        ]
        all_match = all_match and service_ok
    report.write(output)
    print(report.summary_table(), file=stream)
    print(f"wrote {len(report.records)} records to {output}", file=stream)
    if not all_match:
        print(
            "FAIL: a chaos run did not recover the fault-free contigs "
            "(or a service recovery gate failed)",
            file=stream,
        )
        return 2
    return 0
