"""Service-level chaos scenarios: hard kills with full-stack recovery.

Where :mod:`repro.faults` injects faults *inside* a cooperating
process, these scenarios kill whole processes with SIGKILL — no
handlers, no cleanup, no goodbye — and then let the service machinery
(stale-lease detection, journaled requeue, checkpoint resume) put the
job back together.  Each scenario returns a :class:`ScenarioResult`
whose ``contigs`` are the final output bytes;
``tests/service/test_recovery.py`` gates them byte-identical against
the unkilled baseline.

Scenarios:

``baseline``
    Submit and drain, nothing killed.  The byte-identity reference.
``worker-kill``
    SIGKILL the worker process after its first durable stage
    checkpoint; the same supervisor detects the expired lease and
    requeues, and attempt 2 resumes from the checkpoint.
``supervisor-kill``
    Run ``repro serve`` as a subprocess, SIGKILL the worker *and* the
    supervisor mid-stage, then start a fresh supervisor on the same
    store.  Exercises the full restart path: nothing survives but the
    disk.
``takeover``
    A lease abandoned by a "dead" supervisor expires while two live
    supervisors race to recover the job.  The rename-CAS guarantees
    exactly one performs the requeue (``takeovers == 1``).

Every wait loop is bounded by a deadline (lint rule ROB002) — a chaos
harness that can hang forever would itself need a chaos harness.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.core.config import AssemblyConfig
from repro.faults import RetryPolicy
from repro.service import lease as lease_mod
from repro.service.jobstore import JobStore
from repro.service.jobs import JobSpec
from repro.service.supervisor import Supervisor

__all__ = [
    "SCENARIOS",
    "ScenarioResult",
    "write_service_reads",
    "run_scenario",
]

#: scenario names in run order (baseline first: it is the reference).
SCENARIOS = ("baseline", "worker-kill", "supervisor-kill", "takeover")

#: stall after each stage checkpoint — widens the kill window so the
#: SIGKILL reliably lands mid-pipeline, not after completion.
PAUSE_BETWEEN_STAGES = 0.15
#: lease TTL for chaos runs: short, so recovery is fast to observe.
LEASE_TTL = 1.0
POLL_INTERVAL = 0.02
#: retry policy for chaos jobs: enough attempts to survive the kills,
#: near-zero (but jittered) backoff so runs stay fast.
CHAOS_RETRY = RetryPolicy(
    max_attempts=4, backoff_base=0.05, backoff_cap=0.1, jitter=0.5
)

_SERVICE_GENOME_LEN = 6000
_SERVICE_COVERAGE = 10
_SERVICE_SEED = 3


class ScenarioTimeout(RuntimeError):
    """A bounded chaos wait expired before the condition held."""


@dataclass
class ScenarioResult:
    """Outcome of one chaos scenario on one fresh job store."""

    scenario: str
    job_id: str
    state: str
    #: final contig FASTA bytes (empty if the job never finished).
    contigs: bytes
    #: processes SIGKILLed by the scenario.
    kills: int = 0
    #: attempt counter of the final record (1 = never requeued).
    attempts: int = 1
    #: stale-lease requeues journaled ("exactly one" is the race gate).
    takeovers: int = 0
    #: distinct supervisor owners that leased the job.
    owners: int = 1
    result: dict = field(default_factory=dict)


def write_service_reads(path: str) -> str:
    """Simulate the small deterministic SVC read set into ``path``."""
    import numpy as np

    from repro.io.fasta import write_fasta
    from repro.simulate.genome import Genome, random_genome
    from repro.simulate.reads import ReadSimConfig, ReadSimulator

    genome = Genome(
        "svc",
        random_genome(
            _SERVICE_GENOME_LEN, np.random.default_rng(_SERVICE_SEED)
        ),
    )
    sim = ReadSimulator(
        ReadSimConfig(
            read_length=100, coverage=_SERVICE_COVERAGE, seed=_SERVICE_SEED
        )
    )
    write_fasta(sim.simulate_genome(genome), path)
    return path


def _chaos_spec(reads_path: str, pause: float = PAUSE_BETWEEN_STAGES) -> JobSpec:
    return JobSpec(
        name="chaos",
        reads_path=reads_path,
        config=AssemblyConfig(backend="serial", seed=7, retry=CHAOS_RETRY),
        pause_between_stages=pause,
    )


def _wait(predicate, timeout: float, what: str, interval: float = POLL_INTERVAL):
    """Poll ``predicate`` until truthy; raise on the bounded deadline."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise ScenarioTimeout(f"timed out after {timeout}s waiting for {what}")


def _worker_pid_after_checkpoints(
    store: JobStore, job_id: str, n_checkpoints: int, supervisor_pid: int
):
    """The worker's pid once >= n stage checkpoints are journaled."""

    def ready():
        lease = lease_mod.read(store.job_dir(job_id))
        if lease is None or lease.pid == supervisor_pid:
            return None
        done = sum(
            1
            for e in store.journal(job_id)
            if e.record.state == "checkpointing"
        )
        return lease.pid if done >= n_checkpoints else None

    return ready


def _collect(store: JobStore, job_id: str, scenario: str, **extra):
    record = store.load_record(job_id)
    entries = store.journal(job_id)
    contigs = b""
    result: dict = {}
    if record.state == "done":
        with open(store.contigs_path(job_id), "rb") as fh:
            contigs = fh.read()
        result = store.load_result(job_id)
    takeovers = sum(
        1 for e in entries if e.info.get("requeue") == "stale lease"
    )
    owners = len(
        {
            e.info.get("owner")
            for e in entries
            if e.record.state == "leased" and e.info.get("owner")
        }
    )
    return ScenarioResult(
        scenario=scenario,
        job_id=job_id,
        state=record.state,
        contigs=contigs,
        attempts=record.attempt,
        takeovers=takeovers,
        owners=owners,
        result=result,
        **extra,
    )


def _run_baseline(root: str, reads_path: str, timeout: float) -> ScenarioResult:
    store = JobStore(root, create=True)
    record = store.submit(_chaos_spec(reads_path, pause=0.0))
    Supervisor(
        store, lease_ttl=LEASE_TTL, poll_interval=POLL_INTERVAL
    ).run(drain=True, max_seconds=timeout)
    return _collect(store, record.job_id, "baseline")


def _run_worker_kill(
    root: str, reads_path: str, timeout: float
) -> ScenarioResult:
    store = JobStore(root, create=True)
    record = store.submit(_chaos_spec(reads_path))
    sup = Supervisor(store, lease_ttl=LEASE_TTL, poll_interval=POLL_INTERVAL)
    sup.poll_once()
    pid = _wait(
        _worker_pid_after_checkpoints(store, record.job_id, 1, os.getpid()),
        timeout,
        "worker checkpoint",
    )
    os.kill(pid, signal.SIGKILL)
    sup.run(drain=True, max_seconds=timeout)
    return _collect(store, record.job_id, "worker-kill", kills=1)


def _serve_argv(root: str, owner: str, timeout: float) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        root,
        "--drain",
        "--owner",
        owner,
        "--lease-ttl",
        str(LEASE_TTL),
        "--poll-interval",
        str(POLL_INTERVAL),
        "--max-seconds",
        str(timeout),
    ]


def _run_supervisor_kill(
    root: str, reads_path: str, timeout: float
) -> ScenarioResult:
    store = JobStore(root, create=True)
    record = store.submit(_chaos_spec(reads_path))
    serve = subprocess.Popen(
        _serve_argv(root, "doomed", timeout),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )
    try:
        pid = _wait(
            _worker_pid_after_checkpoints(store, record.job_id, 2, serve.pid),
            timeout,
            "worker checkpoint under doomed supervisor",
        )
        os.kill(pid, signal.SIGKILL)
        serve.send_signal(signal.SIGKILL)
        serve.wait()
    except BaseException:
        if serve.poll() is None:
            serve.kill()
            serve.wait()
        raise
    # Nothing survives but the disk.  A fresh supervisor must find the
    # stale lease (once the TTL lapses) and finish the job.
    Supervisor(
        store,
        owner="fresh",
        lease_ttl=LEASE_TTL,
        poll_interval=POLL_INTERVAL,
    ).run(drain=True, max_seconds=timeout)
    return _collect(store, record.job_id, "supervisor-kill", kills=2)


def _run_takeover(root: str, reads_path: str, timeout: float) -> ScenarioResult:
    store = JobStore(root, create=True)
    record = store.submit(_chaos_spec(reads_path, pause=0.0))
    job_id = record.job_id
    # A supervisor claims the job and immediately "dies": the job is
    # stranded in ``leased`` under a lease that nobody will renew.
    lease = lease_mod.claim(store.job_dir(job_id), "dead", ttl=0.2)
    assert lease is not None
    store.transition(job_id, "leased", info={"owner": "dead"})
    _wait(
        lambda: lease_mod.read(store.job_dir(job_id)).stale(), timeout, "lease expiry"
    )
    sups = [
        Supervisor(
            store,
            owner=f"racer-{i}",
            lease_ttl=LEASE_TTL,
            poll_interval=POLL_INTERVAL,
        )
        for i in range(2)
    ]
    threads = [
        threading.Thread(
            target=s.run, kwargs={"drain": True, "max_seconds": timeout}
        )
        for s in sups
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout)
    return _collect(store, job_id, "takeover")


_RUNNERS = {
    "baseline": _run_baseline,
    "worker-kill": _run_worker_kill,
    "supervisor-kill": _run_supervisor_kill,
    "takeover": _run_takeover,
}


def run_scenario(
    scenario: str, root: str, reads_path: str, timeout: float = 120.0
) -> ScenarioResult:
    """Run one named scenario on a fresh store rooted at ``root``."""
    try:
        runner = _RUNNERS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (have {', '.join(SCENARIOS)})"
        ) from None
    return runner(root, reads_path, timeout)
