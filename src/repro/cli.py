"""Command-line interface: simulate, pack, overlap, assemble, stats, jobs, lint.

Usage examples::

    python -m repro simulate-genome --length 25000 --seed 1 -o genome.fasta
    python -m repro simulate-reads --genome genome.fasta --coverage 12 -o reads.fastq
    python -m repro simulate-community --seed 7 --coverage 8 -o reads.fastq --refs refs.fasta
    python -m repro overlap reads.fastq -o overlaps.tsv --workers 4
    python -m repro pack reads.fastq -o reads.store --shard-size 4096
    python -m repro assemble --store reads.store -o contigs.fasta
    python -m repro assemble reads.fastq -o contigs.fasta --partitions 4 --workers 4
    python -m repro assemble reads.fastq -o contigs.fasta --backend process --timings t.json
    python -m repro assemble reads.fastq -o contigs.fasta --checkpoint ckpt.bin --resume
    python -m repro assemble reads.fastq -o contigs.fasta --fault-plan random:7 --retries 3
    python -m repro stats contigs.fasta
    python -m repro submit jobs.store reads.fastq --partitions 4 --retries 3 --backend process
    python -m repro serve jobs.store --workers 2 --drain
    python -m repro jobs jobs.store
    python -m repro cancel jobs.store job-ab12cd34ef
    python -m repro verify-store reads.store --quarantine
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from repro.core.config import AssemblyConfig
from repro.core.focus import FINISH_STAGES, FocusAssembler
from repro.core.stats import AssemblyStats
from repro.io.atomic import atomic_write, atomic_write_text
from repro.io.fasta import (
    load_reads,
    parse_fasta,
    parse_reads,
    write_contigs,
    write_fasta,
)
from repro.io.fastq import write_fastq
from repro.io.records import Read
from repro.parallel.backend import BACKEND_NAMES
from repro.simulate.community import CommunityConfig, build_community
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

__all__ = ["main", "build_parser"]

#: read subsets when alignment has workers to share the pairs
#: (4 subsets -> 10 subset-pair work units).
_POOL_SUBSETS = 4


def _add_assembly_options(p: argparse.ArgumentParser) -> None:
    """The input and assembly options of ``assemble`` and ``submit``."""
    p.add_argument(
        "reads", nargs="?", help="FASTA/FASTQ read set (omit with --store)"
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help="assemble from a sharded read store (``repro pack``) instead "
        "of an in-RAM read file; peak memory stays O(cache budget)",
    )
    p.add_argument(
        "--cache-budget-mb",
        type=int,
        default=64,
        help="LRU shard-cache byte budget for --store, in MiB",
    )
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--mode", choices=("hybrid", "multilevel"), default="hybrid")
    p.add_argument("--min-overlap", type=int, default=50)
    p.add_argument("--min-identity", type=float, default=0.9)
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the alignment stage (0/1 = serial; "
        f"more share the pairs of {_POOL_SUBSETS} read subsets)",
    )
    p.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="sim",
        help="execution backend for the distributed graph stages: "
        "in-process serial loop, simulated MPI cluster (virtual "
        "clocks, the paper's figures), or real OS processes",
    )
    p.add_argument(
        "--backend-workers",
        type=int,
        default=0,
        help="worker processes for --backend process (0 = one per partition)",
    )
    p.add_argument(
        "--fault-plan",
        metavar="PATH|random:SEED",
        help="inject deterministic faults into --backend process workers: "
        "path to a FaultPlan JSON file, or random:SEED to generate a "
        "seeded chaos plan (see docs/robustness.md)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts of a partition on process workers before the "
        "serial fallback, and of a job before it is marked failed "
        "(default: 3)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="seed of coarsening and partitioning; contigs can change with it")


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``repro`` parser and its subcommands' parsers by name."""
    # Options match by exact name: ``--cache-budget`` is not ``--cache-budget-mb``.
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = exact(
        prog="repro",
        description="Focus parallel NGS assembler (IPDPSW 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    p = sub.add_parser("simulate-genome", help="generate a random genome FASTA")
    p.add_argument("--length", type=int, default=25_000)
    p.add_argument("--gc", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("simulate-reads", help="shotgun-sample reads from a genome FASTA")
    p.add_argument("--genome", required=True)
    p.add_argument("--coverage", type=float, default=12.0)
    p.add_argument("--read-length", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser(
        "simulate-community", help="generate a gut-community read set (FASTQ)"
    )
    p.add_argument("--coverage", type=float, default=8.0)
    p.add_argument("--read-length", type=int, default=100)
    p.add_argument("--shared-length", type=int, default=4000)
    p.add_argument("--private-length", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--refs", help="also write the reference genomes to this FASTA")

    p = sub.add_parser(
        "pack", help="pack a FASTA/FASTQ read set into a sharded store"
    )
    p.add_argument("reads", help="FASTA/FASTQ read set")
    p.add_argument("-o", "--output", required=True, help="store directory")
    p.add_argument(
        "--shard-size", type=int, default=4096, help="reads per shard"
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse intact shards from an interrupted pack of the same input",
    )

    p = sub.add_parser("assemble", help="assemble a FASTA/FASTQ read set")
    _add_assembly_options(p)
    p.add_argument("-o", "--output", required=True, help="contigs FASTA")
    p.add_argument(
        "--timings",
        metavar="PATH",
        help="write per-stage durations as JSON (tagged with the backend, "
        "whether distributed-stage times are wall or virtual, and the "
        "fault report when injection or recovery happened)",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="write the run's spans as JSON lines (id, name, start, end, "
        "parent, tags, counts): every stage, the distributed stages inside "
        "trim/traverse, and the work each counted",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="persist a stage checkpoint (a CRC-checked flat array file, "
        "written at exactly PATH) after every completed distributed stage; "
        "combine with --resume to restart from it",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint, skipping already-completed stages "
        "(starts fresh when the checkpoint file does not exist yet)",
    )

    p = sub.add_parser(
        "overlap", help="compute pairwise read overlaps, write a TSV"
    )
    p.add_argument("reads", help="FASTA/FASTQ read set")
    p.add_argument("-o", "--output", required=True, help="overlap TSV")
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0/1 = serial in-process)",
    )
    p.add_argument(
        "--subsets", type=int, default=_POOL_SUBSETS, help="read-subset count"
    )
    p.add_argument("--min-overlap", type=int, default=50)
    p.add_argument("--min-identity", type=float, default=0.9)

    p = sub.add_parser("stats", help="print N50/max/count for a contig FASTA")
    p.add_argument("contigs")

    p = sub.add_parser(
        "submit",
        help="submit an assembly job to a durable job store",
        description=(
            "Durably enqueues one checkpointed assembly job with the input "
            "and assembly options of `repro assemble`.  The job store "
            "directory is created on first use; a supervisor (`repro "
            "serve`) picks the job up, and the job survives any crash — "
            "worker or supervisor — by resuming from its last durable "
            "stage checkpoint."
        ),
    )
    p.add_argument("jobs", help="job store directory (created if absent)")
    _add_assembly_options(p)
    p.add_argument("--name", default="job", help="job name prefix")
    p.add_argument(
        "--priority", type=int, default=0, help="larger runs first"
    )
    p.add_argument(
        "--memory-mb",
        type=int,
        default=0,
        help="admission-control charge in MiB (0 = the shard-cache budget)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-attempt wall-second budget before the watchdog kills it",
    )

    p = sub.add_parser(
        "serve",
        help="run a job-store supervisor (schedule + recover jobs)",
        description=(
            "Polls the job store: admits queued jobs up to the worker and "
            "memory quotas (highest priority first; an oversized job is "
            "admitted alone as the serial fallback), heartbeat-leases "
            "them to worker processes, SIGKILLs workers past their "
            "deadline, and requeues any job whose lease went stale — "
            "including jobs orphaned by a previous supervisor that "
            "crashed.  Multiple supervisors may serve one store; lease "
            "arbitration guarantees each job has at most one owner."
        ),
    )
    p.add_argument("store", help="job store directory")
    p.add_argument("--owner", default=None, help="supervisor name in leases")
    p.add_argument(
        "--workers", type=int, default=2, help="max concurrent worker processes"
    )
    p.add_argument(
        "--memory-budget-mb",
        type=int,
        default=256,
        help="admission-control byte budget across running jobs, in MiB",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=15.0, help="lease TTL in seconds"
    )
    p.add_argument(
        "--poll-interval", type=float, default=0.5, help="scheduler pass period"
    )
    p.add_argument(
        "--drain",
        action="store_true",
        help="exit once every job in the store is terminal",
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        default=3600.0,
        help="hard wall-clock bound on the serve loop",
    )

    p = sub.add_parser(
        "jobs",
        help="list jobs in a job store (state, attempt, stage, owner)",
    )
    p.add_argument("store", help="job store directory")
    p.add_argument(
        "--journal",
        metavar="JOB_ID",
        help="print the journaled transition history of one job instead",
    )

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("store", help="job store directory")
    p.add_argument("job_id", help="job to cancel")

    p = sub.add_parser(
        "verify-store",
        help="scrub a sharded read/graph store (stamps + fingerprints)",
        description=(
            "Re-validates every shard of a `repro pack` store against "
            "its manifest: per-shard stamp fields, payload integrity, "
            "and manifest fingerprints.  Exits 1 if any shard fails.  "
            "With --quarantine, corrupt shards are moved aside so a "
            "re-pack --resume rebuilds exactly the damaged ones."
        ),
    )
    p.add_argument("store", help="store directory (`repro pack` output)")
    p.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt shards to <store>/quarantine/ instead of "
        "just reporting them",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser(
        "lint",
        help="static checks for bugs that no test sees",
        description=(
            "Per-file AST checks: unseeded RNG, scalar loops on the "
            "vectorized hot paths, whole-store reads in a kernel, swallowed "
            "exceptions and unbounded poll loops.  Any finding exits 1; "
            "--list-rules prints the rule table.  Suppress per line with "
            "`# noqa: RULEID`."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )

    return parser, sub.choices


def _cmd_simulate_genome(args) -> int:
    rng = np.random.default_rng(args.seed)
    codes = random_genome(args.length, rng, gc=args.gc)
    write_fasta([Read("genome", codes)], args.output)
    print(f"wrote {args.length:,} bp genome to {args.output}")
    return 0


def _cmd_simulate_reads(args) -> int:
    genomes = list(parse_fasta(args.genome))
    if not genomes:
        print("error: genome FASTA is empty", file=sys.stderr)
        return 1
    sim = ReadSimulator(
        ReadSimConfig(read_length=args.read_length, coverage=args.coverage, seed=args.seed)
    )
    all_reads: list[Read] = []
    for rec in genomes:
        rs = sim.simulate_genome(Genome(rec.id, rec.codes))
        all_reads.extend(rs)
    write_fastq(all_reads, args.output)
    print(f"wrote {len(all_reads):,} reads to {args.output}")
    return 0


def _cmd_simulate_community(args) -> int:
    community = build_community(
        CommunityConfig(
            shared_length=args.shared_length, private_length=args.private_length
        ),
        seed=args.seed,
    )
    sim = ReadSimulator(
        ReadSimConfig(read_length=args.read_length, coverage=args.coverage, seed=args.seed)
    )
    reads = sim.simulate_community(community)
    write_fastq(list(reads), args.output)
    print(f"wrote {len(reads):,} reads from {len(community.genomes)} genomes to {args.output}")
    if args.refs:
        write_fasta(
            [Read(g.meta["genus"], g.codes) for g in community.genomes], args.refs
        )
        print(f"wrote reference genomes to {args.refs}")
    return 0


def _parse_fault_plan(spec: str, stages: tuple[str, ...], n_parts: int):
    """``--fault-plan`` value: a JSON file path or ``random:SEED``."""
    import json

    from repro.faults import FaultPlan
    from repro.io.codec import decode

    if spec.startswith("random:") or spec == "random":
        _, _, seed_text = spec.partition(":")
        try:
            seed = int(seed_text) if seed_text else 0
        except ValueError:
            raise ValueError(
                f"bad --fault-plan {spec!r}: expected random:<integer seed>"
            ) from None
        return FaultPlan.random(seed, stages, n_parts)
    try:
        with open(spec, encoding="utf-8") as fh:
            return decode(FaultPlan, json.load(fh))
    except ValueError as exc:  # bad JSON, bad UTF-8 or bad fields
        raise ValueError(f"bad --fault-plan file {spec!r}: {exc}") from exc


def _cmd_pack(args) -> int:
    from repro.store import pack_reads

    manifest = pack_reads(
        parse_reads(args.reads),
        args.output,
        shard_size=args.shard_size,
        resume=args.resume,
        meta={"source": args.reads},
    )
    print(
        f"packed {manifest.n_records:,} reads into {manifest.n_shards} "
        f"shards at {args.output}"
    )
    return 0


def _assemble_config(args) -> AssemblyConfig:
    """The ``AssemblyConfig`` of one ``repro assemble`` or ``submit``."""
    from repro.align.overlapper import OverlapConfig
    from repro.faults import RetryPolicy

    if (args.reads is None) == (args.store is None):
        raise ValueError("give exactly one of READS or --store")
    fault_plan = None
    if args.fault_plan:
        fault_plan = _parse_fault_plan(
            args.fault_plan, FINISH_STAGES, args.partitions
        )
    retry = RetryPolicy() if args.retries is None else RetryPolicy(max_attempts=args.retries)
    return AssemblyConfig(
        n_partitions=args.partitions,
        partition_mode=args.mode,
        overlap=OverlapConfig(
            min_overlap=args.min_overlap,
            min_identity=args.min_identity,
            n_subsets=_POOL_SUBSETS if args.workers > 1 else 1,
        ),
        overlap_workers=args.workers,
        backend=args.backend,
        backend_workers=args.backend_workers,
        retry=retry,
        fault_plan=fault_plan,
        store_path=args.store,
        cache_budget=args.cache_budget_mb << 20,
        seed=args.seed,
    )


def _cmd_assemble(args) -> int:
    # Every flag is checked before the input is read.
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 1
    assembler = FocusAssembler(_assemble_config(args))
    if args.store is None:
        reads = load_reads(args.reads)
    else:
        reads = assembler.open_reads()
    if len(reads) == 0:
        print("error: no reads in input", file=sys.stderr)
        return 1
    result = assembler.finish(
        assembler.prepare(reads),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    write_contigs(args.output, result.contigs)
    fault_report = result.fault_report
    if args.timings:
        extra = {}
        if fault_report is not None and fault_report.has_activity:
            extra["faults"] = fault_report.to_dict()
        atomic_write_text(
            args.timings,
            result.timer.to_json(
                backend=result.backend,
                distributed={
                    "time_kind": result.time_kind,
                    "stages": result.virtual_times,
                },
                **extra,
            )
            + "\n",
        )
    if args.trace:
        atomic_write_text(args.trace, result.timer.to_jsonl())
    s = result.stats
    print(result.timer.report())
    print(
        f"assembled {len(reads):,} reads -> {s.n_contigs} contigs "
        f"(N50 {s.n50:,} bp, max {s.max_contig:,} bp) "
        f"[{result.backend} backend] -> {args.output}"
    )
    if fault_report is not None and fault_report.has_activity:
        print(f"fault report: {fault_report.summary()}")
    if args.checkpoint:
        print(f"stage checkpoint at {args.checkpoint}")
    if args.timings:
        print(f"wrote stage timings to {args.timings}")
    if args.trace:
        print(f"wrote spans to {args.trace}")
    return 0


def _cmd_overlap(args) -> int:
    from repro.align.overlap import KIND_NAMES
    from repro.align.overlapper import OverlapConfig, OverlapDetector

    reads = load_reads(args.reads)
    if len(reads) == 0:
        print("error: no reads in input", file=sys.stderr)
        return 1
    config = OverlapConfig(
        min_overlap=args.min_overlap,
        min_identity=args.min_identity,
        n_subsets=args.subsets,
    )
    t0 = time.perf_counter()
    overlaps = OverlapDetector(config).find_overlaps(reads, args.workers)
    wall = time.perf_counter() - t0

    def write_rows(fh) -> None:
        fh.write("query\tref\tq_start\tr_start\tlength\tidentity\tkind\n")
        columns = (
            overlaps.query, overlaps.ref, overlaps.q_start, overlaps.r_start,
            overlaps.length, overlaps.identity, overlaps.kind_code,
        )
        for q, r, qs, rs, ln, idt, kc in zip(*(c.tolist() for c in columns)):
            fh.write(f"{q}\t{r}\t{qs}\t{rs}\t{ln}\t{idt:.6f}\t{KIND_NAMES[kc]}\n")

    atomic_write(args.output, write_rows, mode="w")
    mode = f"{args.workers} workers" if args.workers > 1 else "serial"
    print(
        f"found {len(overlaps):,} overlaps in {len(reads):,} reads "
        f"({mode}, {wall:.2f}s) -> {args.output}"
    )
    return 0


def _cmd_stats(args) -> int:
    lengths = [len(rec) for rec in parse_fasta(args.contigs)]
    if not lengths:
        print("error: no contigs in input", file=sys.stderr)
        return 1
    s = AssemblyStats.from_contigs([np.zeros(n, dtype=np.uint8) for n in lengths])
    print(f"contigs:     {s.n_contigs}")
    print(f"total bases: {s.total_bases:,}")
    print(f"N50:         {s.n50:,} bp")
    print(f"max contig:  {s.max_contig:,} bp")
    print(f"mean contig: {s.mean_contig:,.1f} bp")
    return 0


def _cmd_submit(args) -> int:
    from repro.service import JobSpec, JobStore

    # Workers run in the supervisor's directory, not this one.
    args.reads = args.reads and os.path.abspath(args.reads)
    args.store = args.store and os.path.abspath(args.store)
    spec = JobSpec(
        name=args.name,
        reads_path=args.reads,
        config=_assemble_config(args),
        priority=args.priority,
        memory_bytes=args.memory_mb << 20,
        deadline=args.deadline,
    )
    # A bad input fails here, not three worker attempts later.
    if args.store is not None:
        FocusAssembler(spec.config).open_reads()
    elif not os.path.isfile(args.reads):
        print(f"error: no such reads file: {args.reads}", file=sys.stderr)
        return 1
    store = JobStore(args.jobs, create=True)
    record = store.submit(spec)
    print(f"submitted {record.job_id} (queued, priority {record.priority})")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import JobStore, Supervisor

    store = JobStore(args.store)
    sup = Supervisor(
        store,
        owner=args.owner,
        max_workers=args.workers,
        memory_budget=args.memory_budget_mb << 20,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
    )
    print(
        f"serving {args.store} as {sup.owner} "
        f"(workers={args.workers}, ttl={args.lease_ttl}s)"
    )
    try:
        sup.run(drain=args.drain, max_seconds=args.max_seconds)
    except KeyboardInterrupt:
        sup.shutdown(kill=False)
        print("supervisor stopped; running workers keep their leases")
        return 130
    states = [r.state for r in store.load_records()[0]]
    print(
        f"serve loop done: {len(states)} jobs "
        f"({states.count('done')} done, {states.count('failed')} failed, "
        f"{states.count('cancelled')} cancelled)"
    )
    return 0


def _cmd_jobs(args) -> int:
    from repro.bench.reporting import format_table
    from repro.service import JobStore
    from repro.service import lease as lease_mod

    store = JobStore(args.store)
    if args.journal:
        try:
            entries = store.journal(args.journal)
        except KeyError:
            print(f"error: no such job {args.journal!r}", file=sys.stderr)
            return 1
        for e in entries:
            stamp = time.strftime("%H:%M:%S", time.localtime(e.record.updated))
            info = " ".join(f"{k}={v}" for k, v in sorted(e.info.items()))
            print(
                f"{stamp}  {e.prior:>13s} -> {e.record.state:<13s} "
                f"attempt {e.record.attempt}  {info}"
            )
        return 0
    records, unreadable = store.load_records()
    rows = []
    for record in records:
        lease = lease_mod.read(store.job_dir(record.job_id))
        owner = lease.owner if lease and not lease.stale() else "-"
        rows.append(
            [
                record.job_id,
                record.state,
                record.attempt,
                record.priority,
                record.stage or "-",
                owner,
                record.error or "-",
            ]
        )
    header = ["Job", "State", "Attempt", "Priority", "Stage", "Owner", "Error"]
    if rows:
        print(format_table(header, rows))
    elif not unreadable:
        print("no jobs")
    for error in unreadable.values():
        print(f"error: {error}", file=sys.stderr)
    return 1 if unreadable else 0


def _cmd_cancel(args) -> int:
    from repro.service import JobStore

    try:
        store = JobStore(args.store)
        outcome = store.request_cancel(args.job_id)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.job_id}: {outcome}")
    return 0 if outcome != "ignored" else 1


def _cmd_verify_store(args) -> int:
    from repro.store.verify import main as verify_main

    return verify_main(args.store, quarantine=args.quarantine, fmt=args.format)


def _cmd_lint(args) -> int:
    from repro.lint import rule_table, run as lint_run

    if args.list_rules:
        print(rule_table())
        return 0
    return lint_run(args.paths)


_COMMANDS = {
    "simulate-genome": _cmd_simulate_genome,
    "simulate-reads": _cmd_simulate_reads,
    "simulate-community": _cmd_simulate_community,
    "pack": _cmd_pack,
    "assemble": _cmd_assemble,
    "overlap": _cmd_overlap,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "jobs": _cmd_jobs,
    "cancel": _cmd_cancel,
    "verify-store": _cmd_verify_store,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # Under the subcommand's usage line, not the list of subcommands.
        commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (`lint | head`).
        # Point stdout at devnull so the interpreter's exit flush does not
        # raise again, and exit with the conventional SIGPIPE status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        # Bad input — a missing file, a foreign store, an out-of-range
        # option — is the user's to fix: one line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
