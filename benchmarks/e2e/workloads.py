"""The four reads -> contigs workloads: inputs, operation, traced replay.

Inputs are generated here from ``--seed``; the program only ever sees
the generated reads or graph.  The operation calls the program the way
a default user would: ``AssemblyConfig()`` defaults plus only
``backend``, ``n_partitions``, ``*_workers``, ``store_path`` and
``cache_budget``.  Generator sizes are function arguments so the tests
can run the same code on tiny inputs; the CLI has no size knob.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.align.overlapper import OverlapDetector
from repro.analysis.accuracy import evaluate_assembly
from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler, deduplicate_contigs
from repro.core.stats import n50
from repro.distributed.dgraph import (
    DistributedAssemblyGraph,
    HybridAssembly,
    enrich_hybrid,
)
from repro.distributed.stages import get_stage, run_stage_on_comm
from repro.distributed.traversal import contigs_from_paths
from repro.graph.coarsen import build_multilevel_set
from repro.graph.hybrid import build_hybrid_set
from repro.graph.overlap_graph import OverlapGraph
from repro.io.readset import ReadSet
from repro.io.records import Read
from repro.mpi import SimCluster
from repro.parallel.backend import create_backend
from repro.partition.metrics import node_weight_balance
from repro.partition.multilevel import partition_via_hybrid
from repro.sequence.dna import reverse_complement
from repro.simulate.community import CommunityConfig, build_community
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from repro.store import pack_reads

from spans import Tracer, usage

__all__ = [
    "Inputs",
    "Workload",
    "WORKLOADS",
    "community_reads",
    "shotgun_reads",
    "finish_graph",
    "operate",
    "sim_pass",
    "digest",
    "quality",
]

#: the D1 gut community is fixed (its genomes and abundance profile set
#: how much work every layer does); ``--seed`` drives the read sampling.
D1_COMMUNITY_SEED = 101


@dataclass
class Inputs:
    """One workload's generated input plus its ground truth."""

    sha256: str
    #: reads (read-level workloads) or hybrid nodes (``finish_100k``).
    n_items: int
    #: the generator's genomes, for the quality checks after timing.
    references: list[Genome]
    reads: ReadSet | None = None
    graph: HybridAssembly | None = None
    labels: np.ndarray | None = None


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest(contigs: list[np.ndarray]) -> str:
    """Order-sensitive digest of a contig list (byte identity check)."""
    return _sha256(*contigs)


def quality(inputs: Inputs, contigs: list[np.ndarray]) -> dict[str, float]:
    """Contig quality against the generator's ground truth."""
    if inputs.graph is not None:
        # one chain over one genome: the contig must spell the genome.
        genome = inputs.references[0].codes
        exact = len(contigs) == 1 and contigs[0].size == genome.size
        fraction = float((contigs[0] == genome).mean()) if exact else 0.0
    else:
        fraction = evaluate_assembly(contigs, inputs.references).genome_fraction
    return {
        "analysis.n50_bp": float(n50([c.size for c in contigs])),
        "analysis.genome_fraction": fraction,
    }


def _reads_inputs(reads: ReadSet, references: list[Genome]) -> Inputs:
    quals = reads.quals if reads.quals is not None else np.empty(0, dtype=np.int64)
    return Inputs(
        sha256=_sha256(reads.offsets, reads.data, quals),
        n_items=len(reads),
        references=references,
        reads=reads,
    )


def community_reads(
    seed: int,
    shared_length: int = 4000,
    private_length: int = 3000,
    repeat_length: int = 250,
    coverage: float = 8.0,
) -> Inputs:
    """D1-shaped metagenome: ten gut genera, 100 bp reads with Phred
    qualities; with the default seed this is the repo's dataset D1."""
    community = build_community(
        CommunityConfig(
            shared_length=shared_length,
            private_length=private_length,
            repeat_copies=1,
            repeat_length=repeat_length,
        ),
        seed=D1_COMMUNITY_SEED,
    )
    sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=coverage, seed=seed))
    return _reads_inputs(sim.simulate_community(community), community.genomes)


def shotgun_reads(
    seed: int,
    genome_length: int = 120_090,
    coverage: float = 8.0,
    read_length: int = 100,
    error_rate: float = 0.005,
) -> Inputs:
    """Single random genome, uniform shotgun reads on a random strand
    with a flat substitution rate and no qualities (the S4 scale point:
    120 kb, 9,607 reads)."""
    rng = np.random.default_rng(seed)
    genome = random_genome(genome_length, rng)
    n = int(genome_length * coverage / read_length)
    starts = rng.integers(0, genome_length - read_length + 1, size=n)
    strands = rng.integers(0, 2, size=n)
    frags = genome[starts[:, None] + np.arange(read_length)[None, :]]
    hit = rng.random(frags.shape) < error_rate
    frags[hit] = (frags[hit] + rng.integers(1, 4, size=int(hit.sum()))) % 4
    reads = ReadSet(
        Read(f"s4:{i}", reverse_complement(frags[i]) if strands[i] else frags[i])
        for i in range(n)
    )
    return _reads_inputs(reads, [Genome("s4", genome)])


def finish_graph(
    seed: int, backbone: int = 100_000, n_parts: int = 8, length: int = 150, step: int = 60
) -> Inputs:
    """Synthetic enriched hybrid assembly: a ``backbone``-node contig
    chain over a random genome with one implanted defect per node in a
    30-cycle, so every finish stage has work — skip edges (transitive),
    error tips (dead ends), two-branch bubbles, contained nodes.
    Labels are ``n_parts`` contiguous backbone blocks."""
    rng = np.random.default_rng(seed)
    genome = random_genome(step * (backbone - 1) + length, rng)
    spans = [(i * step, length) for i in range(backbone)]
    anchors = list(range(backbone))
    edges = [(i, i + 1, step) for i in range(backbone - 1)]

    def add_node(anchor: int, start: int, size: int) -> int:
        spans.append((start, size))
        anchors.append(anchor)
        return len(spans) - 1

    for i in range(backbone):
        base = i * step
        if i % 5 == 2 and i + 2 < backbone:
            edges.append((i, i + 2, 2 * step))  # transitive via i+1
        cycle = i % 30
        if cycle == 7 and 0 < i < backbone - 1:
            # overlap exactly 50: not short, and not contained.
            edges.append((i, add_node(i, base + 100, 80), 100))
        elif cycle == 13 and i + 1 < backbone:
            long_b = add_node(i, base + 30, length)
            short_b = add_node(i, base + 35, length - 10)
            edges += [
                (i, long_b, 30),
                (long_b, i + 1, step - 30),
                (i, short_b, 35),
                (short_b, i + 1, step - 35),
            ]
        elif cycle == 22:
            edges.append((i, add_node(i, base + 25, 100), 25))  # contained

    contigs = [genome[s : s + n] for s, n in spans]
    lengths = np.array([n for _, n in spans], dtype=np.int64)
    eu, ev, deltas = (np.array(col, dtype=np.int64) for col in zip(*edges))
    overlap = np.minimum(lengths[eu], deltas + lengths[ev]) - np.maximum(0, deltas)
    weights = np.maximum(overlap, 1).astype(np.float64)
    graph = OverlapGraph(len(contigs), eu, ev, weights, deltas=deltas)
    clusters = [np.array([i], dtype=np.int64) for i in range(len(contigs))]
    labels = np.minimum(
        (np.array(anchors, dtype=np.int64) * n_parts) // backbone, n_parts - 1
    )
    return Inputs(
        sha256=_sha256(eu, ev, deltas, weights, lengths, labels, genome),
        n_items=len(contigs),
        references=[Genome("backbone", genome)],
        graph=HybridAssembly(graph=graph, contigs=contigs, clusters=clusters),
        labels=labels,
    )


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    make_inputs: Callable[..., Inputs]
    #: the only ``AssemblyConfig`` fields the benchmark sets.
    config: dict
    #: pack the reads into a fresh sharded store on every operation.
    store: bool = False
    #: config of the in-RAM operation whose contigs must be identical
    #: (run once per traced run; its spans are the serial baseline).
    reference_config: dict | None = None


SERIAL_K4 = {"backend": "serial", "n_partitions": 4}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("meta_d1", community_reads, SERIAL_K4),
        Workload("shotgun_s4", shotgun_reads, SERIAL_K4),
        Workload(
            "par2_store_d1",
            community_reads,
            {
                "backend": "process",
                "backend_workers": 2,
                "overlap_workers": 2,
                "n_partitions": 4,
                "cache_budget": 1 << 20,
            },
            store=True,
            reference_config=SERIAL_K4,
        ),
        Workload(
            "finish_100k",
            finish_graph,
            {"backend": "process", "backend_workers": 2},
            reference_config={"backend": "serial"},
        ),
    )
}

SHARD_SIZE = 512


def _finish_stages(cfg: AssemblyConfig) -> list[tuple[str, dict]]:
    """The distributed stage sequence of ``FocusAssembler.finish``."""
    return [
        ("transitive", {"tolerance": cfg.transitive_tolerance}),
        (
            "containment",
            {
                "min_overlap": cfg.containment_min_overlap,
                "min_identity": cfg.containment_min_identity,
            },
        ),
        ("dead_ends", {"max_tip_bases": cfg.max_tip_bases}),
        ("bubbles", {}),
        ("traversal", {}),
    ]


def _graph_to_contigs(
    assembly: HybridAssembly, labels: np.ndarray, cfg: AssemblyConfig, tracer: Tracer
) -> list[np.ndarray]:
    """Distributed graph -> trimmed graph -> paths -> contigs."""
    with tracer.span("distributed.dag_build"):
        dag = DistributedAssemblyGraph(assembly, labels)
    if tracer.enabled:
        nodes, edges = dag.n_alive_nodes, dag.n_alive_edges
    with create_backend(cfg.backend, dag, workers=cfg.backend_workers) as runner:
        for name, params in _finish_stages(cfg):
            with tracer.span(f"distributed.{name}"):
                paths = runner.run_stage(name, **params).result
    with tracer.span("distributed.contigs_from_paths"):
        contigs = contigs_from_paths(dag, paths)
    if tracer.enabled:
        tracer.count("distributed.nodes_removed", nodes - dag.n_alive_nodes)
        tracer.count("distributed.edges_removed", edges - dag.n_alive_edges)
        tracer.count("parallel.retries", runner.fault_report.retries)
        tracer.count("parallel.fallbacks", runner.fault_report.fallbacks)
    return contigs


def _replay_assemble(
    assembler: FocusAssembler, reads: ReadSet | None, n_input: int, tracer: Tracer
) -> list[np.ndarray]:
    """``prepare()`` + ``finish()`` called layer by layer under spans.

    The traced repetition must reproduce the untraced contig digest;
    that check is what keeps this replay honest as ``core/focus.py``
    changes.
    """
    cfg = assembler.config
    if reads is None:
        with tracer.span("store.open"):
            reads = assembler.open_reads()
    with tracer.span("io.preprocess"):
        rs = assembler.preprocess(reads)
    strands = 2 if cfg.add_reverse_complements else 1
    tracer.count("io.reads_kept_frac", len(rs) / (strands * n_input))
    before = usage()
    with tracer.span("align.find_overlaps"):
        detector = OverlapDetector(cfg.overlap)
        if cfg.overlap_workers > 1:
            overlaps = detector.find_overlaps_processes(rs, cfg.overlap_workers)
        else:
            overlaps = detector.find_overlaps(rs)
    after = usage()
    tracer.count("align.sys_s", after.sys_s - before.sys_s)
    tracer.count("align.minor_faults", after.minor_faults - before.minor_faults)
    tracer.count("align.reads", len(rs))
    tracer.count("align.candidates_verified", detector.last_candidates)
    tracer.count("align.overlaps_found", len(overlaps))
    with tracer.span("graph.overlap_graph"):
        g0 = OverlapGraph.from_overlaps(overlaps, len(rs))
    with tracer.span("graph.coarsen"):
        mls = build_multilevel_set(g0, cfg.coarsen)
    with tracer.span("graph.hybrid"):
        hyb = build_hybrid_set(mls, rs.lengths, tolerance=cfg.layout_tolerance)
    tracer.count("graph.g0_edges", g0.n_edges)
    tracer.count("graph.levels", mls.n_levels)
    tracer.count("graph.hybrid_nodes", hyb.hybrid.n_nodes)
    with tracer.span("distributed.enrich"):
        assembly = enrich_hybrid(
            hyb,
            g0,
            rs,
            tolerance=cfg.layout_tolerance,
            quality_weighted=cfg.quality_weighted_consensus,
        )
    with tracer.span("partition.partition"):
        part = partition_via_hybrid(mls, hyb, cfg.n_partitions, cfg.partition)
    tracer.count("partition.edge_cut", part.cut_finest)
    tracer.count(
        "partition.imbalance",
        node_weight_balance(hyb.hybrid, part.labels_finest, cfg.n_partitions),
    )
    contigs = _graph_to_contigs(assembly, part.labels_finest, cfg, tracer)
    tracer.count("core.contigs_in", len(contigs))
    with tracer.span("core.dedupe"):
        contigs = deduplicate_contigs(contigs)
    tracer.count("core.contigs_kept", len(contigs))
    for sharded in (reads, rs):
        if hasattr(sharded, "store"):
            stats = sharded.store.cache.stats()
            tracer.count("store.cache_hits", stats.hits)
            tracer.count("store.cache_misses", stats.misses)
            tracer.count("store.evictions", stats.evictions)
    return contigs


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def operate(
    wl: Workload, inputs: Inputs, tracer: Tracer, scratch: str, config: dict | None = None
) -> list[np.ndarray]:
    """One operation of a workload: generated input -> contigs.

    Untraced, read-level workloads call ``FocusAssembler.assemble``
    itself; traced, the same layers are replayed under spans.
    ``config`` replaces the workload's and runs in RAM (the reference
    whose contigs the workload's must equal).
    """
    store = wl.store and config is None
    cfg = dict(wl.config if config is None else config)
    with tracer.span("op"):
        if inputs.graph is not None:
            return _graph_to_contigs(
                inputs.graph, inputs.labels, AssemblyConfig(**cfg), tracer
            )
        reads = inputs.reads
        if store:
            # A fresh store every time: a reused one caches preprocessing
            # under derived/ (1.0 s -> 0.001 s) and would fake a speed-up.
            cfg["store_path"] = tempfile.mkdtemp(dir=scratch)
            with tracer.span("store.pack"):
                pack_reads(reads, cfg["store_path"], shard_size=SHARD_SIZE)
            if tracer.enabled:
                tracer.count("store.packed_bytes", _dir_bytes(cfg["store_path"]))
            reads = None
        assembler = FocusAssembler(AssemblyConfig(**cfg))
        if not tracer.enabled:
            return assembler.assemble(reads).contigs
        contigs = _replay_assemble(assembler, reads, inputs.n_items, tracer)
        if store:
            tracer.count("store.bytes_on_disk", _dir_bytes(cfg["store_path"]))
        return contigs


def sim_pass(inputs: Inputs, tracer: Tracer) -> None:
    """The finish stages once on the simulated cluster (one rank per
    partition), tying Fig. 6's virtual time to real wall time."""
    cfg = AssemblyConfig()
    dag = DistributedAssemblyGraph(inputs.graph, inputs.labels)
    cluster = SimCluster(dag.n_parts)
    with tracer.span("op"):
        for name, params in _finish_stages(cfg):
            with tracer.span(f"distributed.{name}"):
                _, stats = cluster.run(run_stage_on_comm, get_stage(name), dag, **params)
            tracer.count("mpi.sim_virtual_s", stats.elapsed)
            tracer.count("mpi.messages", sum(stats.messages_sent))
            tracer.count("mpi.bytes", stats.total_bytes)
