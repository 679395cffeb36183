"""Standard benchmark datasets D1-D3 (Table I analogue).

The paper evaluates on three Illumina gut-microbiome SRA runs of
~5 Gbases with 100 bp reads.  Our D1-D3 are three synthetic gut
communities over the same ten genera, with distinct seeds (different
genomes *and* different abundance profiles), 100 bp reads, and sizes
scaled to what pure-Python graph assembly can process.

Finish-stage tests additionally need *graphs* far larger than D1-D3's
hybrid graphs (a few hundred nodes): :func:`build_finish_assembly`
builds synthetic enriched hybrid assemblies at
10^4-10^5-read-equivalent scale —
contig backbones with implanted transitive edges, containments,
error tips, and bubbles, so every finish kernel does real work —
without paying read alignment for hundreds of thousands of reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.io.readset import ReadSet
from repro.simulate.community import Community, CommunityConfig, build_community
from repro.simulate.genome import random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

__all__ = [
    "DatasetSpec",
    "BenchDataset",
    "STANDARD_SPECS",
    "build_dataset",
    "standard_datasets",
    "FinishScaleSpec",
    "FINISH_SCALE_SPECS",
    "build_finish_assembly",
    "SCALE_SWEEP_SPECS",
    "SCALE_EQUIVALENCE_SPEC",
    "iter_scale_reads",
    "build_scale_read_store",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one benchmark dataset."""

    name: str
    seed: int
    community: CommunityConfig = field(
        default_factory=lambda: CommunityConfig(
            shared_length=4000,
            private_length=3000,
            repeat_copies=1,
            repeat_length=250,
        )
    )
    reads: ReadSimConfig = field(
        default_factory=lambda: ReadSimConfig(read_length=100, coverage=8.0)
    )


@dataclass
class BenchDataset:
    """A realised dataset: community, reads, and identifying metadata."""

    spec: DatasetSpec
    community: Community
    reads: ReadSet

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    @property
    def total_bases(self) -> int:
        return self.reads.total_bases

    @property
    def read_length(self) -> int:
        return self.spec.reads.read_length


#: The three standard datasets, mirroring the paper's Table I rows.
STANDARD_SPECS: tuple[DatasetSpec, ...] = (
    DatasetSpec(name="D1", seed=101),
    DatasetSpec(name="D2", seed=202),
    DatasetSpec(name="D3", seed=303),
)


def build_dataset(spec: DatasetSpec) -> BenchDataset:
    """Generate one dataset deterministically from its spec."""
    community = build_community(spec.community, seed=spec.seed)
    sim = ReadSimulator(
        ReadSimConfig(
            read_length=spec.reads.read_length,
            coverage=spec.reads.coverage,
            base_quality=spec.reads.base_quality,
            tail_quality=spec.reads.tail_quality,
            quality_jitter=spec.reads.quality_jitter,
            flat_error_rate=spec.reads.flat_error_rate,
            seed=spec.seed,
        )
    )
    reads = sim.simulate_community(community)
    return BenchDataset(spec=spec, community=community, reads=reads)


@lru_cache(maxsize=8)
def _cached(index: int) -> BenchDataset:
    return build_dataset(STANDARD_SPECS[index])


def standard_datasets() -> list[BenchDataset]:
    """D1-D3, cached per process so benches share the generation cost."""
    return [_cached(i) for i in range(len(STANDARD_SPECS))]


# ---------------------------------------------------------------------------
# Finish-scale synthetic assemblies (S4/S5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinishScaleSpec:
    """Recipe for one synthetic finish-scale assembly.

    A ``backbone``-node contig chain over a random genome (consecutive
    contigs overlap by ``contig_length - step`` bases), decorated with
    one defect per backbone node in a fixed 30-cycle so every finish
    stage has real work at scale:

    * every 5th node gets a skip edge ``(i, i+2)`` — removed by
      transitive reduction (witness ``i+1``);
    * cycle offset 7: an error tip hanging off a junction — removed by
      dead-end trimming (too short to be a containment);
    * cycle offset 13: a two-branch bubble to ``i+1`` (the direct
      chain edge becomes transitive through the branches; the shorter
      branch is popped);
    * cycle offset 22: a node properly contained in its anchor —
      removed by containment with identity 1.0.
    """

    name: str
    backbone: int
    seed: int
    contig_length: int = 150
    step: int = 60
    #: mirrors the D-datasets' read simulator, for the read-equivalent.
    coverage: float = 8.0
    read_length: int = 100

    @property
    def genome_length(self) -> int:
        return self.step * (self.backbone - 1) + self.contig_length

    @property
    def read_equivalent(self) -> int:
        """Reads a D-style simulation of this genome would need."""
        return int(self.genome_length * self.coverage / self.read_length)


@dataclass
class FinishScaleAssembly:
    """A realised finish-scale assembly with block-partition anchors."""

    spec: FinishScaleSpec
    assembly: "HybridAssembly"
    #: backbone chain position per node (decorations inherit their
    #: anchor's position) — the key for locality-preserving labels.
    anchors: np.ndarray

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_nodes(self) -> int:
        return int(self.assembly.graph.n_nodes)

    def labels(self, k: int) -> np.ndarray:
        """Block partition labels: k contiguous backbone intervals."""
        labels = (self.anchors * k) // max(self.spec.backbone, 1)
        return np.minimum(labels, k - 1).astype(np.int64)


#: 10^4- and 10^5-read-equivalent scale points.
FINISH_SCALE_SPECS: tuple[FinishScaleSpec, ...] = (
    FinishScaleSpec(name="S4", backbone=2000, seed=404),
    FinishScaleSpec(name="S5", backbone=16000, seed=505),
)


def build_finish_assembly(spec: FinishScaleSpec) -> FinishScaleAssembly:
    """Deterministically realise one finish-scale assembly."""
    from repro.distributed.dgraph import HybridAssembly
    from repro.graph.overlap_graph import OverlapGraph

    rng = np.random.default_rng(spec.seed)
    genome = random_genome(spec.genome_length, rng)
    n_chain = spec.backbone
    length, step = spec.contig_length, spec.step

    contigs: list[np.ndarray] = [
        genome[i * step : i * step + length] for i in range(n_chain)
    ]
    anchors: list[int] = list(range(n_chain))
    eu: list[int] = []
    ev: list[int] = []
    deltas: list[int] = []

    def add_edge(u: int, v: int, d: int) -> None:
        eu.append(u)
        ev.append(v)
        deltas.append(d)

    def add_node(anchor: int, start: int, clen: int) -> int:
        node = len(contigs)
        contigs.append(genome[start : start + clen])
        anchors.append(anchor)
        return node

    for i in range(n_chain - 1):
        add_edge(i, i + 1, step)

    for i in range(n_chain):
        base = i * step
        if i % 5 == 2 and i + 2 < n_chain:
            add_edge(i, i + 2, 2 * step)  # transitive via i+1
        cycle = i % 30
        if cycle == 7 and 0 < i < n_chain - 1:
            # Tip past the junction contig's end: overlap exactly 50,
            # so the edge is not short and the tip is not contained.
            tip = add_node(i, base + 100, 80)
            add_edge(i, tip, 100)
        elif cycle == 13 and i + 1 < n_chain:
            long_b = add_node(i, base + 30, length)
            short_b = add_node(i, base + 35, length - 10)
            add_edge(i, long_b, 30)
            add_edge(long_b, i + 1, step - 30)
            add_edge(i, short_b, 35)
            add_edge(short_b, i + 1, step - 35)
        elif cycle == 22:
            child = add_node(i, base + 25, 100)
            add_edge(i, child, 25)  # child properly contained in i

    lengths = np.array([c.size for c in contigs], dtype=np.int64)
    eu_a = np.array(eu, dtype=np.int64)
    ev_a = np.array(ev, dtype=np.int64)
    d_a = np.array(deltas, dtype=np.int64)
    ov = np.minimum(lengths[eu_a], d_a + lengths[ev_a]) - np.maximum(0, d_a)
    weights = np.maximum(ov, 1).astype(np.float64)
    graph = OverlapGraph(len(contigs), eu_a, ev_a, weights, deltas=d_a)
    clusters = [np.array([i], dtype=np.int64) for i in range(len(contigs))]
    assembly = HybridAssembly(graph=graph, contigs=contigs, clusters=clusters)
    return FinishScaleAssembly(
        spec=spec, assembly=assembly, anchors=np.array(anchors, dtype=np.int64)
    )


# ---------------------------------------------------------------------------
# Out-of-core scale reads (``repro bench scale``)
# ---------------------------------------------------------------------------

#: the ``bench scale`` sweep: the S4/S5 scale points plus a
#: 10^6-read-equivalent S6 genome (~12.5 Mbp at 8x / 100 bp).
SCALE_SWEEP_SPECS: tuple[FinishScaleSpec, ...] = (
    FINISH_SCALE_SPECS[0],
    FINISH_SCALE_SPECS[1],
    FinishScaleSpec(name="S6", backbone=208_000, seed=606),
)

#: small spec for the in-RAM-vs-sharded full-assembly equivalence gate
#: (~1.4k reads — large enough to produce real contigs, small enough
#: to assemble on all three backends inside the bench).
SCALE_EQUIVALENCE_SPEC = FinishScaleSpec(name="SE", backbone=300, seed=808)


def iter_scale_reads(spec: FinishScaleSpec, chunk: int = 4096, error_rate: float = 0.005):
    """Stream D-style shotgun reads of a scale spec, never all at once.

    Yields ``spec.read_equivalent`` reads sampled uniformly from the
    spec's random genome (random strand, flat substitution-error rate,
    no quality strings), in chunks of vectorized numpy work — peak
    memory is O(genome + chunk), independent of the read count.  Feed
    the generator to :func:`repro.store.pack_reads` (or use
    :func:`build_scale_read_store`) so scale datasets go straight to
    disk instead of materializing a full read list in RAM.
    """
    from repro.io.records import Read
    from repro.sequence.dna import reverse_complement

    rng = np.random.default_rng(spec.seed)
    genome = random_genome(spec.genome_length, rng)
    total = spec.read_equivalent
    L = spec.read_length
    made = 0
    while made < total:
        n = min(chunk, total - made)
        starts = rng.integers(0, genome.size - L + 1, size=n)
        strands = rng.integers(0, 2, size=n)
        frags = genome[starts[:, None] + np.arange(L)[None, :]]
        hit = rng.random(frags.shape) < error_rate
        n_hit = int(hit.sum())
        if n_hit:
            frags = frags.copy()
            frags[hit] = (frags[hit] + rng.integers(1, 4, size=n_hit)) % 4
        for r in range(n):
            codes = frags[r]
            if strands[r]:
                codes = reverse_complement(codes)
            yield Read(f"{spec.name}:{made + r}", np.ascontiguousarray(codes))
        made += n


def build_scale_read_store(
    spec: FinishScaleSpec,
    path,
    shard_size: int = 4096,
    resume: bool = False,
):
    """Pack a scale spec's synthetic reads into a sharded store.

    Returns the store manifest.  Read synthesis is routed through
    :func:`iter_scale_reads` + :func:`repro.store.pack_reads`, so at no
    point does the full read array exist in memory — the sweep's 10^6+
    read equivalents stream genome → chunk → shard file.
    """
    from repro.store import pack_reads

    return pack_reads(
        iter_scale_reads(spec),
        path,
        shard_size=shard_size,
        resume=resume,
        meta={"spec": spec.name, "read_equivalent": spec.read_equivalent},
    )
