"""Standard benchmark datasets D1-D3 (Table I analogue).

The paper evaluates on three Illumina gut-microbiome SRA runs of
~5 Gbases with 100 bp reads.  Our D1-D3 are three synthetic gut
communities over the same ten genera, with distinct seeds (different
genomes *and* different abundance profiles), 100 bp reads, and sizes
scaled to what pure-Python graph assembly can process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.io.readset import ReadSet
from repro.simulate.community import Community, CommunityConfig, build_community
from repro.simulate.reads import ReadSimConfig, ReadSimulator

__all__ = [
    "DatasetSpec",
    "BenchDataset",
    "STANDARD_SPECS",
    "build_dataset",
    "standard_datasets",
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
