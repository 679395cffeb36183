"""End-to-end integration: metagenome assembly + community analysis.

A miniature version of the paper's full workflow (Fig. 7): simulate a
gut community, assemble with Focus, partition the hybrid graph,
classify reads, and verify the community-structure claims — all the
packages working together.
"""

import numpy as np
import pytest

from repro import AssemblyConfig, FocusAssembler
from repro.analysis.classify import KmerClassifier
from repro.analysis.community import (
    genus_partition_matrix,
    max_fraction_per_genus,
    phylum_colocation,
)
from repro.graph.csr import split_groups
from repro.mpi.timing import CommCostModel
from repro.simulate.community import CommunityConfig, build_community
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from repro.simulate.taxonomy import PHYLUM_OF

FAST = CommCostModel(alpha=1e-6, beta=1e-9)
K = 8


@pytest.fixture(scope="module")
def pipeline():
    community = build_community(
        CommunityConfig(shared_length=2500, private_length=2000, repeat_copies=0),
        seed=21,
    )
    reads = ReadSimulator(
        ReadSimConfig(read_length=100, coverage=7, seed=21)
    ).simulate_community(community)
    assembler = FocusAssembler(AssemblyConfig(n_partitions=K), cost_model=FAST)
    result = assembler.assemble(reads)
    return community, reads, result


class TestMetagenomePipeline:
    def test_assembly_recovers_most_bases(self, pipeline):
        community, _, result = pipeline
        assert result.stats.total_bases > 0.6 * community.total_genome_bases

    def test_contigs_pure_by_genus(self, pipeline):
        # Each contig's reads should mostly come from one genus: the
        # hybrid clusters respect the linearity of each genome.
        community, _, result = pipeline
        clusters = split_groups(*result.hyb.members_of_hybrid())
        meta = result.processed_reads.meta
        impure = 0
        for cluster in clusters:
            genera = {meta[int(r)]["genus"] for r in cluster}
            impure += len(genera) > 1
        assert impure < 0.25 * len(clusters)

    def test_partitions_capture_community(self, pipeline):
        community, _, result = pipeline
        genera = sorted({g.meta["genus"] for g in community.genomes})
        truth = [m.get("genus") for m in result.processed_reads.meta]
        matrix = genus_partition_matrix(truth, result.read_partitions, genera, K)
        assert max_fraction_per_genus(matrix).mean() > 2.0 / K
        same, cross = phylum_colocation(matrix, genera, PHYLUM_OF)
        assert same > cross

    def test_classifier_agrees_with_truth(self, pipeline):
        community, _, result = pipeline
        classifier = KmerClassifier(community.reference_database(), k=21)
        acc = classifier.accuracy_against_truth(result.processed_reads)
        assert acc > 0.9

    def test_partition_balance(self, pipeline):
        _, _, result = pipeline
        parts = result.read_partitions
        counts = np.bincount(parts, minlength=K)
        assert counts.max() < 3 * max(counts.mean(), 1)


class TestDeterminism:
    def test_same_seed_same_assembly(self):
        community = build_community(
            CommunityConfig(shared_length=1500, private_length=1200, repeat_copies=0),
            seed=33,
        )
        reads = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=6, seed=33)
        ).simulate_community(community)
        cfg = AssemblyConfig(n_partitions=4)
        r1 = FocusAssembler(cfg, cost_model=FAST).assemble(reads)
        r2 = FocusAssembler(cfg, cost_model=FAST).assemble(reads)
        assert r1.stats == r2.stats
        assert [c.tolist() for c in r1.contigs] == [c.tolist() for c in r2.contigs]
        assert (r1.read_partitions == r2.read_partitions).all()
