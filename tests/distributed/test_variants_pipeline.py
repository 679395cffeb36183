"""End-to-end variant detection: divergent locus -> bubble -> calls."""

import numpy as np
import pytest

from repro import AssemblyConfig, FocusAssembler
from repro.distributed.stages import get_stage, run_stage_on_comm
from repro.io.readset import ReadSet
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.simulate.genome import Genome, mutate, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def call_variants(dag, **params):
    """Every rank's copy of the ``variants`` stage result."""
    cluster = SimCluster(dag.n_parts, cost_model=FAST)
    return cluster.run(run_stage_on_comm, get_stage("variants"), dag, **params)[0]


@pytest.fixture(scope="module")
def divergent_sample():
    rng = np.random.default_rng(99)
    allele_a = random_genome(12_000, rng)
    allele_b = allele_a.copy()
    allele_b[5_000:5_400] = mutate(allele_a[5_000:5_400], 0.30, rng)
    sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=12, seed=99))
    reads_a = sim.simulate_genome(Genome("alleleA", allele_a))
    reads_b = sim.simulate_genome(Genome("alleleB", allele_b), id_prefix="alleleB")
    pooled = ReadSet(list(reads_a) + list(reads_b))
    n_true = int((allele_a != allele_b).sum())
    assembler = FocusAssembler(
        AssemblyConfig(n_partitions=4, run_trimming=False), cost_model=FAST
    )
    result = assembler.assemble(pooled)
    return allele_a, allele_b, n_true, result


class TestVariantPipeline:
    def test_divergent_locus_forms_bubble_and_calls(self, divergent_sample):
        a, b, n_true, result = divergent_sample
        results = call_variants(result.dag, max_variants_per_bubble=300)
        calls = results[0]
        snvs = [v for v in calls if v.kind == "snv"]
        # Most of the planted differences are recovered (the bubble
        # boundary excludes the window's outermost bases).
        assert len(snvs) > 0.5 * n_true
        # All calls are genuine single-base differences.
        for v in snvs:
            assert v.ref_allele != v.alt_allele

    def test_calls_match_planted_alleles(self, divergent_sample):
        a, b, _, result = divergent_sample
        from repro.sequence.dna import decode

        results = call_variants(result.dag, max_variants_per_bubble=300)
        snvs = [v for v in results[0] if v.kind == "snv"]
        if not snvs:
            pytest.skip("no bubble this seed")
        # Each (ref, alt) base pair must occur at some genome position
        # where the alleles differ with exactly those bases (in either
        # orientation - the branch contigs may be reverse complements).
        diff_pos = np.flatnonzero(a != b)
        pairs = {(decode(a[p : p + 1]), decode(b[p : p + 1])) for p in diff_pos}
        pairs |= {(y, x) for x, y in pairs}
        from repro.sequence.dna import reverse_complement

        rc_pairs = {
            (decode(reverse_complement(a[p : p + 1])), decode(reverse_complement(b[p : p + 1])))
            for p in diff_pos
        }
        pairs |= rc_pairs | {(y, x) for x, y in rc_pairs}
        matching = sum(1 for v in snvs if (v.ref_allele, v.alt_allele) in pairs)
        assert matching > 0.9 * len(snvs)

    def test_homozygous_sample_has_no_calls(self):
        rng = np.random.default_rng(7)
        genome = Genome("g", random_genome(6_000, rng))
        reads = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=10, seed=7)
        ).simulate_genome(genome)
        assembler = FocusAssembler(
            AssemblyConfig(n_partitions=2, run_trimming=False), cost_model=FAST
        )
        result = assembler.assemble(reads)
        results = call_variants(result.dag)
        assert results[0] == []
