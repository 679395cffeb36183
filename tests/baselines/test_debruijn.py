"""Tests for the de Bruijn baseline assembler."""

import numpy as np
import pytest

from repro.analysis.accuracy import evaluate_assembly
from repro.baselines.debruijn import DeBruijnAssembler, DeBruijnConfig
from repro.io.readset import ReadSet
from repro.sequence.dna import decode, reverse_complement
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator


def tiled_reads(genome, read_len=60, stride=20):
    seqs = [
        decode(genome[s : s + read_len])
        for s in range(0, len(genome) - read_len + 1, stride)
    ]
    return ReadSet.from_strings(seqs)


class TestDeBruijnConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            DeBruijnConfig(k=1)
        with pytest.raises(ValueError):
            DeBruijnConfig(k=40)
        with pytest.raises(ValueError):
            DeBruijnConfig(min_count=0)


class TestDeBruijnAssembler:
    def test_perfect_reads_reconstruct_genome(self):
        genome = random_genome(1500, np.random.default_rng(4))
        reads = tiled_reads(genome)
        asm = DeBruijnAssembler(DeBruijnConfig(k=21, min_count=1, min_contig_length=50))
        contigs, stats = asm.assemble(reads)
        assert stats.n_contigs == 1
        assert decode(contigs[0]) == decode(genome)

    def test_kmer_counts(self):
        reads = ReadSet.from_strings(["ACGTA", "ACGTA"])
        asm = DeBruijnAssembler(DeBruijnConfig(k=4, min_count=1))
        counts = asm.count_kmers(reads)
        assert all(v == 2 for v in counts.values())
        assert len(counts) == 2  # ACGT and CGTA

    def test_error_kmers_filtered(self):
        genome = random_genome(800, np.random.default_rng(5))
        clean = tiled_reads(genome, stride=10)
        # add one error-containing read
        bad = decode(genome[:60])
        bad = ("A" if bad[30] != "A" else "C").join([bad[:30], bad[31:]])
        reads = ReadSet.from_strings([clean.sequence_of(i) for i in range(len(clean))] + [bad])
        asm = DeBruijnAssembler(DeBruijnConfig(k=21, min_count=2, min_contig_length=50))
        contigs, stats = asm.assemble(reads)
        # The erroneous k-mers are filtered, so the backbone stays one
        # contig; genome *ends* are covered once only and also drop out.
        assert stats.n_contigs == 1
        assert decode(contigs[0]) in decode(genome)
        assert contigs[0].size >= 700

    def test_repeat_breaks_contigs(self):
        rng = np.random.default_rng(6)
        a = random_genome(400, rng)
        rep = random_genome(100, rng)
        b = random_genome(400, rng)
        c = random_genome(400, rng)
        genome = np.concatenate([a, rep, b, rep, c])
        reads = tiled_reads(genome, read_len=60, stride=15)
        asm = DeBruijnAssembler(DeBruijnConfig(k=21, min_count=1, min_contig_length=30))
        _, stats = asm.assemble(reads)
        # the shared 100bp repeat (> k) must fragment the assembly
        assert stats.n_contigs > 1

    def test_simulated_reads_with_errors(self):
        g = Genome("g", random_genome(3000, np.random.default_rng(7)))
        sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=20, seed=7))
        reads = sim.simulate_genome(g).with_reverse_complements()
        asm = DeBruijnAssembler(DeBruijnConfig(k=25, min_count=3, min_contig_length=100))
        contigs, stats = asm.assemble(reads)
        assert stats.total_bases > 0.5 * len(g)
        fwd = decode(g.codes)
        rc = decode(reverse_complement(g.codes))
        big = decode(max(contigs, key=lambda c: c.size))
        assert big in fwd or big in rc

    def test_min_contig_length_filter(self):
        reads = ReadSet.from_strings(["ACGTACGTAA"])
        asm = DeBruijnAssembler(DeBruijnConfig(k=4, min_count=1, min_contig_length=100))
        contigs, stats = asm.assemble(reads)
        assert contigs == [] and stats.n_contigs == 0


class TestDeBruijnTruth:
    """Unitigs place on the genome they came from (the shootout's setting)."""

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_unitigs_place_on_the_genome(self, seed):
        genome = Genome("plain", random_genome(15_000, np.random.default_rng(seed)))
        sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=15, seed=seed))
        reads = sim.simulate_genome(genome).with_reverse_complements()
        asm = DeBruijnAssembler(DeBruijnConfig(k=31, min_count=3, min_contig_length=100))
        contigs, _ = asm.assemble(reads)
        report = evaluate_assembly(contigs, [genome], min_identity=0.99)
        assert report.n_misassembled == 0
        assert report.mean_identity >= 0.99
        assert report.genome_fraction >= 0.99
