"""Integration tests: the full Focus pipeline on simulated data."""

import numpy as np
import pytest

from repro.core import AssemblyConfig, finish_plan
from repro.core.focus import FocusAssembler, deduplicate_contigs
from repro.mpi.timing import CommCostModel
from repro.sequence.dna import decode, encode, reverse_complement
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def simulate(genome_len=8000, coverage=12, seed=1, error=None):
    g = Genome("g", random_genome(genome_len, np.random.default_rng(seed)))
    cfg = ReadSimConfig(read_length=100, coverage=coverage, seed=seed, flat_error_rate=error)
    return g, ReadSimulator(cfg).simulate_genome(g)


@pytest.fixture(scope="module")
def assembled():
    genome, reads = simulate()
    assembler = FocusAssembler(AssemblyConfig(n_partitions=4), cost_model=FAST)
    return genome, reads, assembler.assemble(reads)


class TestDeduplicateContigs:
    def test_removes_exact_rc_mirror(self):
        a = encode("ACGTACGTACGTAATT")
        contigs = [a, reverse_complement(a)]
        assert len(deduplicate_contigs(contigs)) == 1

    def test_removes_contained(self):
        a = encode("ACGTACGTACGTAATT")
        assert len(deduplicate_contigs([a, a[2:10].copy()])) == 1

    def test_keeps_distinct(self):
        a = encode("ACGTACGTACGTAATT")
        b = encode("TTTTGGGGCCCCAAAA")
        assert len(deduplicate_contigs([a, b])) == 2

    def test_keeps_longest(self):
        a = encode("ACGTACGTACGTAATT")
        out = deduplicate_contigs([a[:8].copy(), a])
        assert len(out) == 1 and out[0].size == a.size


class TestFocusPipeline:
    def test_contigs_match_genome(self, assembled):
        # The simulator's quality-driven error model leaves rare errors
        # at low-coverage cluster edges, so require near-total (not
        # exact) k-mer agreement between contigs and the genome.
        from repro.sequence.kmers import kmer_codes

        genome, _, res = assembled
        k = 31
        ref = set(kmer_codes(genome.codes, k).tolist())
        ref |= set(kmer_codes(reverse_complement(genome.codes), k).tolist())
        for contig in res.contigs:
            vals = kmer_codes(contig, k)
            hit = sum(1 for v in vals.tolist() if v in ref)
            assert hit / max(len(vals), 1) > 0.95

    def test_most_bases_recovered(self, assembled):
        genome, _, res = assembled
        assert res.stats.max_contig >= 0.3 * len(genome)
        assert res.stats.total_bases >= 0.8 * len(genome)

    def test_stage_timings_present(self, assembled):
        _, _, res = assembled
        for stage in ("preprocess", "align", "coarsen", "hybrid", "partition", "traverse"):
            assert stage in res.timer.durations
        for stage, _ in finish_plan(AssemblyConfig()):
            assert stage in res.virtual_times

    def test_distributed_stages_are_child_spans(self, assembled):
        """Each finish stage is a child of its trim / traverse span, on
        the backend's clock; the flat view holds only the parents."""
        _, _, res = assembled
        spans = res.timer.spans
        children = [s for s in spans if s.parent is not None]
        assert [s.name for s in children] == [name for name, _ in finish_plan(AssemblyConfig())]
        for child in children:
            parent = spans[child.parent]
            assert parent.name == ("traverse" if child.name == "traversal" else "trim")
            assert child.tags == {"clock": res.time_kind}
            assert child.start == parent.start and child.counts.keys() == {
                "nodes_removed",
                "edges_removed",
                "retries",
                "fallbacks",
            }
            assert child.counts["retries"] == child.counts["fallbacks"] == 0
        assert not any(s.name in res.timer.durations for s in children)
        top = [s for s in spans if s.parent is None]
        assert all(a.end <= b.start for a, b in zip(top, top[1:]))

    def test_emission_votes_each_base_once(self, assembled):
        """Work guard, read off the contigs span: every node of a
        multi-node path is overlaid once and each of its bases voted once."""
        _, _, res = assembled
        (span,) = [s for s in res.timer.spans if s.name == "contigs"]
        flat, lens = res.paths
        multi = flat[np.repeat(lens > 1, lens)]
        assert multi.size > 0
        assert span.counts["nodes_overlaid"] == multi.size
        assert span.counts["bases_voted"] == res.assembly.contig_lengths[multi].sum()
        assert 1 <= span.counts["blocks"] <= span.counts["nodes_overlaid"]
        assert span.counts["max_depth"] >= 1

    def test_read_partitions_cover_reads(self, assembled):
        _, _, res = assembled
        parts = res.read_partitions
        assert parts.size == len(res.processed_reads)
        assert parts.min() >= 0 and parts.max() < 4

    def test_finish_reusable_across_k(self, assembled):
        genome, reads, _ = assembled
        assembler = FocusAssembler(AssemblyConfig(n_partitions=4), cost_model=FAST)
        prep = assembler.prepare(reads)
        r2 = assembler.finish(prep, n_partitions=2)
        r8 = assembler.finish(prep, n_partitions=8)
        # Table III's claim: stats are stable across partition counts.
        assert r2.stats.n50 > 0 and r8.stats.n50 > 0
        assert abs(r2.stats.n50 - r8.stats.n50) <= 0.2 * max(r2.stats.n50, r8.stats.n50)

    def test_finish_does_not_corrupt_prepared(self, assembled):
        _, reads, _ = assembled
        assembler = FocusAssembler(AssemblyConfig(n_partitions=2), cost_model=FAST)
        prep = assembler.prepare(reads)
        alive_before = prep.assembly.graph.n_nodes
        assembler.finish(prep)
        r2 = assembler.finish(prep)
        assert r2.dag.graph.n_nodes == alive_before
        assert r2.dag.node_alive.size == alive_before

    def test_multilevel_mode(self, assembled):
        _, reads, _ = assembled
        assembler = FocusAssembler(
            AssemblyConfig(n_partitions=2, partition_mode="multilevel"), cost_model=FAST
        )
        res = assembler.assemble(reads)
        assert res.stats.n_contigs > 0
        assert res.partition.labels_finest.size == res.hyb.hybrid.n_nodes

    def test_assembly_with_errors(self):
        genome, reads = simulate(genome_len=5000, coverage=15, seed=3, error=0.005)
        assembler = FocusAssembler(AssemblyConfig(n_partitions=2), cost_model=FAST)
        res = assembler.assemble(reads)
        # Errors should be consensus-corrected: contigs still align to genome.
        fwd = decode(genome.codes)
        big = max(res.contigs, key=lambda c: c.size)
        assert big.size > 500
        # Spot-check identity of the largest contig against the genome.
        found = fwd.find(decode(big[:50])) >= 0 or decode(
            reverse_complement(genome.codes)
        ).find(decode(big[:50])) >= 0
        assert found

    def test_empty_reads_rejected(self):
        from repro.io.readset import ReadSet

        assembler = FocusAssembler(AssemblyConfig(), cost_model=FAST)
        with pytest.raises(ValueError, match="no reads"):
            assembler.assemble(ReadSet.from_strings([]))

    def test_unrelated_reads_become_one_contig_each(self):
        # Edgeless G0 end to end: nothing coarsens, every read is its
        # own hybrid node, and only the reverse-complement mirrors go.
        from repro.io.readset import ReadSet

        rng = np.random.default_rng(11)
        seqs = [random_genome(100, rng) for _ in range(5)]
        reads = ReadSet.from_strings([decode(s) for s in seqs])
        res = FocusAssembler(AssemblyConfig(n_partitions=2), cost_model=FAST).assemble(reads)
        assert res.g0.n_edges == 0 and res.hyb.n_levels == 1
        got = {c.tobytes() for c in res.contigs}
        assert len(got) == len(res.contigs) == 5
        for s in seqs:
            assert {s.tobytes(), reverse_complement(s).tobytes()} & got

    def test_invalid_finish_args(self, assembled):
        _, reads, _ = assembled
        assembler = FocusAssembler(AssemblyConfig(), cost_model=FAST)
        prep = assembler.prepare(reads)
        with pytest.raises(ValueError):
            assembler.finish(prep, n_partitions=3)
        with pytest.raises(ValueError):
            assembler.finish(prep, partition_mode="magic")


class TestOneSeed:
    """``AssemblyConfig.seed`` is the one seed of a run."""

    @staticmethod
    def assemble(reads, seed):
        config = AssemblyConfig(n_partitions=4, backend="serial", seed=seed)
        return FocusAssembler(config, cost_model=FAST).assemble(reads)

    def test_seed_changes_the_partition_and_reproduces_it(self, assembled):
        _, reads, default = assembled
        seven = self.assemble(reads, 7).partition.labels_finest
        assert not np.array_equal(seven, default.partition.labels_finest)
        assert np.array_equal(seven, self.assemble(reads, 7).partition.labels_finest)

    def test_every_coarsening_starts_from_the_seed(self, assembled, monkeypatch):
        # G0's coarsening and each sub-bisection's fresh one.
        from repro.core import focus
        from repro.partition import recursive

        seeds = []
        real = recursive.build_multilevel_set

        def spy(graph, config=None, seed=0):
            seeds.append(seed)
            return real(graph, config, seed)

        monkeypatch.setattr(focus, "build_multilevel_set", spy)
        monkeypatch.setattr(recursive, "build_multilevel_set", spy)
        self.assemble(assembled[1], 7)
        assert seeds == [7, 7, 7]  # G0, then the two halves of k = 4
