"""Failure-injection tests: the system degrades loudly, not silently."""

import io

import numpy as np
import pytest

from repro import AssemblyConfig, FocusAssembler
from repro.io.fastq import parse_fastq
from repro.io.readset import ReadSet
from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError
from repro.mpi.timing import CommCostModel
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


class TestCorruptInputs:
    def test_truncated_fastq_record(self):
        # file ends mid-record: quality line shorter than sequence
        text = "@r1\nACGTACGT\n+\nIIII"
        with pytest.raises(ValueError):
            list(parse_fastq(io.StringIO(text)))

    def test_garbage_bases_rejected_at_parse(self):
        text = "@r1\nAC?T\n+\nIIII\n"
        with pytest.raises(ValueError, match="invalid DNA"):
            list(parse_fastq(io.StringIO(text)))

    def test_all_reads_quality_failed(self):
        # every read is junk quality -> preprocessing drops everything
        from repro.io.records import Read

        reads = ReadSet(
            [Read.from_string(f"r{i}", "ACGT" * 30, quals=np.full(120, 2)) for i in range(10)]
        )
        assembler = FocusAssembler(AssemblyConfig(min_quality=20), cost_model=FAST)
        with pytest.raises(ValueError, match="no reads survived"):
            assembler.assemble(reads)


class TestDegenerateWorkloads:
    def test_no_overlaps_at_all(self):
        # reads from unrelated random sequences: no edges, every read a
        # singleton contig; the pipeline must not crash
        rng = np.random.default_rng
        from repro.sequence.dna import decode

        seqs = [decode(random_genome(100, rng(i))) for i in range(12)]
        reads = ReadSet.from_strings(seqs)
        assembler = FocusAssembler(
            AssemblyConfig(n_partitions=2, add_reverse_complements=False), cost_model=FAST
        )
        result = assembler.assemble(reads)
        assert result.g0.n_edges == 0
        assert result.stats.n_contigs == 12
        assert result.stats.n50 == 100

    def test_single_read(self):
        from repro.sequence.dna import decode

        reads = ReadSet.from_strings([decode(random_genome(150, np.random.default_rng(0)))])
        assembler = FocusAssembler(
            AssemblyConfig(n_partitions=1, add_reverse_complements=False), cost_model=FAST
        )
        result = assembler.assemble(reads)
        assert result.stats.n_contigs == 1
        assert result.stats.max_contig == 150

    def test_identical_duplicate_reads(self):
        from repro.sequence.dna import decode

        seq = decode(random_genome(120, np.random.default_rng(5)))
        reads = ReadSet.from_strings([seq] * 8)
        assembler = FocusAssembler(
            AssemblyConfig(n_partitions=2, add_reverse_complements=False), cost_model=FAST
        )
        result = assembler.assemble(reads)
        # eight copies of one sequence collapse to one contig of it
        assert result.stats.max_contig == 120

    def test_extreme_error_rate_fragments_assembly(self):
        g = Genome("g", random_genome(4000, np.random.default_rng(6)))
        clean = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=8, seed=6, flat_error_rate=0.0)
        ).simulate_genome(g)
        noisy = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=8, seed=6, flat_error_rate=0.08)
        ).simulate_genome(g)
        assembler = FocusAssembler(AssemblyConfig(n_partitions=2), cost_model=FAST)
        r_clean = assembler.assemble(clean)
        r_noisy = assembler.assemble(noisy)
        # 8% error kills most 50bp-overlap identities (0.92^... < 90%),
        # so the noisy assembly must be far more fragmented.
        assert r_noisy.stats.n50 < r_clean.stats.n50
        assert r_noisy.stats.n_contigs > r_clean.stats.n_contigs

    def test_low_coverage_leaves_gaps(self):
        g = Genome("g", random_genome(6000, np.random.default_rng(7)))
        sparse = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=2, seed=7)
        ).simulate_genome(g)
        assembler = FocusAssembler(AssemblyConfig(n_partitions=2), cost_model=FAST)
        result = assembler.assemble(sparse)
        # 2x coverage cannot produce one contig: coverage gaps fragment
        assert result.stats.n_contigs > 3
        assert result.stats.max_contig < len(g)


class TestRuntimeFailures:
    def test_worker_crash_surfaces_rank(self):
        def fn(comm):
            if comm.rank == 1:
                raise KeyError("partition table corrupted")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            SimCluster(3, cost_model=FAST).run(fn)

    def test_mismatched_collective_deadlocks_cleanly(self):
        def fn(comm):
            if comm.rank == 0:
                yield comm.gather(1, root=0)
            # rank 1 returns immediately

        with pytest.raises(DeadlockError, match="rank 1 exited without joining"):
            SimCluster(2, cost_model=FAST).run(fn)
