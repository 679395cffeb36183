"""Tests for the suffix-array read index and parallel alignment."""

import numpy as np
import pytest

from repro.align.kmer_index import KmerIndex
from repro.align.overlapper import OverlapConfig, OverlapDetector, OverlapSubject
from repro.distributed.stages import get_stage, run_stage_on_comm
from repro.io.readset import ReadSet
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.sequence.dna import encode
from repro.sequence.kmers import kmer_codes
from tests.align.test_overlapper import find_overlaps_on, tiled_reads
from tests.reference.sa_index import SuffixArrayReadIndex

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


class TestSuffixArrayReadIndex:
    def test_matches_kmer_index(self):
        rs = ReadSet.from_strings(["ACGTACGTAC", "TTACGTAAAC", "GGGGACGTAC"])
        k = 5
        sa_idx = SuffixArrayReadIndex(rs, k)
        km_idx = KmerIndex(rs, k)
        for query in ("ACGTACGTAC", "TTTTT", "GACGT"):
            vals = kmer_codes(encode(query), k)
            a = sa_idx.lookup(vals)
            b = km_idx.lookup(vals)
            key = lambda t: sorted(zip(t[0].tolist(), t[1].tolist(), t[2].tolist()))
            assert key(a) == key(b), f"disagreement for {query}"

    def test_no_boundary_spanning_matches(self):
        # "AC|GT" concatenated: pattern ACGT must NOT match across reads
        rs = ReadSet.from_strings(["AAAC", "GTTT"])
        idx = SuffixArrayReadIndex(rs, 4)
        vals = kmer_codes(encode("ACGT"), 4)
        qpos, _, _ = idx.lookup(vals)
        assert qpos.size == 0

    def test_subset_restriction(self):
        rs = ReadSet.from_strings(["ACGTA", "ACGTA", "ACGTA"])
        idx = SuffixArrayReadIndex(rs, 5, read_indices=np.array([2]))
        vals = kmer_codes(encode("ACGTA"), 5)
        _, hit_reads, _ = idx.lookup(vals)
        assert set(hit_reads.tolist()) == {2}

    def test_len_counts_windows(self):
        rs = ReadSet.from_strings(["ACGTAC", "AC"])
        assert len(SuffixArrayReadIndex(rs, 3)) == 4  # 4 + 0 windows

    def test_empty_readset(self):
        idx = SuffixArrayReadIndex(ReadSet.from_strings([]), 3)
        qpos, _, _ = idx.lookup(np.array([7]))
        assert qpos.size == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SuffixArrayReadIndex(ReadSet.from_strings(["ACG"]), 0)


class TestDetectorWithSuffixArray:
    def test_same_overlaps_as_kmer_index(self):
        reads, _ = tiled_reads(genome_len=500)
        cfg = OverlapConfig(min_overlap=50)
        km, _ = find_overlaps_on("kmer", cfg, reads)
        sa, _ = find_overlaps_on("suffix_array", cfg, reads)
        assert len(km) and km.to_overlaps() == sa.to_overlaps()


class TestParallelAlignment:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_matches_serial(self, n_ranks):
        reads, _ = tiled_reads(genome_len=800)
        config = OverlapConfig(min_overlap=50, n_subsets=4)
        serial = OverlapDetector(config).find_overlaps(reads)
        results, stats = SimCluster(n_ranks, cost_model=FAST).run(
            run_stage_on_comm, get_stage("overlap"), OverlapSubject(reads, config, n_ranks)
        )
        for packed, _candidates in results:
            assert packed.to_overlaps() == serial
        assert stats.elapsed > 0

    def test_work_spread_over_ranks(self):
        reads, _ = tiled_reads(genome_len=1200)
        config = OverlapConfig(min_overlap=50, n_subsets=4)
        _, stats = SimCluster(4, cost_model=FAST).run(
            run_stage_on_comm, get_stage("overlap"), OverlapSubject(reads, config, 4)
        )
        busy = [c for c in stats.compute_times if c > 0]
        assert len(busy) >= 3  # 10 subset pairs LPT-packed on 4 ranks
