"""Unit tests for the sorted k-mer index."""

import numpy as np
import pytest

from repro.align.kmer_index import KmerIndex
from repro.io.readset import ReadSet
from repro.sequence.dna import encode
from repro.sequence.kmers import kmer_codes


class TestKmerIndex:
    def test_build_counts(self):
        rs = ReadSet.from_strings(["ACGTA", "CGT"])
        idx = KmerIndex(rs, 3)
        # read0 has 3 k-mers, read1 has 1
        assert len(idx) == 4

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KmerIndex(ReadSet.from_strings(["ACG"]), 0)

    def test_lookup_positions(self):
        rs = ReadSet.from_strings(["ACGTACGT"])
        idx = KmerIndex(rs, 4)
        vals = kmer_codes(encode("ACGT"), 4)
        qpos, hit_reads, hit_offsets = idx.lookup(vals)
        assert (hit_reads == 0).all()
        assert sorted(hit_offsets.tolist()) == [0, 4]
        assert (qpos == 0).all()

    def test_lookup_absent(self):
        rs = ReadSet.from_strings(["AAAA"])
        idx = KmerIndex(rs, 3)
        qpos, _, _ = idx.lookup(kmer_codes(encode("CCC"), 3))
        assert qpos.size == 0

    def test_lookup_skips_invalid(self):
        rs = ReadSet.from_strings(["AAAA"])
        idx = KmerIndex(rs, 3)
        qpos, _, _ = idx.lookup(np.array([-1, -1]))
        assert qpos.size == 0

    def test_subset_restriction(self):
        rs = ReadSet.from_strings(["ACGT", "ACGT", "ACGT"])
        idx = KmerIndex(rs, 4, read_indices=np.array([1]))
        _, hit_reads, _ = idx.lookup(kmer_codes(encode("ACGT"), 4))
        assert set(hit_reads.tolist()) == {1}

    def test_reads_shorter_than_k_skipped(self):
        rs = ReadSet.from_strings(["AC", "ACGT"])
        idx = KmerIndex(rs, 3)
        assert set(idx.kmer_reads.tolist()) == {1}

    def test_empty_index_lookup(self):
        rs = ReadSet.from_strings([])
        idx = KmerIndex(rs, 3)
        qpos, _, _ = idx.lookup(np.array([5]))
        assert qpos.size == 0

    def test_lookup_dtypes_int64(self):
        # Regression: the expansion index must be int64, not the
        # platform default — downstream composite-key sorts assume it.
        rs = ReadSet.from_strings(["ACGTACGT", "TACGTACG"])
        idx = KmerIndex(rs, 4)
        vals = kmer_codes(encode("ACGTACGTAC"), 4)
        qpos, hit_reads, hit_offsets = idx.lookup(vals)
        assert qpos.size > 0
        assert qpos.dtype == np.int64
        assert hit_reads.dtype == np.int64
        assert hit_offsets.dtype == np.int64

    def test_large_batch_lookup_matches_small(self):
        # A batch of any size (the needles are searched in sorted
        # order) must return exactly what a small one returns.
        rng = np.random.default_rng(5)
        rs = ReadSet.from_strings(
            ["".join(rng.choice(list("ACGT"), 60)) for _ in range(20)]
        )
        idx = KmerIndex(rs, 7)
        vals = rs.packed_kmers(7)  # includes boundary windows; lookup filters
        big = idx.lookup(np.tile(vals, 50))
        small = idx.lookup(vals)
        n = small[0].size
        assert big[0].size == 50 * n
        for b_arr, s_arr in zip(big, small):
            assert (b_arr[:n] == s_arr).all()

    def test_lookup_query_positions_align(self):
        # query read with known shared k-mer at a known offset
        rs = ReadSet.from_strings(["TTTTACGTAC"])
        idx = KmerIndex(rs, 5)
        q = encode("GGACGTACGG")
        vals = kmer_codes(q, 5)
        qpos, hit_reads, hit_offsets = idx.lookup(vals)
        # 'ACGTA' occurs at query offset 2 and ref offset 4
        pairs = set(zip(qpos.tolist(), hit_offsets.tolist()))
        assert (2, 4) in pairs


def left_maximal(reads, k, q, o, r, p):
    """Whether the hit (q, o) ~ (r, p) has no hit directly before it."""
    a, b = reads.sequence_of(q), reads.sequence_of(r)
    return o == 0 or p == 0 or a[o - 1] != b[p - 1] or a[o - 1] == "N"


class TestSeeds:
    """``seed_ranges`` and ``self_join`` hand out exactly the hits of
    ``lookup`` that are left-maximal, each once per side."""

    SEQS = [
        "ACGTACGTTTGACCA",
        "GTACGTTTGACN",
        "NACGTTTGACCAGG",
        "TTGACCATTGACCA",
        "ACG",
        "ACGTACGTTTGACCA",
    ]

    @pytest.mark.parametrize("k", [3, 5, 31])
    def test_self_join_is_the_left_maximal_part_of_lookup(self, k):
        seqs = [s * 4 for s in self.SEQS] if k == 31 else self.SEQS
        reads = ReadSet.from_strings(seqs)
        idx = KmerIndex(reads, k)
        vals, win_reads, win_offsets = reads.kmer_table(k)
        qpos, hit_reads, hit_offsets = idx.lookup(vals)
        expected = sorted(
            (q, o, r, p)
            for q, o, r, p in zip(
                win_reads[qpos].tolist(),
                win_offsets[qpos].tolist(),
                hit_reads.tolist(),
                hit_offsets.tolist(),
            )
            if left_maximal(reads, k, q, o, r, p)
        )
        assert len(expected) < qpos.size
        jr, jo, lo, counts, row_reads, row_offsets = idx.self_join()
        assert (counts > 0).all()
        assert (np.diff(jr * 1000 + jo) >= 0).all()  # window order
        rows = np.concatenate([np.arange(a, a + n) for a, n in zip(lo, counts)])
        joined = zip(
            np.repeat(jr, counts).tolist(),
            np.repeat(jo, counts).tolist(),
            row_reads[rows].tolist(),
            row_offsets[rows].tolist(),
        )
        assert sorted(joined) == expected

    @pytest.mark.parametrize("k", [3, 5])
    def test_seed_ranges_of_another_subset(self, k):
        reads = ReadSet.from_strings(self.SEQS)
        ref, query = np.array([0, 2, 5]), np.array([3, 1, 4])
        idx = KmerIndex(reads, k, ref)
        vals, win_reads, win_offsets = reads.kmer_table(k, query)
        qpos, hit_reads, hit_offsets = idx.lookup(vals)
        expected = sorted(
            (w, r, p)
            for w, r, p in zip(qpos.tolist(), hit_reads.tolist(), hit_offsets.tolist())
            if left_maximal(reads, k, int(win_reads[w]), int(win_offsets[w]), r, p)
        )
        windows, lo, counts, row_reads, row_offsets = idx.seed_ranges(vals, win_offsets)
        assert (counts > 0).all() and (np.diff(windows) >= 0).all()
        rows = np.concatenate([np.arange(a, a + n) for a, n in zip(lo, counts)])
        found = zip(
            np.repeat(windows, counts).tolist(),
            row_reads[rows].tolist(),
            row_offsets[rows].tolist(),
        )
        assert sorted(found) == expected

    def test_rows_are_sorted_by_kmer_class_read_offset(self):
        reads = ReadSet.from_strings(["TACGA", "GACGT", "ACGTACG", "NACGC"])
        idx = KmerIndex(reads, 3)
        acg = idx.lookup(kmer_codes(encode("ACG"), 3))
        # preceded by G (read 1), by T (reads 0 and 2), by nothing (2, 3).
        assert list(zip(acg[1].tolist(), acg[2].tolist())) == [
            (1, 1), (0, 1), (2, 4), (2, 0), (3, 1),
        ]
