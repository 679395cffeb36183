"""Unit tests for the sorted k-mer index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.kmer_index import KmerIndex
from repro.io.readset import ReadSet
from repro.sequence.dna import encode
from repro.sequence.kmers import kmer_codes
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from tests.reference.kmer_index_bounds import BoundsKmerIndex


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
        vals = rs.kmer_table(7)[0]
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


COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A"}


def revcomp(seq):
    return "".join(COMPLEMENT[c] for c in reversed(seq))


def string_windows(reads, k, indices):
    """``{(read, offset): (canonical k-mer, strand, class)}`` of every
    ``N``-free window, from the strings: the class is the flanking
    bases ``(in front, behind)`` read on the canonical k-mer's strand,
    ``None`` where there is none or it is ``N``."""
    found = {}
    for x in np.asarray(indices).tolist():
        seq = reads.sequence_of(x)
        for o in range(len(seq) - k + 1):
            w = seq[o : o + k]
            if "N" in w:
                continue
            before = seq[o - 1] if o and seq[o - 1] != "N" else None
            after = seq[o + k] if o + k < len(seq) and seq[o + k] != "N" else None
            rc = revcomp(w)
            if w == rc:
                found[x, o] = (w, 2, (None, None))
            elif w < rc:
                found[x, o] = (w, 0, (before, after))
            else:
                found[x, o] = (rc, 1, (COMPLEMENT.get(after), COMPLEMENT.get(before)))
    return found


def seed_pairs(query, ref):
    """``(q, o, strand, r, p, strand)`` of every pair of a query and a
    ref window (``string_windows``) of one canonical k-mer that is a
    seed: their classes differ or either lacks a flank.  Also the
    number of all such pairs, seeds or not."""
    seeds, hits = [], 0
    for (q, o), (kq, sq, cq) in query.items():
        for (r, p), (kr, sr, cr) in ref.items():
            if kq == kr:
                hits += 1
                if cq != cr or None in cq or None in cr:
                    seeds.append((q, o, sq, r, p, sr))
    return sorted(seeds), hits


def expanded(entries, lo, counts, rows):
    """``(window..., row read, row offset, row strand)`` of every row of
    the ranges: the seed pairs an index hands out."""
    at = np.concatenate([np.arange(a, a + n) for a, n in zip(lo, counts)] or [np.empty(0, int)])
    return sorted(
        zip(
            *(np.repeat(column, counts).tolist() for column in entries),
            *(table[at].tolist() for table in rows),
        )
    )


class TestSeeds:
    """``seed_ranges`` and ``self_join`` hand out exactly the pairs of
    windows of one canonical k-mer — on the same strand or not — whose
    flank classes differ or lack a base, each once per side."""

    SEQS = [
        "ACGTACGTTTGACCA",
        "GTACGTTTGACN",
        "NACGTTTGACCAGG",
        "TTGACCATTGACCA",
        "ACG",
        "ACGTACGTTTGACCA",
        "TGGTCAAACGTACGT",  # read 0's reverse complement
    ]

    @pytest.mark.parametrize("k", [3, 5, 31])
    def test_self_join_is_the_left_maximal_part_of_lookup(self, k):
        # The name predates the strands: a seed is now a match end on
        # either side, of either strand.
        seqs = [s * 4 for s in self.SEQS] if k == 31 else self.SEQS
        reads = ReadSet.from_strings(seqs)
        idx = KmerIndex(reads, k)
        windows = string_windows(reads, k, range(len(reads)))
        expected, hits = seed_pairs(windows, windows)
        assert 0 < len(expected) < hits
        jr, jo, js, lo, counts, *rows = idx.self_join()
        assert (counts > 0).all()
        assert (np.diff(jr * 1000 + jo) >= 0).all()  # window order
        assert all(windows[q, o][1] == s for q, o, s in zip(jr.tolist(), jo.tolist(), js.tolist()))
        assert expanded((jr, jo, js), lo, counts, rows) == expected
        # both strands pair: read 6 is read 0 backwards.
        assert any(q == 0 and r == 6 and sq != sr for q, _, sq, r, _, sr in expected)

    @pytest.mark.parametrize("k", [3, 5])
    def test_seed_ranges_of_another_subset(self, k):
        reads = ReadSet.from_strings(self.SEQS)
        ref, query = np.array([0, 2, 5]), np.array([3, 1, 4, 6])
        idx = KmerIndex(reads, k, ref)
        vals, win_reads, win_offsets = reads.kmer_table(k, query)
        expected, _ = seed_pairs(string_windows(reads, k, query), string_windows(reads, k, ref))
        windows, win_strands, lo, counts, *rows = idx.seed_ranges(vals, win_offsets)
        assert (counts > 0).all() and (np.diff(windows) >= 0).all()
        entries = (win_reads[windows], win_offsets[windows], win_strands)
        assert expanded(entries, lo, counts, rows) == expected

    def test_rows_are_sorted_by_kmer_class_read_offset(self):
        reads = ReadSet.from_strings(["TACGA", "GACGT", "ACGTACG", "NACGC"])
        idx = KmerIndex(reads, 3)
        # ACG and CGT are one canonical k-mer, ACG; its rows by class
        # (in front, behind on ACG's strand; 4 is none):
        run = np.searchsorted(idx.run_kmers, kmer_codes(encode("ACG"), 3)[0])
        rows = slice(idx.run_lo[run], idx.run_lo[run + 1])
        assert list(
            zip(idx.kmer_reads[rows].tolist(), idx.kmer_offsets[rows].tolist(), idx.kmer_strands[rows].tolist())
        ) == [
            (1, 1, 0),  # G.T  13
            (0, 1, 0),  # T.A  15
            (2, 1, 1),  # CGT between A and A: T.T  18
            (2, 4, 0),  # T.   19
            (3, 1, 0),  # .C   21
            (1, 2, 1),  # CGT after A, at the end: .T  23
            (2, 0, 0),  # .T   23
        ]
        # lookup answers on the query's own strand only.
        cgt = idx.lookup(kmer_codes(encode("CGT"), 3))
        assert list(zip(cgt[1].tolist(), cgt[2].tolist())) == [(2, 1), (1, 2)]


@st.composite
def read_sets(draw):
    """Up to eight reads cut from one short, possibly tandem-repeated
    sequence — so k-mers repeat within and across reads, on two letters
    with several predecessor classes each — with a few bases changed,
    to ``N`` or to another base; sometimes no read at all."""
    alphabet = draw(st.sampled_from(["ACGT", "AC"]))
    motif = draw(st.text(alphabet=alphabet, min_size=1, max_size=40))
    source = motif * draw(st.integers(min_value=1, max_value=4))
    seqs = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        lo = draw(st.integers(min_value=0, max_value=len(source) - 1))
        hi = draw(st.integers(min_value=lo + 1, max_value=len(source)))
        read = list(source[lo:hi])
        for at in draw(st.lists(st.integers(min_value=0, max_value=len(read) - 1), max_size=3)):
            read[at] = draw(st.sampled_from("ACGTN"))
        seqs.append("".join(read))
    return seqs


def assert_same(got, expect):
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g.dtype == e.dtype and np.array_equal(g, e)


class TestAgainstBoundsTable:
    """The sub-run index answers exactly as the dense ``(distinct
    k-mers, 26)`` class-boundary table does, array for array."""

    @settings(max_examples=400, deadline=None)
    @given(read_sets(), st.sampled_from([3, 5, 16, 30, 31]), st.data())
    def test_every_reader_equals_the_oracle(self, seqs, k, data):
        reads = ReadSet.from_strings(seqs)
        n = len(reads)
        everyone = np.arange(n, dtype=np.int64)
        ref = everyone
        if n and data.draw(st.booleans(), label="subset"):
            keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="keep")
            picked = data.draw(st.permutations(everyone[keep].tolist()), label="ref")
            ref = np.array(picked, dtype=np.int64)
        idx, oracle = KmerIndex(reads, k, ref), BoundsKmerIndex(reads, k, ref)
        assert_same((idx.kmer_reads, idx.kmer_offsets), (oracle.kmer_reads, oracle.kmer_offsets))
        assert_same(idx.self_join(), oracle.self_join())
        query = np.array(
            data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True), label="query")
            if n
            else [],
            dtype=np.int64,
        )
        # the reads left out of the index: classes its runs lack.
        for reads_in in (query, np.setdiff1d(everyone, ref)):
            vals, _, offsets = reads.kmer_table(k, reads_in)
            assert_same(idx.seed_ranges(vals, offsets), oracle.seed_ranges(vals, offsets))
        # any values, absent and invalid ones too.
        noise = np.array(
            data.draw(st.lists(st.integers(-1, 4**k - 1), max_size=10), label="noise"),
            dtype=np.int64,
        )
        needles = np.concatenate([vals, noise, idx.run_kmers[:3]])
        assert_same(idx.lookup(needles), oracle.lookup(needles))


def shotgun_sample():
    """2,000 100-bp reads of a 25 kb random genome at 0.5 % error, with
    their reverse complements, as the pipeline indexes them."""
    rng = np.random.default_rng(11)
    genome = Genome("g", random_genome(25_000, rng))
    sim = ReadSimulator(ReadSimConfig(coverage=8, flat_error_rate=0.005, seed=11))
    return sim.simulate_genome(genome).with_reverse_complements()


class TestMemory:
    """What the index costs per window, resident and while it builds.
    It holds the forward reads' windows only: the 4,000 reads with
    their mates index as 2,000.  The forward-strand index of both
    (before the strand codes) held 23.5 B per window of 4,000 reads and
    peaked at 40.1 B building."""

    def test_resident_and_build_peak_per_window(self):
        import tracemalloc

        reads = shotgun_sample()
        reads.kmer_table(16, np.arange(reads.n_forward))  # the read set's cache, not the index's
        tracemalloc.start()
        try:
            idx = KmerIndex(reads, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_windows = len(idx)
        assert len(reads) == 4000 and n_windows == 2000 * 85
        resident = sum(a.nbytes for a in vars(idx).values() if isinstance(a, np.ndarray))
        # measured 24.7 and 41.2; a window-sized array more is 8 B.
        assert resident / n_windows <= 25.0
        assert peak / n_windows <= 44.0
