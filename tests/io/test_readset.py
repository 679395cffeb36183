"""Unit + property tests for the columnar ReadSet container."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io.records import Read
from repro.io.readset import ReadSet
from repro.sequence.kmers import canonical_kmer_codes, kmer_codes
from repro.sequence.quality import trim_read

seq_lists = st.lists(st.text(alphabet="ACGT", min_size=1, max_size=40), min_size=0, max_size=25)


class TestConstruction:
    def test_empty(self):
        rs = ReadSet()
        assert len(rs) == 0
        assert rs.total_bases == 0

    def test_from_strings(self):
        rs = ReadSet.from_strings(["ACG", "TTTT"])
        assert len(rs) == 2
        assert rs.sequence_of(0) == "ACG"
        assert rs.sequence_of(1) == "TTTT"
        assert rs.total_bases == 7
        assert rs.lengths.tolist() == [3, 4]

    @given(seq_lists)
    def test_roundtrip_property(self, seqs):
        rs = ReadSet.from_strings(seqs)
        assert [rs.sequence_of(i) for i in range(len(rs))] == seqs
        assert rs.total_bases == sum(map(len, seqs))

    def test_getitem_negative(self):
        rs = ReadSet.from_strings(["ACG", "T"])
        assert rs[-1].sequence == "T"

    def test_getitem_out_of_range(self):
        with pytest.raises(IndexError):
            ReadSet.from_strings(["A"])[3]

    def test_quals_preserved(self):
        reads = [Read.from_string("a", "ACG", quals=np.array([1, 2, 3]))]
        rs = ReadSet(reads)
        assert rs.quals_of(0).tolist() == [1, 2, 3]

    def test_no_quals_is_none(self):
        rs = ReadSet.from_strings(["ACG"])
        assert rs.quals_of(0) is None


class TestPreprocessing:
    def test_trimmed_drops_short(self):
        reads = [
            Read.from_string("good", "A" * 50, quals=np.full(50, 40)),
            Read.from_string("bad", "A" * 50, quals=np.full(50, 2)),
        ]
        rs = ReadSet(reads).trimmed(min_quality=20, min_length=20)
        assert len(rs) == 1
        assert list(rs.ids) == ["good"]

    def test_trimmed_peak_per_input_base(self):
        # Unscored reads, as shotgun input is: the kept bases come out
        # through a one-byte mask (measured 3.1 B per input base with a
        # fixed trim), not an int64 index of every kept base (15.4 B).
        # A set with nothing to trim is kept whole, without a copy.
        import tracemalloc

        rng = np.random.default_rng(3)
        rs = ReadSet(
            Read(f"r{i}", rng.integers(0, 4, 100).astype(np.uint8), None, {})
            for i in range(10_000)
        )
        for rule, kept, bound in ((dict(trim5=4, trim3=4), 92, 4.0), ({}, 100, 1.0)):
            tracemalloc.start()
            try:
                out = rs.trimmed(**rule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out) == 10_000 and (out.lengths == kept).all()
            assert peak / rs.total_bases < bound
        assert np.array_equal(out.data, rs.data)

    def test_with_reverse_complements(self):
        rs = ReadSet.from_strings(["AACG", "TG"]).with_reverse_complements()
        assert len(rs) == 4
        assert rs.sequence_of(2) == "CGTT"
        assert rs.sequence_of(3) == "CA"
        assert rs.mirrored and rs.n_forward == 2
        with pytest.raises(ValueError, match="already"):
            rs.with_reverse_complements()

    def test_mate_of(self):
        rs = ReadSet.from_strings(["AACG", "TG"]).with_reverse_complements()
        assert rs.mate_of(0) == 2
        assert rs.mate_of(3) == 1

    def test_mate_of_requires_even(self):
        with pytest.raises(ValueError):
            ReadSet.from_strings(["A", "C", "G"]).mate_of(0)

    def test_mate_of_requires_mirrored(self):
        # An even count is not a set with mates.
        with pytest.raises(ValueError, match="with_reverse_complements"):
            ReadSet.from_strings(["ACGT", "GGCC"]).mate_of(0)

    @given(seq_lists)
    def test_rc_involution_property(self, seqs):
        rs = ReadSet.from_strings(seqs).with_reverse_complements()
        for i in range(len(rs)):
            j = rs.mate_of(i)
            assert rs.mate_of(j) == i


@st.composite
def scored_reads(draw):
    """Reads of 0..25 bases (N included); scored, unscored or mixed."""
    scoring = draw(st.sampled_from(["all", "none", "mixed"]))
    reads = []
    for i in range(draw(st.integers(min_value=0, max_value=10))):
        codes = draw(st.lists(st.integers(0, 4), max_size=25))
        scored = scoring == "all" or (scoring == "mixed" and draw(st.booleans()))
        quals = (
            draw(st.lists(st.integers(0, 41), min_size=len(codes), max_size=len(codes)))
            if scored
            else None
        )
        reads.append(Read(f"r{i}", np.array(codes, dtype=np.uint8), quals, {"n": i}))
    return ReadSet(reads)


trim_rules = st.fixed_dictionaries(
    {
        "trim5": st.integers(0, 7),
        "trim3": st.integers(0, 7),
        "window": st.integers(1, 14),
        "step": st.integers(1, 3),
        "min_quality": st.one_of(
            st.sampled_from([20.0, 19.5, 20.25, 0.0]), st.floats(0.0, 41.0)
        ),
    }
)


def assert_reads_equal(got: Read, want: Read):
    assert got.id == want.id and got.meta == want.meta
    assert got.codes.dtype == np.uint8 and np.array_equal(got.codes, want.codes)
    assert (got.quals is None) == (want.quals is None)
    if want.quals is not None:
        assert got.quals.dtype == np.int64 and np.array_equal(got.quals, want.quals)


class TestBlockPreprocessEqualsPerRead:
    """The column kernels against ``trim_read`` / ``Read.reverse_complement``."""

    @given(scored_reads(), trim_rules, st.integers(0, 6))
    def test_trimmed_matches_trim_read(self, rs, rule, min_length):
        want = []
        for i in range(len(rs)):
            codes, quals = trim_read(rs.codes_of(i), rs.quals_of(i), **rule)
            if codes.size >= min_length:
                want.append(Read(rs.ids[i], codes, quals, rs.meta[i]))
        got = rs.trimmed(min_length=min_length, **rule)
        assert len(got) == len(want)
        assert got.offsets.dtype == np.int64 and got.total_bases == got.data.size
        for read, expected in zip(got, want):
            assert_reads_equal(read, expected)

    @pytest.mark.parametrize("length", [0, 3, 5, 6])  # <, == and > the window
    def test_window_boundaries(self, length):
        for level, kept in ((30, length), (10, 0)):
            rs = ReadSet([Read("r", np.zeros(length, dtype=np.uint8), np.full(length, level))])
            out = rs.trimmed(window=5, min_quality=20, min_length=0)
            assert out.lengths.tolist() == [kept]

    def test_trim_argument_errors(self):
        scored = ReadSet([Read("r", np.zeros(4, dtype=np.uint8), np.full(4, 30))])
        with pytest.raises(ValueError, match="non-negative"):
            scored.trimmed(trim5=-1)
        with pytest.raises(ValueError, match="non-negative"):
            scored.trimmed(trim3=-1)
        with pytest.raises(ValueError, match="positive"):
            scored.trimmed(window=0)
        with pytest.raises(ValueError, match="positive"):
            scored.trimmed(step=0)

    @given(scored_reads())
    def test_reverse_complements_match_per_read(self, rs):
        both = rs.with_reverse_complements()
        n = len(rs)
        assert len(both) == 2 * n and both.has_quals == rs.has_quals
        # forwards first, then the mates in the same order (mate_of).
        for i in range(n):
            assert_reads_equal(both[i], rs[i])
            assert_reads_equal(both[both.mate_of(i)], rs[i].reverse_complement())
            assert both.meta[n + i]["rc_of"] == rs.ids[i]


class TestLifetime:
    def test_dropped_set_is_freed_without_the_cyclic_collector(self):
        """A set holds no reference cycle: dropped, its shards, mates and
        packed k-mers go at once, not at the next collection."""
        import gc
        import weakref

        rs = ReadSet.from_strings(["ACGTACGT", "GATTACA"]).with_reverse_complements()
        rs.kmer_table(4, np.arange(len(rs)))
        assert list(rs.ids) and rs.meta[3]
        gc.disable()
        try:
            ref = weakref.ref(rs)
            del rs
            assert ref() is None
        finally:
            gc.enable()


class TestGatherCost:
    def test_a_few_reads_cost_the_request_not_the_set(self):
        """Gathering two reads of 200,000 allocates nothing the size of
        the set: no per-read mask or running count."""
        import tracemalloc

        n = 200_000
        offsets = np.arange(n + 1, dtype=np.int64)
        data = np.arange(n, dtype=np.int64).astype(np.uint8) % 4
        rs = ReadSet._from_blocks([(data, offsets, None, [f"r{i}" for i in range(n)], [{}] * n)])
        rs.lengths  # cached on first use, like any later call's
        tracemalloc.start()
        try:
            codes, starts, _ = rs.gather_reads(np.array([n - 1, 17, n - 1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes.tolist() == [17 % 4, (n - 1) % 4] and starts.tolist() == [1, 0, 1]
        assert peak < 20_000  # a bool per read would be 200,000 bytes


class TestSplit:
    def test_split_covers_all(self):
        rs = ReadSet.from_strings(["A"] * 10)
        chunks = rs.split(3)
        assert sorted(np.concatenate(chunks).tolist()) == list(range(10))

    def test_split_more_subsets_than_reads(self):
        rs = ReadSet.from_strings(["A", "C"])
        chunks = rs.split(5)
        assert len(chunks) == 5
        assert sum(len(c) for c in chunks) == 2

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            ReadSet.from_strings(["A"]).split(0)


class TestKmerCache:
    def test_kmer_codes_of_matches_direct(self):
        rs = ReadSet.from_strings(["ACGTACGT", "TTT", "GATTACA"])
        for i in range(len(rs)):
            expected = kmer_codes(rs.codes_of(i), 4)
            assert rs.kmer_codes_of(i, 4).tolist() == expected.tolist()

    def test_kmer_codes_of_canonical(self):
        rs = ReadSet.from_strings(["ACGTACGT", "GATTACA"])
        for i in range(len(rs)):
            expected = canonical_kmer_codes(rs.codes_of(i), 5)
            assert rs.kmer_codes_of(i, 5, canonical=True).tolist() == expected.tolist()

    def test_read_shorter_than_k_is_empty(self):
        rs = ReadSet.from_strings(["AC", "ACGT"])
        assert rs.kmer_codes_of(0, 3).size == 0
        assert rs.kmer_codes_of(1, 3).size == 2

    def test_shard_kmers_cached_and_readonly(self):
        rs = ReadSet.from_strings(["ACGTACGT", "GATTACA"])
        a = rs.kmer_codes_of(1, 4)
        (packed,) = rs._derived.values()  # one packed shard
        assert np.shares_memory(rs.kmer_codes_of(0, 4), packed)
        assert np.shares_memory(rs.kmer_codes_of(1, 4), a)  # second call hits the cache
        assert not a.flags.writeable
        assert not np.shares_memory(rs.kmer_codes_of(1, 4, canonical=True), packed)
        assert list(rs._derived) == [("kmers", 0, 4, False), ("kmers", 0, 4, True)]

    def test_forward_windows_pack_only_the_forward_reads(self):
        """A set with mates packs its forward shard for alignment's
        forward-only table; a mate's window packs its mate shard."""
        rs = ReadSet.from_strings(["ACGTACGTNA", "TTGACCAGT", "GGGATCCAAC"])
        rs = rs.with_reverse_complements()
        forward = np.arange(rs.n_forward)
        vals, _, _ = rs.kmer_table(4, forward, canonical=True)
        assert list(rs._derived) == [("kmers", 0, 4, True)]
        assert rs._derived["kmers", 0, 4, True].size == rs.offsets[rs.n_forward] - 3
        mates = forward + rs.n_forward
        got, read_ids, _ = rs.kmer_table(4, mates, canonical=True)
        want = [canonical_kmer_codes(rs.codes_of(i), 4) for i in mates.tolist()]
        np.testing.assert_array_equal(got, np.concatenate(want))
        assert read_ids.tolist() == np.repeat(mates, [w.size for w in want]).tolist()
        # The mate shard was built and packed beside the forward one.
        assert sorted(rs._derived) == [("kmers", 0, 4, True), ("kmers", 1, 4, True), ("mate", 1)]
        np.testing.assert_array_equal(rs.kmer_table(4, forward, canonical=True)[0], vals)

    def test_kmer_table_matches_per_read(self):
        rs = ReadSet.from_strings(["ACGTACGT", "TT", "GATTACAGATT"])
        vals, read_ids, offsets = rs.kmer_table(4)
        rows = []
        for i in range(len(rs)):
            codes = kmer_codes(rs.codes_of(i), 4)
            rows.extend((i, off, v) for off, v in enumerate(codes.tolist()))
        got = list(zip(read_ids.tolist(), offsets.tolist(), vals.tolist()))
        assert got == rows
        assert vals.dtype == read_ids.dtype == offsets.dtype == np.int64

    def test_kmer_table_subset(self):
        rs = ReadSet.from_strings(["ACGTACGT", "TTTTT", "GATTACA"])
        vals, read_ids, offsets = rs.kmer_table(4, read_indices=np.array([2, 0]))
        assert set(read_ids.tolist()) == {0, 2}
        # subset order is respected: read 2's windows come first
        assert read_ids.tolist() == sorted(read_ids.tolist(), key=[2, 0].index)
        direct = kmer_codes(rs.codes_of(2), 4)
        n2 = direct.size
        assert vals[:n2].tolist() == direct.tolist()
        assert offsets[:n2].tolist() == list(range(n2))

    def test_pickle_drops_cache(self):
        """A pickled in-RAM set ships its blocks and mirror flag, not
        its mates or packed k-mers."""
        rs = ReadSet.from_strings(["ACGTACGT", "GATTACA"]).with_reverse_complements()
        rs.kmer_codes_of(3, 4)
        assert ("mate", 1) in rs._derived and ("kmers", 1, 4, False) in rs._derived
        state = rs.__getstate__()
        assert state.keys() == {"blocks", "mirrored"} and state["mirrored"]
        assert sum(b[0].size for b in state["blocks"]) == rs.total_bases // 2
        clone = pickle.loads(pickle.dumps(rs))
        assert clone._derived == {}
        # and the clone still answers correctly, rebuilding lazily
        assert clone.kmer_codes_of(3, 4).tolist() == rs.kmer_codes_of(3, 4).tolist()
