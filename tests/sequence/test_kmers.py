"""Unit + property tests for k-mer packing and extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence import dna, kmers

dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=120)


class TestPackUnpack:
    def test_pack_simple(self):
        # "AC" = 0*4 + 1
        assert kmers.pack_kmer(dna.encode("AC")) == 1

    def test_pack_t_run(self):
        assert kmers.pack_kmer(dna.encode("TT")) == 15

    def test_pack_rejects_n(self):
        with pytest.raises(ValueError, match="containing N"):
            kmers.pack_kmer(dna.encode("AN"))

    def test_pack_rejects_too_long(self):
        with pytest.raises(ValueError):
            kmers.pack_kmer(np.zeros(40, dtype=np.uint8))

    @given(dna_strings.filter(lambda s: len(s) <= 31))
    def test_roundtrip(self, s):
        codes = dna.encode(s)
        assert dna.decode(kmers.unpack_kmer(kmers.pack_kmer(codes), len(s))) == s

    def test_max_k(self):
        assert kmers.max_k_for_dtype(np.int64) == 31
        assert kmers.max_k_for_dtype(np.int32) == 15


class TestRevcompKmerCode:
    @given(dna_strings.filter(lambda s: len(s) <= 31))
    def test_matches_sequence_revcomp(self, s):
        codes = dna.encode(s)
        k = len(s)
        expect = kmers.pack_kmer(dna.reverse_complement(codes))
        assert kmers.revcomp_kmer_code(kmers.pack_kmer(codes), k) == expect

    def test_vectorised(self):
        vals = np.array([kmers.pack_kmer(dna.encode("ACG")), kmers.pack_kmer(dna.encode("TTT"))])
        rc = kmers.revcomp_kmer_code(vals, 3)
        assert rc.tolist() == [
            kmers.pack_kmer(dna.encode("CGT")),
            kmers.pack_kmer(dna.encode("AAA")),
        ]

    @given(dna_strings.filter(lambda s: len(s) <= 31))
    def test_involution(self, s):
        k = len(s)
        v = kmers.pack_kmer(dna.encode(s))
        assert kmers.revcomp_kmer_code(kmers.revcomp_kmer_code(v, k), k) == v


class TestKmerCodes:
    def test_window_count(self):
        vals = kmers.kmer_codes(dna.encode("ACGTAC"), 3)
        assert vals.size == 4

    def test_short_sequence_empty(self):
        assert kmers.kmer_codes(dna.encode("AC"), 3).size == 0

    def test_values_match_pack(self):
        codes = dna.encode("ACGTACGT")
        vals = kmers.kmer_codes(codes, 4)
        for i in range(len(vals)):
            assert vals[i] == kmers.pack_kmer(codes[i : i + 4])

    def test_n_window_is_minus_one(self):
        vals = kmers.kmer_codes(dna.encode("ANGT"), 2)
        assert vals.tolist()[0] == -1 or vals[0] >= 0  # first window AN invalid
        assert (vals == -1).sum() == 2  # AN and NG

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmers.kmer_codes(dna.encode("ACGT"), 0)

    @given(dna_strings, st.integers(min_value=1, max_value=12))
    def test_count_property(self, s, k):
        vals = kmers.kmer_codes(dna.encode(s), k)
        assert vals.size == max(0, len(s) - k + 1)

    def test_temporaries_stay_proportional_to_the_input(self):
        # Every store shard's k-mer table goes through here; an (n, k)
        # window matrix would make the transient k times the output.
        import tracemalloc

        codes = np.random.default_rng(0).integers(0, 4, 1 << 18).astype(np.uint8)
        for k in (16, 31):
            tracemalloc.start()
            try:
                vals = kmers.kmer_codes(codes, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * vals.nbytes, k


def _windows_to_check(n_windows: int, rng: np.random.Generator) -> np.ndarray:
    """Every window of a short sequence; of a long one, the windows
    around each chunk boundary and a random sample."""
    if n_windows <= 400:
        return np.arange(max(n_windows, 0))
    edges = np.arange(0, n_windows, kmers._CHUNK)
    near = (edges[:, None] + np.arange(-40, 40)).ravel()
    some = np.concatenate([near, rng.integers(0, n_windows, 300), [n_windows - 1]])
    return np.unique(some[(some >= 0) & (some < n_windows)])


class TestKmerCodesAgainstPack:
    """``kmer_codes`` packs by doubling, chunk by chunk: every window is
    ``pack_kmer`` of its bases, or -1 when one of them is ``N``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=31),
        st.one_of(
            st.integers(min_value=0, max_value=120),
            st.sampled_from([-1, 0, 1]).map(lambda d: kmers._CHUNK + 30 + d),
            st.integers(min_value=2 * kmers._CHUNK - 40, max_value=2 * kmers._CHUNK + 40),
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.002, 0.05, 1.0]),
    )
    def test_every_window_is_its_packed_bases(self, k, length, seed, n_rate):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, length).astype(np.uint8)
        codes[rng.random(length) < n_rate] = dna.N
        vals = kmers.kmer_codes(codes, k)
        n_windows = max(length - k + 1, 0)
        assert vals.size == n_windows and vals.dtype == np.int64
        # the -1s, all of them: a window holds an N iff a count of the
        # N codes changes across it.
        seen = np.concatenate([[0], np.cumsum(codes == dna.N)])
        assert np.array_equal(vals == -1, seen[k : k + n_windows] != seen[:n_windows])
        for i in _windows_to_check(n_windows, rng).tolist():
            window = codes[i : i + k]
            expect = -1 if (window == dna.N).any() else kmers.pack_kmer(window)
            assert vals[i] == expect, (k, length, i)


class TestCanonical:
    def test_canonical_le_both(self):
        codes = dna.encode("ACGTAGCTT")
        k = 4
        canon = kmers.canonical_kmer_codes(codes, k)
        plain = kmers.kmer_codes(codes, k)
        rc = kmers.revcomp_kmer_code(plain, k)
        assert (canon == np.minimum(plain, rc)).all()

    @given(dna_strings, st.integers(min_value=1, max_value=9))
    def test_strand_invariance(self, s, k):
        if len(s) < k:
            return
        fwd = kmers.canonical_kmer_codes(dna.encode(s), k)
        rev = kmers.canonical_kmer_codes(dna.reverse_complement(dna.encode(s)), k)
        assert sorted(fwd.tolist()) == sorted(rev.tolist())


class TestStableOrder:
    """``stable_sort`` is ``(np.sort(keys), argsort(kind="stable"))`` on
    both of its branches, and ``stable_order`` its second half; which
    branch runs is decided by the keys, not the caller."""

    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=200),
        st.sampled_from([0, 2**62]),
    )
    def test_matches_stable_argsort(self, values, offset):
        # + 2**62 leaves no room for the row number: the fallback.
        keys = np.array(values, dtype=np.int64) + offset
        ordered, order = kmers.stable_sort(keys)
        assert order.dtype == np.int64 and ordered.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(ordered, np.sort(keys))
        assert np.array_equal(kmers.stable_order(keys), order)

    def test_widest_keys_that_still_pack(self):
        # 200 rows take 8 bits: keys up to 2**55 - 1 pack, 2**55 does not.
        rng = np.random.default_rng(3)
        for top in (2**55 - 1, 2**55):
            keys = rng.choice(np.array([0, 7, top], dtype=np.int64), size=200)
            ordered, order = kmers.stable_sort(keys)
            assert np.array_equal(order, np.argsort(keys, kind="stable"))
            assert np.array_equal(ordered, np.sort(keys))

    def test_negative_keys_take_the_fallback(self):
        keys = np.array([3, -1, 3, -1, 0], dtype=np.int64)
        assert kmers.stable_order(keys).tolist() == [1, 3, 4, 0, 2]

    def test_empty(self):
        order = kmers.stable_order(np.empty(0, dtype=np.int64))
        assert order.size == 0 and order.dtype == np.int64

    def test_keys_are_not_written_to(self):
        keys = np.array([5, 1, 5, 0], dtype=np.int64)
        keys.setflags(write=False)
        assert kmers.stable_order(keys).tolist() == [3, 1, 0, 2]
