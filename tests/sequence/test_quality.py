"""Unit tests for Phred handling and the Focus trimming rule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequence import dna, quality
from tests.reference import trim_loop


class TestPhredCodec:
    def test_encode(self):
        assert quality.encode_phred(np.array([0, 40])) == "!I"

    def test_decode(self):
        assert quality.decode_phred("!I").tolist() == [0, 40]

    @given(st.lists(st.integers(min_value=0, max_value=93), max_size=100))
    def test_roundtrip(self, quals):
        arr = np.array(quals, dtype=np.int64)
        assert quality.decode_phred(quality.encode_phred(arr)).tolist() == quals

    def test_encode_out_of_range(self):
        with pytest.raises(ValueError):
            quality.encode_phred(np.array([94]))

    def test_decode_below_offset(self):
        with pytest.raises(ValueError):
            quality.decode_phred(" ")


class TestSlidingWindowTrim:
    def test_good_read_untouched(self):
        quals = np.full(50, 40)
        assert trim_loop.sliding_window_trim_index(quals, window=10, min_quality=20) == 50

    def test_bad_tail_trimmed(self):
        quals = np.concatenate([np.full(40, 40), np.full(20, 2)])
        keep = trim_loop.sliding_window_trim_index(quals, window=10, min_quality=20)
        # The first passing window (from the 3' end) ends somewhere in
        # the transition zone: all of the pure-bad tail must go.
        assert 40 <= keep < 55

    def test_all_bad_discards(self):
        assert trim_loop.sliding_window_trim_index(np.full(30, 2), window=10, min_quality=20) == 0

    def test_short_read_single_window(self):
        assert trim_loop.sliding_window_trim_index(np.full(5, 30), window=10, min_quality=20) == 5
        assert trim_loop.sliding_window_trim_index(np.full(5, 10), window=10, min_quality=20) == 0

    def test_empty(self):
        assert trim_loop.sliding_window_trim_index(np.array([]), window=10) == 0

    def test_threshold_strict(self):
        # mean exactly == threshold does not pass
        assert trim_loop.sliding_window_trim_index(np.full(10, 20), window=10, min_quality=20) == 0

    def test_step_respected(self):
        quals = np.concatenate([np.full(30, 40), np.full(4, 0)])
        keep2 = trim_loop.sliding_window_trim_index(quals, window=10, step=2, min_quality=20)
        keep1 = trim_loop.sliding_window_trim_index(quals, window=10, step=1, min_quality=20)
        assert keep1 >= 30 and keep2 >= 30

    def test_bad_params(self):
        with pytest.raises(ValueError):
            trim_loop.sliding_window_trim_index(np.full(5, 30), window=0)
        with pytest.raises(ValueError):
            trim_loop.sliding_window_trim_index(np.full(5, 30), window=5, step=0)

    @given(st.lists(st.integers(min_value=0, max_value=41), min_size=1, max_size=150))
    def test_keep_never_exceeds_length(self, quals):
        arr = np.array(quals)
        keep = trim_loop.sliding_window_trim_index(arr, window=10, min_quality=20)
        assert 0 <= keep <= arr.size

    @given(st.lists(st.integers(min_value=21, max_value=41), min_size=1, max_size=150))
    def test_all_good_keeps_everything(self, quals):
        arr = np.array(quals)
        assert trim_loop.sliding_window_trim_index(arr, window=10, min_quality=20) == arr.size


class TestTrimRead:
    def test_fixed_trims(self):
        codes = dna.encode("AACCGGTT")
        out, _ = trim_loop.trim_read(codes, None, trim5=2, trim3=3)
        assert dna.decode(out) == "CCG"

    def test_overlong_trims_yield_empty(self):
        codes = dna.encode("ACGT")
        out, _ = trim_loop.trim_read(codes, None, trim5=3, trim3=3)
        assert out.size == 0

    def test_negative_trim_raises(self):
        with pytest.raises(ValueError):
            trim_loop.trim_read(dna.encode("ACGT"), None, trim5=-1)

    def test_quality_trim_applied(self):
        codes = dna.encode("A" * 50)
        quals = np.concatenate([np.full(35, 40), np.full(15, 2)])
        out, q = trim_loop.trim_read(codes, quals, window=10, min_quality=20)
        assert out.size == q.size
        assert out.size < 50

    def test_fasta_mode_no_quality_trim(self):
        codes = dna.encode("ACGTACGT")
        out, q = trim_loop.trim_read(codes, None)
        assert dna.decode(out) == "ACGTACGT"
        assert q is None

    def test_mismatched_quals_raise(self):
        with pytest.raises(ValueError):
            trim_loop.trim_read(dna.encode("ACGT"), np.array([40, 40]))


class TestTrimSpans:
    """The block kernel keeps ``trim_read``'s checks (its read-by-read
    equality is the property in ``tests/io/test_readset.py``)."""

    def test_spans_of_a_block(self):
        offsets = np.array([0, 12, 12, 16])
        quals = np.concatenate([np.full(8, 40), np.full(4, 2), np.full(4, 30)])
        lo, hi = quality.trim_spans(offsets, quals, trim5=1, window=4, min_quality=20)
        assert lo.tolist() == [1, 12, 13]
        assert hi.tolist() == [10, 12, 16]  # last passing window ends at 10

    def test_fasta_mode_fixed_trims_only(self):
        lo, hi = quality.trim_spans(np.array([0, 8, 10]), None, trim5=3, trim3=3, window=0)
        assert (hi - lo).tolist() == [2, 0]

    def test_negative_trim_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            quality.trim_spans(np.array([0, 4]), None, trim3=-1)

    def test_mismatched_quals_raise(self):
        with pytest.raises(ValueError, match="length"):
            quality.trim_spans(np.array([0, 4]), np.array([40, 40]))
