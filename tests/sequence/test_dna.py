"""Unit tests for 2-bit DNA encoding and base operations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequence import dna

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=200)
dna_strings_n = st.text(alphabet="ACGTN", min_size=0, max_size=200)


class TestEncodeDecode:
    def test_encode_basic(self):
        assert dna.encode("ACGT").tolist() == [0, 1, 2, 3]

    def test_encode_lowercase(self):
        assert dna.encode("acgtn").tolist() == [0, 1, 2, 3, 4]

    def test_encode_empty(self):
        assert dna.encode("").size == 0

    def test_encode_bytes(self):
        assert dna.encode(b"AC").tolist() == [0, 1]

    def test_encode_invalid_raises(self):
        with pytest.raises(ValueError, match="invalid DNA character"):
            dna.encode("ACGX")

    def test_decode_basic(self):
        assert dna.decode(np.array([0, 1, 2, 3, 4], dtype=np.uint8)) == "ACGTN"

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            dna.decode(np.array([7], dtype=np.uint8))

    @given(dna_strings_n)
    def test_roundtrip(self, s):
        assert dna.decode(dna.encode(s)) == s.upper()


class TestComplement:
    def test_complement_pairs(self):
        assert dna.decode(dna.complement(dna.encode("ACGTN"))) == "TGCAN"

    def test_reverse_complement(self):
        assert dna.decode(dna.reverse_complement(dna.encode("AACGT"))) == "ACGTT"

    @given(dna_strings_n)
    def test_revcomp_involution(self, s):
        codes = dna.encode(s)
        assert dna.decode(dna.reverse_complement(dna.reverse_complement(codes))) == s.upper()

    @given(dna_strings)
    def test_revcomp_reverses_gc(self, s):
        codes = dna.encode(s)
        assert dna.gc_content(codes) == pytest.approx(dna.gc_content(dna.reverse_complement(codes)))


class TestGcContent:
    def test_all_gc(self):
        assert dna.gc_content(dna.encode("GCGC")) == 1.0

    def test_no_gc(self):
        assert dna.gc_content(dna.encode("ATAT")) == 0.0

    def test_empty_is_zero(self):
        assert dna.gc_content(dna.encode("")) == 0.0

    def test_n_excluded(self):
        assert dna.gc_content(dna.encode("GNNA")) == pytest.approx(0.5)


class TestHammingIdentity:
    def test_identical(self):
        a = dna.encode("ACGT")
        assert dna.hamming_identity(a, a) == 1.0

    def test_half(self):
        assert dna.hamming_identity(dna.encode("AAAA"), dna.encode("AATT")) == 0.5

    def test_empty(self):
        assert dna.hamming_identity(dna.encode(""), dna.encode("")) == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            dna.hamming_identity(dna.encode("A"), dna.encode("AA"))
