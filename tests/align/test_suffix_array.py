"""Unit + property tests for suffix array construction and search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.dna import encode
from tests.reference.suffix_array import SuffixArraySearcher, build_suffix_array, lcp_array

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=80)


def naive_sa(codes):
    n = len(codes)
    suffixes = sorted(range(n), key=lambda i: tuple(codes[i:]))
    return suffixes


class TestBuildSuffixArray:
    def test_known_banana_style(self):
        # "ACAACG": check against naive ordering
        codes = encode("ACAACG")
        assert build_suffix_array(codes).tolist() == naive_sa(codes.tolist())

    def test_empty(self):
        assert build_suffix_array(encode("")).size == 0

    def test_single(self):
        assert build_suffix_array(encode("A")).tolist() == [0]

    def test_repetitive(self):
        codes = encode("AAAAAA")
        # Suffix order for A^n: shortest first.
        assert build_suffix_array(codes).tolist() == [5, 4, 3, 2, 1, 0]

    @settings(max_examples=50)
    @given(dna_strings)
    def test_matches_naive(self, s):
        codes = encode(s)
        assert build_suffix_array(codes).tolist() == naive_sa(codes.tolist())

    @given(dna_strings)
    def test_is_permutation(self, s):
        sa = build_suffix_array(encode(s))
        assert sorted(sa.tolist()) == list(range(len(s)))


class TestLcpArray:
    def test_known(self):
        codes = encode("AAAA")
        sa = build_suffix_array(codes)
        lcp = lcp_array(codes, sa)
        assert lcp.tolist() == [0, 1, 2, 3]

    def test_mismatched_length(self):
        with pytest.raises(ValueError):
            lcp_array(encode("ACGT"), np.array([0, 1]))

    @settings(max_examples=30)
    @given(dna_strings)
    def test_lcp_correct(self, s):
        codes = encode(s)
        sa = build_suffix_array(codes)
        lcp = lcp_array(codes, sa)
        for i in range(1, len(s)):
            a = s[sa[i - 1] :]
            b = s[sa[i] :]
            expect = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                expect += 1
            assert lcp[i] == expect


class TestSearcher:
    def test_find_all_occurrences(self):
        text = encode("ACGTACGTAC")
        searcher = SuffixArraySearcher(text)
        assert searcher.find(encode("AC")).tolist() == [0, 4, 8]

    def test_find_absent(self):
        searcher = SuffixArraySearcher(encode("ACGTACGT"))
        assert searcher.find(encode("TTT")).size == 0

    def test_find_full_text(self):
        searcher = SuffixArraySearcher(encode("ACGT"))
        assert searcher.find(encode("ACGT")).tolist() == [0]

    def test_find_longer_than_text(self):
        searcher = SuffixArraySearcher(encode("AC"))
        assert searcher.find(encode("ACGT")).size == 0

    def test_empty_pattern_raises(self):
        with pytest.raises(ValueError):
            SuffixArraySearcher(encode("AC")).find(encode(""))

    def test_bad_sa_rejected(self):
        with pytest.raises(ValueError):
            SuffixArraySearcher(encode("ACG"), sa=np.array([0]))

    @settings(max_examples=30)
    @given(dna_strings.filter(lambda s: len(s) >= 4), st.data())
    def test_find_matches_bruteforce(self, s, data):
        k = data.draw(st.integers(min_value=1, max_value=min(6, len(s))))
        start = data.draw(st.integers(min_value=0, max_value=len(s) - k))
        pattern = s[start : start + k]
        searcher = SuffixArraySearcher(encode(s))
        found = searcher.find(encode(pattern)).tolist()
        expect = [i for i in range(len(s) - k + 1) if s[i : i + k] == pattern]
        assert found == expect
