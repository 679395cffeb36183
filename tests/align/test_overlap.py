"""Unit tests for the oracle's overlap geometry (``tests/reference``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.reference.overlap_loop import classify_overlap, overlap_span


class TestOverlapSpan:
    def test_positive_diagonal(self):
        # query position = ref position + 30; reads of length 100
        q, r, length = overlap_span(30, 100, 100)
        assert (q, r, length) == (30, 0, 70)

    def test_negative_diagonal(self):
        q, r, length = overlap_span(-30, 100, 100)
        assert (q, r, length) == (0, 30, 70)

    def test_zero_diagonal(self):
        assert overlap_span(0, 100, 100) == (0, 0, 100)

    def test_containment_span(self):
        # ref of 50 inside query of 100 at offset 20
        q, r, length = overlap_span(20, 100, 50)
        assert (q, r, length) == (20, 0, 50)

    def test_disjoint(self):
        _, _, length = overlap_span(150, 100, 100)
        assert length <= 0

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=1, max_value=150),
    )
    def test_span_within_bounds(self, d, lq, lr):
        q, r, length = overlap_span(d, lq, lr)
        if length > 0:
            assert 0 <= q and q + length <= lq
            assert 0 <= r and r + length <= lr
            assert q == 0 or r == 0  # one end is flush


class TestClassifyOverlap:
    def test_query_left(self):
        assert classify_overlap(30, 0, 70, 100, 100) == "query_left"

    def test_query_right(self):
        assert classify_overlap(0, 30, 70, 100, 100) == "query_right"

    def test_query_contained(self):
        assert classify_overlap(0, 20, 50, 50, 100) == "query_contained"

    def test_ref_contained(self):
        assert classify_overlap(20, 0, 50, 100, 50) == "ref_contained"

    def test_equal(self):
        assert classify_overlap(0, 0, 100, 100, 100) == "equal"

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            classify_overlap(0, 0, 0, 10, 10)
