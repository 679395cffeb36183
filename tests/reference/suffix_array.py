"""Suffix array construction and pattern search.

Focus indexes each reference read subset with a suffix array built by
the Larsson–Sadakane faster-suffix-sorting scheme [14].  We implement
the same O(n log n) prefix-doubling idea with numpy primitives: each
round sorts suffixes by their (rank, rank+offset) pair via
``np.lexsort`` and re-ranks, doubling the compared prefix length.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_suffix_array", "lcp_array", "SuffixArraySearcher"]


def build_suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of ``codes``: positions sorted by suffix.

    Shorter-prefix suffixes sort before longer ones sharing that prefix
    (the usual "end of string is smallest" convention, achieved with a
    -1 sentinel rank past the end).
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    sa = np.argsort(rank, kind="stable")
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        sa = np.lexsort((second, rank))
        first_s = rank[sa]
        second_s = second[sa]
        changed = np.ones(n, dtype=bool)
        changed[1:] = (first_s[1:] != first_s[:-1]) | (second_s[1:] != second_s[:-1])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[sa] = np.cumsum(changed) - 1
        rank = new_rank
        if rank[sa[-1]] == n - 1:
            break
        k *= 2
        if k >= n:
            break
    return sa


def lcp_array(codes: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai's algorithm: lcp[i] = LCP(suffix sa[i-1], suffix sa[i]); lcp[0]=0."""
    codes = np.asarray(codes)
    sa = np.asarray(sa, dtype=np.int64)
    n = codes.size
    if sa.size != n:
        raise ValueError("suffix array length mismatch")
    lcp = np.zeros(n, dtype=np.int64)
    if n == 0:
        return lcp
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    h = 0
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            while i + h < n and j + h < n and codes[i + h] == codes[j + h]:
                h += 1
            lcp[r] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return lcp


class SuffixArraySearcher:
    """Exact pattern search over a suffix array via binary search.

    ``find(pattern)`` returns all start positions of ``pattern`` in the
    indexed text in O(|pattern| log n).
    """

    def __init__(self, codes: np.ndarray, sa: np.ndarray | None = None) -> None:
        self.codes = np.asarray(codes, dtype=np.int64)
        self.sa = build_suffix_array(self.codes) if sa is None else np.asarray(sa, dtype=np.int64)
        if self.sa.size != self.codes.size:
            raise ValueError("suffix array does not match text length")

    def _compare(self, pos: int, pattern: np.ndarray) -> int:
        """-1/0/+1: suffix at ``pos`` vs ``pattern`` (prefix match = 0)."""
        n = self.codes.size
        m = min(pattern.size, n - pos)
        seg = self.codes[pos : pos + m]
        neq = np.flatnonzero(seg != pattern[:m])
        if neq.size:
            i = neq[0]
            return -1 if seg[i] < pattern[i] else 1
        if m < pattern.size:
            return -1  # suffix ran out first -> suffix is smaller
        return 0

    def find(self, pattern: np.ndarray) -> np.ndarray:
        """Sorted start positions of all occurrences of ``pattern``."""
        pattern = np.asarray(pattern, dtype=np.int64)
        if pattern.size == 0:
            raise ValueError("empty pattern")
        n = self.sa.size
        # Lower bound: first suffix >= pattern (as a prefix comparison).
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._compare(int(self.sa[mid]), pattern) < 0:
                lo = mid + 1
            else:
                hi = mid
        start = lo
        # Upper bound: first suffix whose prefix exceeds pattern.
        lo, hi = start, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._compare(int(self.sa[mid]), pattern) <= 0:
                lo = mid + 1
            else:
                hi = mid
        return np.sort(self.sa[start:lo])
