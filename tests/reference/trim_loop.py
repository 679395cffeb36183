"""Scalar reference of the Focus read-trimming rule, one read at a time.

The readable specification ``repro.sequence.quality.trim_spans`` (and
through it ``ReadSet.trimmed``) is checked against, read by read:
fixed 5'/3' trims, then a sliding window of ``window`` bases that moves
from the 3' end 5'-ward in steps of ``step`` until a window's mean
quality exceeds ``min_quality`` (paper §II-A).
"""

from __future__ import annotations

import numpy as np

__all__ = ["sliding_window_trim_index", "trim_read"]


def sliding_window_trim_index(
    quals: np.ndarray,
    window: int = 10,
    step: int = 1,
    min_quality: float = 20.0,
) -> int:
    """Return the trimmed length of a read under the Focus 3' rule.

    Windows of ``window`` bases are examined starting at the 3' end and
    moving 5'-ward by ``step``.  The first window whose mean quality is
    strictly greater than ``min_quality`` determines the cut: the read
    keeps positions ``[0, right_end_of_window)``.  If no window passes,
    0 is returned (the read is discarded).  Reads shorter than
    ``window`` are evaluated as a single window.
    """
    quals = np.asarray(quals, dtype=np.float64)
    n = quals.size
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    if n == 0:
        return 0
    if n <= window:
        return n if quals.mean() > min_quality else 0
    means = np.lib.stride_tricks.sliding_window_view(quals, window).mean(axis=1)
    # Window starting at position s covers [s, s+window); its right end
    # is s+window.  Scan from the 3'-most start backwards in ``step``s.
    starts = np.arange(n - window, -1, -step)
    passing = means[starts] > min_quality
    if not passing.any():
        return 0
    s = int(starts[np.argmax(passing)])
    return s + window


def trim_read(
    codes: np.ndarray,
    quals: np.ndarray | None = None,
    trim5: int = 0,
    trim3: int = 0,
    window: int = 10,
    step: int = 1,
    min_quality: float = 20.0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply fixed 5'/3' trims then quality trimming; returns new arrays.

    ``quals`` may be ``None`` (FASTA input), in which case only the
    fixed trims apply.  Over-aggressive fixed trims yield empty arrays
    rather than raising, mirroring how an assembler drops short reads
    downstream.
    """
    if trim5 < 0 or trim3 < 0:
        raise ValueError("fixed trim lengths must be non-negative")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    lo = min(trim5, n)
    hi = max(lo, n - trim3)
    codes = codes[lo:hi]
    if quals is None:
        return codes, None
    quals = np.asarray(quals)[lo:hi]
    if quals.size != codes.size:
        raise ValueError("quality array length does not match sequence")
    keep = sliding_window_trim_index(quals, window=window, step=step, min_quality=min_quality)
    return codes[:keep], quals[:keep]
