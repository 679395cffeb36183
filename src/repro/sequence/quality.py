"""Phred quality scores and the Focus read-trimming rule.

Focus trims each read in two stages (paper §II-A):

1. fixed-length trims of the 5' and 3' ends (adaptor/tag removal);
2. quality trimming: a sliding window of length ``l`` moves from the
   3' end toward the 5' end in steps of ``k``; at the first window
   whose *average* quality exceeds the threshold ``q``, the read is cut
   from that window's right end to the 3' end.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PHRED_OFFSET",
    "encode_phred",
    "decode_phred",
    "sliding_window_trim_index",
    "trim_read",
    "trim_spans",
]

#: Sanger / Illumina 1.8+ ASCII offset.
PHRED_OFFSET = 33


def encode_phred(quals: np.ndarray, offset: int = PHRED_OFFSET) -> str:
    """Encode integer quality scores as a FASTQ quality string."""
    quals = np.asarray(quals, dtype=np.int64)
    if quals.size and (quals.min() < 0 or quals.max() > 93):
        raise ValueError("phred scores must be in 0..93")
    return (quals + offset).astype(np.uint8).tobytes().decode("ascii")


def decode_phred(qstring: str, offset: int = PHRED_OFFSET) -> np.ndarray:
    """Decode a FASTQ quality string into integer scores."""
    arr = np.frombuffer(qstring.encode("ascii"), dtype=np.uint8).astype(np.int64)
    quals = arr - offset
    if quals.size and quals.min() < 0:
        raise ValueError("quality string contains characters below the offset")
    return quals


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


def trim_spans(
    offsets: np.ndarray,
    quals: np.ndarray | None,
    trim5: int = 0,
    trim3: int = 0,
    window: int = 10,
    step: int = 1,
    min_quality: float = 20.0,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`trim_read` on every read of a ragged block at once.

    ``offsets`` is the block's CSR offsets and ``quals`` its flat
    integer scores (or ``None``); returns the ``[lo, hi)`` position
    span each read keeps.  Every window of every read — read ``i`` has
    them at ``hi_i - w_i - j * step``, ``w_i = min(window, length)`` —
    is summed through one cumulative sum, so sums are exact integers
    and each mean is the same ``sum / w`` the per-read rule computes.
    """
    if trim5 < 0 or trim3 < 0:
        raise ValueError("fixed trim lengths must be non-negative")
    offsets = np.asarray(offsets, dtype=np.int64)
    lo = offsets[:-1] + np.minimum(trim5, np.diff(offsets))
    hi = np.maximum(lo, offsets[1:] - trim3)
    if quals is None:
        return lo, hi
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    if quals.size != int(offsets[-1]):
        raise ValueError("quality array length does not match sequence")
    width = np.minimum(hi - lo, window)
    n_windows = np.where(hi > lo, (hi - lo - width) // step + 1, 0)
    first = np.cumsum(n_windows) - n_windows
    total = int(n_windows.sum())
    nth = np.arange(total, dtype=np.int64) - np.repeat(first, n_windows)
    left = np.repeat(hi - width, n_windows) - nth * step
    width = np.repeat(width, n_windows)
    csum = np.zeros(quals.size + 1, dtype=np.int64)
    np.cumsum(quals, dtype=np.int64, out=csum[1:])
    passing = np.flatnonzero((csum[left + width] - csum[left]) / width > min_quality)
    # Each read's first passing window, 3'-most first; none -> empty span.
    hit = np.append(passing, total)[np.searchsorted(passing, first)]
    found = hit < first + n_windows
    hit = hit[found]
    hi = lo.copy()
    hi[found] = left[hit] + width[hit]
    return lo, hi
