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
    "trim_spans",
]

#: Sanger / Illumina 1.8+ ASCII offset.
PHRED_OFFSET = 33

#: bases per run of reads whose windows :func:`trim_spans` holds at once.
_TRIM_BLOCK_BASES = 1 << 16


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


def trim_spans(
    offsets: np.ndarray,
    quals: np.ndarray | None,
    trim5: int = 0,
    trim3: int = 0,
    window: int = 10,
    step: int = 1,
    min_quality: float = 20.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The two trimming stages on every read of a ragged block at once.

    ``offsets`` is the block's CSR offsets and ``quals`` its flat
    integer scores (or ``None``); returns the ``[lo, hi)`` position
    span each read keeps.  Every window of every read — read ``i`` has
    them at ``hi_i - w_i - j * step``, ``w_i = min(window, length)`` —
    is summed through a cumulative sum, so sums are exact integers and
    each mean is the same ``sum / w`` the per-read rule (its oracle,
    ``tests/reference/trim_loop.py``) computes.  The windows are built
    for one run of reads at a time, so they never cover more than about
    :data:`_TRIM_BLOCK_BASES` bases.
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
    cut = lo.copy()
    # One run of reads of about _TRIM_BLOCK_BASES bases at a time.
    runs = np.searchsorted(offsets[:-1], np.arange(0, quals.size, _TRIM_BLOCK_BASES))
    for r0, r1 in zip(runs, np.append(runs[1:], lo.size)):
        base = offsets[r0]
        run_lo, run_hi = lo[r0:r1] - base, hi[r0:r1] - base
        width = np.minimum(run_hi - run_lo, window)
        n_windows = np.where(run_hi > run_lo, (run_hi - run_lo - width) // step + 1, 0)
        first = np.cumsum(n_windows) - n_windows
        total = int(n_windows.sum())
        nth = np.arange(total, dtype=np.int64) - np.repeat(first, n_windows)
        left = np.repeat(run_hi - width, n_windows) - nth * step
        width = np.repeat(width, n_windows)
        csum = np.zeros(offsets[r1] - base + 1, dtype=np.int64)
        np.cumsum(quals[base : offsets[r1]], dtype=np.int64, out=csum[1:])
        passing = np.flatnonzero((csum[left + width] - csum[left]) / width > min_quality)
        # Each read's first passing window, 3'-most first; none -> empty span.
        hit = np.append(passing, total)[np.searchsorted(passing, first)]
        found = hit < first + n_windows
        hit = hit[found]
        cut[r0:r1][found] = base + left[hit] + width[hit]
    return lo, cut

