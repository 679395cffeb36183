"""Vectorised k-mer extraction and integer packing.

A k-mer over the 2-bit alphabet packs into an integer::

    value = sum_j codes[j] * 4**(k - 1 - j)

i.e. the leftmost base is the most significant 2-bit digit.  With
``int64`` this supports k <= 31.  All routines reject windows that
contain ``N`` (code 4) by reporting their positions so callers can mask
them out.
"""

from __future__ import annotations

import numpy as np

from repro.sequence.dna import N

__all__ = [
    "max_k_for_dtype",
    "pack_kmer",
    "unpack_kmer",
    "revcomp_kmer_code",
    "kmer_codes",
    "kmer_positions",
    "batched_kmer_positions",
    "canonical_kmer_codes",
    "stable_order",
]


def max_k_for_dtype(dtype=np.int64) -> int:
    """Largest k such that 4**k fits the signed integer dtype."""
    bits = np.dtype(dtype).itemsize * 8 - 1
    return bits // 2


def _check_k(k: int) -> None:
    if not 1 <= k <= max_k_for_dtype():
        raise ValueError(f"k must be in 1..{max_k_for_dtype()}, got {k}")


def pack_kmer(codes: np.ndarray) -> int:
    """Pack a single k-mer code array into its integer value."""
    codes = np.asarray(codes, dtype=np.int64)
    _check_k(codes.size)
    if (codes >= N).any():
        raise ValueError("cannot pack a k-mer containing N")
    value = 0
    for c in codes.tolist():
        value = (value << 2) | c
    return value


def unpack_kmer(value: int, k: int) -> np.ndarray:
    """Inverse of :func:`pack_kmer`."""
    _check_k(k)
    out = np.empty(k, dtype=np.uint8)
    for j in range(k - 1, -1, -1):
        out[j] = value & 3
        value >>= 2
    return out


def revcomp_kmer_code(values: np.ndarray | int, k: int):
    """Reverse-complement packed k-mer value(s) without unpacking.

    Works elementwise on arrays.  Complementing a 2-bit base is
    ``3 - b`` i.e. ``b ^ 3``; reversing swaps digit order.
    """
    _check_k(k)
    scalar = np.isscalar(values)
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for _ in range(k):
        out = (out << 2) | ((v & 3) ^ 3)
        v = v >> 2
    return int(out) if scalar else out


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Packed values of every k-mer window of ``codes`` (length n-k+1).

    Windows containing ``N`` get the value -1.  Vectorised via a
    sliding-window polynomial evaluation.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    if n < k:
        return np.empty(0, dtype=np.int64)
    # Horner accumulation over the k window positions: k passes of O(n)
    # int64 work.  Peak memory is a few n-length arrays, where the
    # sliding-window matmul formulation materialized an (n, k) int64
    # matrix — the difference between O(shard) and O(shard * k)
    # transients on the out-of-core streaming path.
    n_windows = n - k + 1
    values = np.zeros(n_windows, dtype=np.int64)
    has_n = np.zeros(n_windows, dtype=bool)
    for j in range(k):
        col = codes[j : j + n_windows]
        np.left_shift(values, 2, out=values)
        values |= col  # N codes pollute bits; their windows become -1 below
        has_n |= col == N
    values[has_n] = -1
    return values


def kmer_positions(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, packed values) of all valid (N-free) k-mers."""
    values = kmer_codes(codes, k)
    pos = np.flatnonzero(values >= 0)
    return pos, values[pos]


def batched_kmer_positions(
    seqs: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kmer_positions` of every sequence, in one extraction pass.

    Returns ``(positions, values, counts)``: the valid k-mers of
    ``seqs[0]``, then of ``seqs[1]`` and so on, ``counts[i]`` of them
    from ``seqs[i]``, each position counted from its own sequence's
    start.  The sequences are joined with an ``N`` after each, so no
    valid window crosses a boundary.
    """
    sizes = np.array([len(s) for s in seqs], dtype=np.int64)
    starts = np.cumsum(sizes + 1) - (sizes + 1)
    joined = np.insert(np.concatenate([np.empty(0, np.uint8), *seqs]), np.cumsum(sizes), N)
    values = kmer_codes(joined, k)
    pos = np.flatnonzero(values >= 0)
    owner = np.searchsorted(starts, pos, side="right") - 1
    return pos - starts[owner], values[pos], np.bincount(owner, minlength=sizes.size)


def canonical_kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Packed canonical k-mers: min(value, revcomp value) per window.

    Canonicalisation makes k-mer identity strand-independent, which the
    de Bruijn baseline and the read classifier both rely on.  Invalid
    (N-containing) windows remain -1.
    """
    values = kmer_codes(codes, k)
    valid = values >= 0
    out = values.copy()
    if valid.any():
        rc = revcomp_kmer_code(values[valid], k)
        out[valid] = np.minimum(values[valid], rc)
    return out


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``keys`` stably (``int64``).

    Equal to ``np.argsort(keys, kind="stable")``.  When the keys are
    non-negative and small enough to leave room for the row number in
    the low bits of one ``int64`` — packed k-mers of an index build are
    — a plain ``np.sort`` of ``(key << bits) | row`` gives the same
    permutation several times faster (986,000 k-mers: 0.012 s against
    0.10 s); anything else takes the stable argsort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.size
    bits = max(n - 1, 0).bit_length()
    if n == 0 or keys.min() < 0 or int(keys.max()) >> (63 - bits):
        return np.argsort(keys, kind="stable")
    packed = keys << bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed
