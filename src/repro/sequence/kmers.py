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
    "canonical_kmer_codes",
    "stable_sort",
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
    for c in codes.tolist():  # noqa: PERF002 - the scalar oracle of kmer_codes
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
    ``3 - b`` i.e. ``b ^ 3``; reversing swaps digit order: the 2-bit
    digits of the whole 64-bit word are reversed by swapping pairs,
    then nibbles, then bytes, and the k digits shifted back down.
    """
    _check_k(k)
    scalar = np.isscalar(values)
    v = np.asarray(values, dtype=np.int64).astype(np.uint64)
    v ^= np.uint64((1 << 2 * k) - 1)
    for mask, width in ((0x3333333333333333, 2), (0x0F0F0F0F0F0F0F0F, 4)):
        low = v & np.uint64(mask)
        low <<= np.uint64(width)
        v >>= np.uint64(width)
        v &= np.uint64(mask)
        v |= low
        del low
    v = v.byteswap(inplace=True)
    v >>= np.uint64(64 - 2 * k)
    out = v.view(np.int64)
    return int(out) if scalar else out


#: windows packed per :func:`kmer_codes` chunk: its temporaries are a
#: few chunk-sized arrays whatever the input's length.
_CHUNK = 1 << 15


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Packed values of every k-mer window of ``codes`` (length n-k+1).

    Windows containing ``N`` get the value -1.  Vectorised by doubling:
    the windows of width 1, 2, 4, … are each one shifted OR of the
    previous width with itself, and those on the binary digits of k
    are joined into width k — ``⌈log2 k⌉`` passes, not k.  An ``N``
    code (4) spills into its neighbour's bits, but only inside windows
    that hold it, which a prefix count of the ``N``s then sets to -1.
    The windows are packed ``_CHUNK`` at a time, so the temporaries
    stay a few chunks however long ``codes`` is.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    n_windows = codes.size - k + 1
    if n_windows <= 0:
        return np.empty(0, dtype=np.int64)
    values = np.empty(n_windows, dtype=np.int64)
    for lo in range(0, n_windows, _CHUNK):
        hi = min(lo + _CHUNK, n_windows)
        chunk = codes[lo : hi + k - 1]
        values[lo:hi] = _pack_windows(chunk, k)
        is_n = chunk == N
        if is_n.any():
            seen = np.zeros(chunk.size + 1, dtype=np.int32)
            np.cumsum(is_n, out=seen[1:])
            values[lo:hi][seen[k:] != seen[:-k]] = -1
    return values


def _pack_windows(codes: np.ndarray, k: int) -> np.ndarray:
    """The ``codes.size - k + 1`` packed k-mer windows of ``codes``,
    by doubling; windows holding an ``N`` are garbage."""
    block, width = codes.astype(np.int64), 1  # the windows of ``width``
    tail, tail_width = None, 0  # the windows of k's low binary digits
    while True:
        if k & width:
            if tail is None:
                tail = block
            else:
                # a ``width`` window followed by a ``tail_width`` one
                joined = block[: tail.size - width] << 2 * tail_width
                joined |= tail[width:]
                tail = joined
            tail_width += width
        if tail_width == k:
            return tail
        doubled = block[:-width] << 2 * width
        doubled |= block[width:]
        block, width = doubled, 2 * width


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


def stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)`` for the permutation ``order`` that sorts
    ``keys`` stably (both ``int64``).

    ``order`` equals ``np.argsort(keys, kind="stable")``.  When the keys
    are non-negative and small enough to leave room for the row number
    in the low bits of one ``int64`` — packed k-mers of an index build
    are — a plain ``np.sort`` of ``(key << bits) | row`` gives the same
    permutation several times faster (986,000 k-mers: 0.012 s against
    0.10 s), and the sorted keys come back out of the same array with
    no gather; anything else takes the stable argsort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.size
    bits = max(n - 1, 0).bit_length()
    if n == 0 or keys.min() < 0 or int(keys.max()) >> (63 - bits):
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys << bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return packed, order


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``keys`` stably: the second half of
    :func:`stable_sort`."""
    return stable_sort(keys)[1]
