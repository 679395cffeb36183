"""2-bit DNA encoding and base-level operations.

The assembler stores nucleotides as numpy ``uint8`` codes::

    A = 0, C = 1, G = 2, T = 3, N = 4

The 0..3 codes are chosen so that the complement of a valid base ``b``
is simply ``3 - b``, which makes reverse complementation a single
vectorised expression.  ``N`` (code 4) is preserved by all operations
(its "complement" is defined as ``N``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "A",
    "C",
    "G",
    "T",
    "N",
    "CODE_TO_BASE",
    "encode",
    "decode",
    "complement",
    "reverse_complement",
    "gc_content",
    "hamming_identity",
]

A, C, G, T, N = 0, 1, 2, 3, 4

#: Index with a code to get the ASCII base character.
CODE_TO_BASE = np.frombuffer(b"ACGTN", dtype=np.uint8)

# Build the 256-entry ASCII -> code lookup table once.  Unknown
# characters map to a sentinel (255) so that ``encode`` can detect them.
_BASE_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(b"ACGTN"):
    _BASE_TO_CODE[_ch] = _i
for _i, _ch in enumerate(b"acgtn"):
    _BASE_TO_CODE[_ch] = _i

# Complement table over codes: A<->T, C<->G, N->N.
_COMPLEMENT = np.array([3, 2, 1, 0, 4], dtype=np.uint8)


def encode(seq: str | bytes) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array.

    Accepts upper- or lower-case ``ACGTN``.  Raises ``ValueError`` on
    any other character (assembly must not silently corrupt data).

    >>> encode("ACGT")
    array([0, 1, 2, 3], dtype=uint8)
    """
    if isinstance(seq, str):
        raw = seq.encode("ascii")
    else:
        raw = bytes(seq)
    arr = np.frombuffer(raw, dtype=np.uint8)
    codes = _BASE_TO_CODE[arr]
    if codes.size and codes.max() == 255:
        bad = chr(int(arr[np.argmax(codes == 255)]))
        raise ValueError(f"invalid DNA character {bad!r}")
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a code array back into an upper-case DNA string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() > N:
        raise ValueError("code array contains values outside 0..4")
    return CODE_TO_BASE[codes].tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Return the complement of each code (A<->T, C<->G, N->N)."""
    return np.take(_COMPLEMENT, np.asarray(codes, dtype=np.uint8))


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Return the reverse complement of a code array."""
    return complement(codes)[::-1].copy()


def gc_content(codes: np.ndarray) -> float:
    """Fraction of called bases (excluding N) that are G or C.

    Returns 0.0 for an empty or all-N sequence.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    called = codes[codes != N]
    if called.size == 0:
        return 0.0
    return float(np.count_nonzero((called == G) | (called == C)) / called.size)


def hamming_identity(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of positions at which two equal-length code arrays agree.

    This is the identity measure used by the fast ungapped overlap
    verifier.  Raises ``ValueError`` on length mismatch; returns 1.0 for
    two empty arrays (an empty alignment has no mismatches).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 1.0
    return float(np.count_nonzero(a == b) / a.size)
