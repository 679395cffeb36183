"""Damaged copies of a file's bytes, for the loader fuzz tests."""

from hypothesis import strategies as st


def damaged(blob: bytes, data) -> bytes:
    """``blob`` truncated to a shorter length, or with one bit flipped."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
