"""Overlap records and geometry.

An overlap between a *query* read and a *reference* read is described
by a diagonal ``d``: query position ``d + r`` pairs with reference
position ``r``.  From the diagonal and the two read lengths the overlap
span and its kind (suffix/prefix dovetail or containment) follow.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "OverlapKind",
    "Overlap",
    "PackedOverlaps",
    "KIND_CODES",
    "overlap_span",
    "classify_overlap",
]


class OverlapKind(enum.Enum):
    """How two reads overlap.

    ``QUERY_LEFT``: the query's suffix matches the reference's prefix
    (query extends to the left of the reference in genome coordinates);
    ``QUERY_RIGHT`` the reverse.  Containments make one read redundant.
    """

    QUERY_LEFT = "query_left"
    QUERY_RIGHT = "query_right"
    QUERY_CONTAINED = "query_contained"
    REF_CONTAINED = "ref_contained"
    EQUAL = "equal"


@dataclass(frozen=True)
class Overlap:
    """A verified overlap relationship (one overlap-graph edge)."""

    query: int
    ref: int
    q_start: int
    r_start: int
    length: int
    identity: float
    kind: OverlapKind

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("overlap length must be non-negative")
        if not 0.0 <= self.identity <= 1.0:
            raise ValueError("identity must be in [0, 1]")

    def reversed(self) -> "Overlap":
        """The same overlap seen from the reference's point of view."""
        flip = {
            OverlapKind.QUERY_LEFT: OverlapKind.QUERY_RIGHT,
            OverlapKind.QUERY_RIGHT: OverlapKind.QUERY_LEFT,
            OverlapKind.QUERY_CONTAINED: OverlapKind.REF_CONTAINED,
            OverlapKind.REF_CONTAINED: OverlapKind.QUERY_CONTAINED,
            OverlapKind.EQUAL: OverlapKind.EQUAL,
        }
        return Overlap(
            query=self.ref,
            ref=self.query,
            q_start=self.r_start,
            r_start=self.q_start,
            length=self.length,
            identity=self.identity,
            kind=flip[self.kind],
        )


#: Stable numeric encoding of :class:`OverlapKind` used by the batch
#: engine and the multiprocess wire format (index = code).
KIND_CODES: tuple[OverlapKind, ...] = (
    OverlapKind.EQUAL,
    OverlapKind.QUERY_CONTAINED,
    OverlapKind.REF_CONTAINED,
    OverlapKind.QUERY_LEFT,
    OverlapKind.QUERY_RIGHT,
)

_CODE_OF_KIND = {kind: code for code, kind in enumerate(KIND_CODES)}


@dataclass(frozen=True)
class PackedOverlaps:
    """A batch of overlaps as parallel numpy columns.

    This is the native output of the vectorized verification pass, the
    wire format of the multiprocess executor (seven flat arrays pickle
    far cheaper than thousands of :class:`Overlap` objects) and what
    ``prepare()`` hands to :meth:`OverlapGraph.from_overlaps`.
    ``to_overlaps``/``from_overlaps`` round-trip exactly.
    """

    query: np.ndarray
    ref: np.ndarray
    q_start: np.ndarray
    r_start: np.ndarray
    length: np.ndarray
    identity: np.ndarray
    kind_code: np.ndarray

    def __len__(self) -> int:
        return int(self.query.size)

    @classmethod
    def empty(cls) -> "PackedOverlaps":
        i64 = np.empty(0, dtype=np.int64)
        return cls(
            query=i64,
            ref=i64.copy(),
            q_start=i64.copy(),
            r_start=i64.copy(),
            length=i64.copy(),
            identity=np.empty(0, dtype=np.float64),
            kind_code=np.empty(0, dtype=np.uint8),
        )

    @classmethod
    def concatenate(cls, chunks: Sequence["PackedOverlaps"]) -> "PackedOverlaps":
        """The rows of ``chunks``, in order, as one batch."""
        if not chunks:
            return cls.empty()
        if len(chunks) == 1:
            return chunks[0]
        return cls(
            *(
                np.concatenate([getattr(c, f.name) for c in chunks])
                for f in fields(cls)
            )
        )

    @classmethod
    def from_overlaps(cls, overlaps: list[Overlap]) -> "PackedOverlaps":
        if not overlaps:
            return cls.empty()
        return cls(
            query=np.array([o.query for o in overlaps], dtype=np.int64),
            ref=np.array([o.ref for o in overlaps], dtype=np.int64),
            q_start=np.array([o.q_start for o in overlaps], dtype=np.int64),
            r_start=np.array([o.r_start for o in overlaps], dtype=np.int64),
            length=np.array([o.length for o in overlaps], dtype=np.int64),
            identity=np.array([o.identity for o in overlaps], dtype=np.float64),
            kind_code=np.array(
                [_CODE_OF_KIND[o.kind] for o in overlaps], dtype=np.uint8
            ),
        )

    def to_overlaps(self) -> list[Overlap]:
        return [
            Overlap(
                query=q,
                ref=r,
                q_start=qs,
                r_start=rs,
                length=ln,
                identity=idt,
                kind=KIND_CODES[kc],
            )
            for q, r, qs, rs, ln, idt, kc in zip(
                self.query.tolist(),
                self.ref.tolist(),
                self.q_start.tolist(),
                self.r_start.tolist(),
                self.length.tolist(),
                self.identity.tolist(),
                self.kind_code.tolist(),
            )
        ]


def overlap_span(diagonal: int, len_q: int, len_r: int) -> tuple[int, int, int]:
    """(q_start, r_start, length) of the overlap implied by ``diagonal``.

    ``diagonal = q_pos - r_pos`` for any matched position pair.  Length
    may be zero or negative if the diagonal puts the reads apart; the
    caller must check.
    """
    q_start = max(0, diagonal)
    r_start = max(0, -diagonal)
    length = min(len_q - q_start, len_r - r_start)
    return q_start, r_start, length


def classify_overlap(q_start: int, r_start: int, length: int, len_q: int, len_r: int) -> OverlapKind:
    """Kind of a span produced by :func:`overlap_span`."""
    if length <= 0:
        raise ValueError("not an overlap (non-positive length)")
    q_full = q_start == 0 and q_start + length == len_q
    r_full = r_start == 0 and r_start + length == len_r
    if q_full and r_full:
        return OverlapKind.EQUAL
    if q_full:
        return OverlapKind.QUERY_CONTAINED
    if r_full:
        return OverlapKind.REF_CONTAINED
    if q_start > 0:
        # query suffix aligns reference prefix -> query sits to the left
        return OverlapKind.QUERY_LEFT
    return OverlapKind.QUERY_RIGHT
