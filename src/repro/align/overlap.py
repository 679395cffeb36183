"""Verified overlaps as columns.

An overlap between a *query* read and a *reference* read is described
by a diagonal ``d``: query position ``d + r`` pairs with reference
position ``r``.  From the diagonal and the two read lengths follow the
overlap span and its kind — a suffix/prefix dovetail, a containment or
two equal reads — coded as an index into :data:`KIND_NAMES`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["PackedOverlaps", "KIND_NAMES"]

#: The overlap kinds, indexed by ``PackedOverlaps.kind_code``.
#: ``query_left``: the query's suffix matches the reference's prefix (the
#: query extends to the left of the reference in genome coordinates);
#: ``query_right`` the reverse.  A containment makes one read redundant.
KIND_NAMES: tuple[str, ...] = (
    "equal",
    "query_contained",
    "ref_contained",
    "query_left",
    "query_right",
)


@dataclass(frozen=True)
class PackedOverlaps:
    """A batch of overlaps as parallel numpy columns.

    The one representation of alignment's output: what the
    verification pass yields, what the ``overlap`` stage's workers send
    back (seven flat arrays), what ``prepare()`` hands to
    :meth:`OverlapGraph.from_overlaps` and what ``repro overlap`` writes.
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
