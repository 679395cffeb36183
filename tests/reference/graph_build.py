"""Sort-by-``lexsort`` reference of the ``Level`` / ``OverlapGraph`` edge merge.

The specification the graph constructors and ``build_csr`` are
checked against: edges ordered by ``lexsort((ev, eu))``, the delta of
each merged group taken from the last row of a ``lexsort((weights,
group))`` (the heaviest instance, the last one on a tie), and the CSR
ordered by a stable ``argsort`` of the source endpoint.
"""

from __future__ import annotations

import numpy as np

__all__ = ["graph_arrays"]


def graph_arrays(
    n_nodes: int,
    eu: np.ndarray,
    ev: np.ndarray,
    weights: np.ndarray,
    deltas: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """``eu, ev, weights, indptr, adj, adj_edge`` of the merged graph,
    as ``Level`` exposes them, plus ``deltas`` when given (as
    ``OverlapGraph`` exposes them)."""
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    has_deltas = deltas is not None
    deltas = np.zeros(eu.size, np.int64) if deltas is None else np.asarray(deltas, np.int64)
    flip = eu > ev
    eu2 = np.where(flip, ev, eu)
    ev2 = np.where(flip, eu, ev)
    deltas = np.where(flip, -deltas, deltas)
    if eu2.size:
        order = np.lexsort((ev2, eu2))
        eu2, ev2 = eu2[order], ev2[order]
        weights, deltas = weights[order], deltas[order]
        first = np.ones(eu2.size, dtype=bool)
        first[1:] = (eu2[1:] != eu2[:-1]) | (ev2[1:] != ev2[:-1])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        worder = np.lexsort((weights, group))
        deltas = deltas[worder[np.append(starts[1:], eu2.size) - 1]]
        eu2, ev2 = eu2[starts], ev2[starts]
        weights = np.bincount(group, weights=weights)

    m = eu2.size
    src = np.concatenate([eu2, ev2])
    dst = np.concatenate([ev2, eu2])
    eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
    arrays = {
        "eu": eu2,
        "ev": ev2,
        "weights": weights,
        "indptr": indptr,
        "adj": dst[order],
        "adj_edge": eids[order],
    }
    if has_deltas:
        arrays["deltas"] = deltas
    return arrays
