"""Compressed sparse row adjacency construction.

All O(E) graph kernels (matching, partition gains, trimming) scan CSR
arrays rather than Python dict-of-dict structures.
"""

from __future__ import annotations

import numpy as np

from repro.sequence.kmers import stable_order

__all__ = ["build_csr", "group_by_label", "split_groups"]


def build_csr(
    n_nodes: int, eu: np.ndarray, ev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency from an undirected edge list.

    Each edge ``(eu[i], ev[i])`` appears in both endpoints' adjacency.

    Returns
    -------
    (indptr, indices, edge_ids):
        ``indices[indptr[v]:indptr[v+1]]`` are v's neighbours and
        ``edge_ids[...]`` the corresponding rows of the edge list.
    """
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    if eu.shape != ev.shape:
        raise ValueError("eu and ev must have equal length")
    if eu.size and (min(eu.min(), ev.min()) < 0 or max(eu.max(), ev.max()) >= n_nodes):
        raise ValueError("edge endpoint out of range")
    if (eu == ev).any():
        raise ValueError("self-loops are not allowed")
    m = eu.size
    if m == 0:
        # Edgeless graph (empty partition / isolated nodes): the same
        # int64 triple shape as the populated path, so downstream sparse
        # views never special-case it.  (np.arange defaults to intp —
        # int32 on some platforms — hence the explicit dtypes.)
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(n_nodes + 1, dtype=np.int64), empty, empty
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    eids = np.concatenate([np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64)])
    order = stable_order(src)
    src, dst, eids = src[order], dst[order], eids[order]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=indptr[1:])
    return indptr, dst, eids


def group_by_label(labels: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Ragged group-by of ``0 <= labels < n_groups``.

    Returns
    -------
    (members, first):
        ``members[first[g]:first[g+1]]`` are the positions carrying
        label ``g``, ascending; a label nobody carries is an empty run.
        :func:`split_groups` is the list-of-arrays view.
    """
    labels = np.asarray(labels, dtype=np.int64)
    first = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=n_groups), out=first[1:])
    return stable_order(labels), first


def split_groups(values: np.ndarray, first: np.ndarray) -> list[np.ndarray]:
    """One view of ``values`` per run ``first[g]:first[g+1]``."""
    bounds = np.asarray(first).tolist()
    return [values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
