"""Scalar reference of maximal-path traversal (paper §V-D).

The readable specification the list-ranking kernel and merge of
``repro.distributed.traversal`` are checked against: a per-node
``while`` walk over whole-graph direction tables inside one partition,
and a dict-based join of the sub-paths across partition boundaries.
Paths are ``list[list[int]]``; :func:`pack_paths` gives the production
``(flat, lens)`` encoding of the same paths.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph

__all__ = [
    "direction_tables",
    "extract_subpaths",
    "join_subpaths",
    "pack_paths",
    "unpack_paths",
]

Tables = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def direction_tables(dag: DistributedAssemblyGraph) -> Tables:
    """(out_deg, out_next, in_deg, in_next) over alive edges.

    ``out_next[v]`` is v's unique right neighbour when ``out_deg[v] ==
    1`` (undefined otherwise), and symmetrically for in-edges.
    Zero-delta edges count as neither.
    """
    g = dag.graph
    alive = dag.edge_alive & dag.node_alive[g.eu] & dag.node_alive[g.ev]
    eu, ev, d = g.eu[alive], g.ev[alive], g.deltas[alive]
    pos, neg = d > 0, d < 0
    out_src = np.concatenate([eu[pos], ev[neg]])
    out_dst = np.concatenate([ev[pos], eu[neg]])
    in_src = np.concatenate([eu[neg], ev[pos]])
    in_dst = np.concatenate([ev[neg], eu[pos]])
    n = g.n_nodes
    out_deg = np.bincount(out_src, minlength=n)
    in_deg = np.bincount(in_src, minlength=n)
    out_next = np.full(n, -1, dtype=np.int64)
    out_next[out_src] = out_dst
    in_next = np.full(n, -1, dtype=np.int64)
    in_next[in_src] = in_dst
    return out_deg, out_next, in_deg, in_next


def extract_subpaths(
    dag: DistributedAssemblyGraph,
    part: int,
    visited: np.ndarray,
    tables: Tables | None = None,
) -> list[list[int]]:
    """Maximal unambiguous paths within one partition.

    ``visited`` is a shared bool array marking nodes already placed in
    a path (workers touch disjoint partitions, so there are no races).
    """
    out_deg, out_next, in_deg, in_next = tables or direction_tables(dag)
    labels = dag.labels
    paths: list[list[int]] = []
    for v in dag.partition_nodes(part).tolist():
        if visited[v]:
            continue
        path = [v]
        visited[v] = True
        # Extend right.
        cur = v
        while out_deg[cur] == 1:
            nxt = int(out_next[cur])
            if visited[nxt] or labels[nxt] != part or in_deg[nxt] != 1 or in_next[nxt] != cur:
                break
            path.append(nxt)
            visited[nxt] = True
            cur = nxt
        # Extend left from the seed.
        cur = v
        while in_deg[cur] == 1:
            prv = int(in_next[cur])
            if visited[prv] or labels[prv] != part or out_deg[prv] != 1 or out_next[prv] != cur:
                break
            path.insert(0, prv)
            visited[prv] = True
            cur = prv
        paths.append(path)
    return paths


def join_subpaths(
    dag: DistributedAssemblyGraph,
    subpaths: list[list[int]],
    tables: Tables | None = None,
) -> list[list[int]]:
    """Master-side joining of sub-paths across partition boundaries.

    p1 joins p2 when p1's right end has a unique out-edge to p2's left
    end and that edge is p2's head's only in-edge (paper §V-D).
    """
    out_deg, out_next, in_deg, in_next = tables or direction_tables(dag)
    head_of = {p[0]: i for i, p in enumerate(subpaths)}
    paths = [list(p) for p in subpaths]

    successor: dict[int, int] = {}
    has_pred: set[int] = set()
    for i, p in enumerate(paths):
        tail = p[-1]
        if out_deg[tail] != 1:
            continue
        head = int(out_next[tail])
        j = head_of.get(head)
        if j is None or j == i:
            continue
        if in_deg[head] != 1 or in_next[head] != tail:
            continue
        successor[i] = j
        has_pred.add(j)

    joined: list[list[int]] = []
    consumed = [False] * len(paths)

    def follow(start: int) -> None:
        chain = list(paths[start])
        consumed[start] = True
        j = successor.get(start)
        while j is not None and not consumed[j]:
            chain.extend(paths[j])
            consumed[j] = True
            j = successor.get(j)
        joined.append(chain)

    for i in range(len(paths)):
        if not consumed[i] and i not in has_pred:
            follow(i)
    # Pure cycles (every member has a predecessor) are emitted as-is.
    for i in range(len(paths)):
        if not consumed[i]:
            follow(i)
    return joined


def pack_paths(paths: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged encoding of a path list: (flat node ids, path lengths)."""
    lens = np.array([len(p) for p in paths], dtype=np.int64)
    flat = np.array([v for p in paths for v in p], dtype=np.int64)
    return flat, lens


def unpack_paths(flat: np.ndarray, lens: np.ndarray) -> list[list[int]]:
    """Inverse of :func:`pack_paths`."""
    bounds = np.cumsum(np.asarray(lens, dtype=np.int64)).tolist()
    return [np.asarray(flat)[lo:hi].tolist() for lo, hi in zip([0, *bounds], bounds)]
