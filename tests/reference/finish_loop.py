"""Scalar reference implementations of the four finish-stage scans.

One Python iteration per node over :func:`alive_incident` — the
readable specification of paper §V-A/B/C that the vectorized
production kernels (``repro.distributed.{transitive,containment,
trimming}``) are checked against.  The oracles read the alive graph
through their own per-node reader of ``dag.graph``'s CSR and the
masks, and its deltas through their own :func:`edge_delta`, never
through the production reader (``DistributedAssemblyGraph.rows_of``,
``lookup``, the graph's ``adj_delta`` column), so they share no code
with what they check.  Same arguments as the production ``find_*``
functions; results are plain lists in scan order (possibly with
duplicates), so compare them as sorted sets.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.sequence.dna import hamming_identity

__all__ = [
    "edge_delta",
    "alive_incident",
    "alive_degree",
    "find_transitive_edges",
    "find_containments",
    "find_dead_ends",
    "find_bubbles",
]


def edge_delta(g, e: int, v: int) -> int:
    """Offset of edge ``e``'s other endpoint relative to its endpoint ``v``."""
    if getattr(g, "deltas", None) is None:
        raise ValueError("graph carries no layout deltas")
    if v == g.eu[e]:
        return int(g.deltas[e])
    if v == g.ev[e]:
        return -int(g.deltas[e])
    raise ValueError(f"node {v} is not an endpoint of edge {e}")


def alive_incident(
    dag: DistributedAssemblyGraph, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """(neighbour ids, edge ids) of v's alive incident edges, in the
    graph's CSR order."""
    g = dag.graph
    lo, hi = g.indptr[v], g.indptr[v + 1]
    nbrs, eids = g.adj[lo:hi], g.adj_edge[lo:hi]
    keep = dag.edge_alive[eids] & dag.node_alive[nbrs]
    return nbrs[keep], eids[keep]


def alive_degree(dag: DistributedAssemblyGraph, v: int) -> int:
    return int(alive_incident(dag, v)[0].size)


def find_transitive_edges(
    dag: DistributedAssemblyGraph, nodes: np.ndarray, tolerance: int = 2
) -> list[int]:
    """Transitive edge ids discoverable from the given nodes."""
    out: list[int] = []
    g = dag.graph
    for v in np.asarray(nodes).tolist():
        nbrs, eids = alive_incident(dag, v)
        if nbrs.size < 2:
            continue
        deltas = np.array([edge_delta(g, int(e), v) for e in eids])
        right = deltas > 0
        r_nbrs, r_eids, r_deltas = nbrs[right], eids[right], deltas[right]
        if r_nbrs.size < 2:
            continue
        order = np.argsort(r_deltas, kind="stable")
        r_nbrs, r_eids, r_deltas = r_nbrs[order], r_eids[order], r_deltas[order]
        # Candidate far edges checked against every closer neighbour.
        for far in range(1, r_nbrs.size):
            u, du = int(r_nbrs[far]), int(r_deltas[far])
            for near in range(far):
                w, dw = int(r_nbrs[near]), int(r_deltas[near])
                if dw <= 0 or dw >= du:
                    continue
                # Does w have an alive edge to u with delta ~ du - dw?
                w_nbrs, w_eids = alive_incident(dag, w)
                hit = np.flatnonzero(w_nbrs == u)
                if hit.size:
                    e_wu = int(w_eids[hit[0]])
                    if abs(edge_delta(g, e_wu, w) - (du - dw)) <= tolerance:
                        out.append(int(r_eids[far]))
                        break
    return out


def _contained_identity(
    inner: np.ndarray, outer: np.ndarray, start: int
) -> float:
    """Identity of ``inner`` vs the slice of ``outer`` starting at ``start``."""
    seg = outer[start : start + inner.size]
    if seg.size != inner.size:
        return 0.0
    return hamming_identity(inner, seg)


def find_containments(
    dag: DistributedAssemblyGraph,
    nodes: np.ndarray,
    min_overlap: int = 50,
    min_identity: float = 0.9,
) -> tuple[list[int], list[int]]:
    """(contained node ids, false-positive edge ids) seen from ``nodes``."""
    dead_nodes: list[int] = []
    dead_edges: list[int] = []
    g = dag.graph
    contigs = dag.assembly.contigs
    for v in np.asarray(nodes).tolist():
        cv = contigs[v]
        nbrs, eids = alive_incident(dag, v)
        for u, e in zip(nbrs.tolist(), eids.tolist()):
            d = edge_delta(g, e, v)  # offset of u's contig relative to v's
            cu = contigs[u]
            overlap = min(cv.size, d + cu.size) - max(0, d)
            if overlap < min_overlap:
                dead_edges.append(e)
                continue
            # v contained in u: u's interval [d, d+|cu|) covers [0, |cv|).
            if d <= 0 and d + cu.size >= cv.size:
                # Mutual (exactly coextensive) containments keep the
                # lower-id node, otherwise identical contigs would all
                # remove each other.
                proper = d < 0 or d + cu.size > cv.size
                if (proper or v > u) and _contained_identity(cv, cu, -d) >= min_identity:
                    dead_nodes.append(v)
                    break
    return dead_nodes, dead_edges


def find_dead_ends(
    dag: DistributedAssemblyGraph, nodes: np.ndarray, max_tip_bases: int = 150
) -> list[int]:
    """Nodes of short dead-end chains starting at tips in ``nodes``.

    A chain is trimmed only if it hangs off a junction (degree >= 3)
    and its total contig bases do not exceed ``max_tip_bases`` —
    Velvet's "tips shorter than 2k" rule transplanted to the overlap
    model, so a genuine long backbone end is never mistaken for an
    error spur.
    """
    out: list[int] = []
    contig_len = dag.assembly.contig_lengths
    for v in np.asarray(nodes).tolist():
        if alive_degree(dag, v) != 1:
            continue
        chain = [v]
        bases = int(contig_len[v])
        prev = v
        cur = int(alive_incident(dag, v)[0][0])
        ok = False
        while bases <= max_tip_bases:
            deg = alive_degree(dag, cur)
            if deg >= 3:
                ok = True  # chain hangs off a junction
                break
            if deg == 1:
                # isolated chain (both ends tips): leave it alone
                break
            nbrs, _ = alive_incident(dag, cur)
            nxt = int(nbrs[0]) if int(nbrs[0]) != prev else int(nbrs[1])
            chain.append(cur)
            bases += int(contig_len[cur])
            prev, cur = cur, nxt
        if ok:
            out.extend(chain)
    return out


def find_bubbles(dag: DistributedAssemblyGraph, nodes: np.ndarray) -> list[int]:
    """Lighter branch node of each simple bubble anchored in ``nodes``.

    A simple bubble is ``v - a - w`` / ``v - b - w`` with ``a`` and
    ``b`` of degree exactly 2, where both branches extend to the *same
    side* of ``v`` (same delta sign) — two alternative spellings of the
    same genomic interval.  Without the direction check every 4-cycle
    would be popped.  The branch with the shorter contig is recorded.
    """
    out: list[int] = []
    contig_len = dag.assembly.contig_lengths
    g = dag.graph
    for v in np.asarray(nodes).tolist():
        nbrs, eids = alive_incident(dag, v)
        two_deg = [
            (int(u), int(np.sign(edge_delta(g, int(e), v))))
            for u, e in zip(nbrs.tolist(), eids.tolist())
            if alive_degree(dag, int(u)) == 2
        ]
        if len(two_deg) < 2:
            continue
        # group the degree-2 neighbours by (far endpoint, side of v)
        far: dict[tuple[int, int], list[int]] = {}
        for u, side in two_deg:
            u_nbrs, _ = alive_incident(dag, u)
            other = [int(x) for x in u_nbrs.tolist() if int(x) != v]
            if len(other) != 1:
                continue
            far.setdefault((other[0], side), []).append(u)
        for (w, _side), branches in far.items():
            if w == v or len(branches) < 2:
                continue
            branches = sorted(branches, key=lambda u: (int(contig_len[u]), u))
            out.extend(branches[:-1])  # keep the longest branch
    return out
