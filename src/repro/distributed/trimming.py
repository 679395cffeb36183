"""Distributed error removal: dead-end trimming and bubble popping.

Paper §V-C, after Velvet's tour bus ideas [16]:

- a *dead end* is a short chain hanging off a junction: a degree-1 tip
  followed by at most ``max_tip_nodes`` degree-2 nodes ending at a node
  of degree >= 3 — sequencing errors create such spurs;
- a *bubble* is a pair of parallel single-node paths ``v - a - w`` /
  ``v - b - w``; the lighter branch is popped.

Per-partition kernels detect within their partitions; the master merge
removes.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph, sorted_unique
from repro.distributed.stages import register_stage, union_proposals

__all__ = [
    "find_dead_ends",
    "dead_end_kernel",
    "apply_dead_ends",
    "find_bubbles",
    "bubble_kernel",
    "apply_bubbles",
]


def find_dead_ends(
    dag: DistributedAssemblyGraph, nodes: np.ndarray, max_tip_bases: int = 150
) -> np.ndarray:
    """Nodes of short dead-end chains starting at tips in ``nodes``.

    A chain is trimmed only if it hangs off a junction (degree >= 3)
    and its total contig bases do not exceed ``max_tip_bases`` —
    Velvet's "tips shorter than 2k" rule transplanted to the overlap
    model, so a genuine long backbone end is never mistaken for an
    error spur.

    All degree-1 tips of the partition walk their chains *in lockstep*
    on the frozen alive view: each peeling round advances every still-
    active walk one hop from the alive rows of the nodes under
    inspection.  Rounds run until every walk has resolved — at most
    O(longest chain) iterations of O(active tips) vector work, never
    O(nodes) Python steps.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    adj = dag.graph.adj
    contig_len = dag.assembly.contig_lengths
    rows, deg = dag.rows_of(nodes)
    # A tip's single alive row is its neighbour.
    tip = deg == 1
    tips = nodes[tip]
    n_tips = tips.size
    # Walk state: bases counts the chain collected so far (tip
    # included); cur is the node under inspection this round.
    prev = tips
    cur = adj[rows[(np.cumsum(deg) - deg)[tip]]]
    bases = contig_len[tips].astype(np.int64)
    ok = np.zeros(n_tips, dtype=bool)
    active = np.arange(n_tips, dtype=np.int64)
    chain_tip: list[np.ndarray] = []
    chain_node: list[np.ndarray] = []
    while active.size:
        live = bases <= max_tip_bases
        rows, d = dag.rows_of(cur)
        junction = live & (d >= 3)
        ok[active[junction]] = True
        # Walks continue only through interior degree-2 nodes within
        # the base budget; degree-1 means an isolated chain (both
        # ends tips), which is left alone.
        cont = live & (d == 2)
        lo = (np.cumsum(d) - d)[cont]
        active, prev, cur, bases = (
            active[cont],
            prev[cont],
            cur[cont],
            bases[cont],
        )
        chain_tip.append(active)
        chain_node.append(cur)
        bases = bases + contig_len[cur]
        nbr0 = adj[rows[lo]]
        nbr1 = adj[rows[lo + 1]]
        nxt = np.where(nbr0 != prev, nbr0, nbr1)
        prev, cur = cur, nxt
    out = [tips[ok]]
    for t, c in zip(chain_tip, chain_node):
        out.append(c[ok[t]])
    return sorted_unique(np.concatenate(out))


def dead_end_kernel(
    dag: DistributedAssemblyGraph, part: int, max_tip_bases: int = 150
) -> np.ndarray:
    """Pure kernel: dead-end chain node ids proposed by one partition."""
    return find_dead_ends(dag, dag.partition_nodes(part), max_tip_bases)


def apply_dead_ends(dag: DistributedAssemblyGraph, proposals, **_params) -> int:
    """Master merge: union the proposals and kill the nodes."""
    return dag.remove_nodes(union_proposals(proposals))


register_stage("dead_ends", dead_end_kernel, apply_dead_ends)


def find_bubbles(
    dag: DistributedAssemblyGraph, nodes: np.ndarray
) -> np.ndarray:
    """Lighter branch node of each simple bubble anchored in ``nodes``.

    A simple bubble is ``v - a - w`` / ``v - b - w`` with ``a`` and
    ``b`` of degree exactly 2, where both branches extend to the *same
    side* of ``v`` (same delta sign) — two alternative spellings of the
    same genomic interval.  Without the direction check every 4-cycle
    would be a bubble.

    Every (anchor v, degree-2 branch u) row resolves u's far endpoint
    ``w`` from u's two alive rows, then a single lexsort groups rows by
    the (anchor, side-of-v, far-endpoint) key, each group one run
    ordered by (contig length, id).  In each group of two or more
    parallel branches all but the (contig length, id)-max branch, the
    last of its run, are proposed.
    """
    nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
    g = dag.graph
    # The anchors' own rows whose far end is a degree-2 branch.
    rows, degrees = dag.rows_of(nodes)
    u_rows, u_deg = dag.rows_of(g.adj[rows])
    branch = u_deg == 2
    rows = rows[branch]
    v = np.repeat(nodes, degrees)[branch]
    u = g.adj[rows]
    side = np.sign(g.adj_delta[rows])
    # u's far endpoint: the one of its two alive rows that is not v.
    lo = (np.cumsum(u_deg) - u_deg)[branch]
    nbr0 = g.adj[u_rows[lo]]
    nbr1 = g.adj[u_rows[lo + 1]]
    w = np.where(nbr0 != v, nbr0, nbr1)
    order = np.lexsort((u, dag.assembly.contig_lengths[u], w, side, v))
    v, u, side, w = v[order], u[order], side[order], w[order]
    # A row is lighter when the next row is in its group.
    lighter = np.zeros(u.size, dtype=bool)
    lighter[:-1] = (v[1:] == v[:-1]) & (side[1:] == side[:-1]) & (w[1:] == w[:-1])
    return sorted_unique(u[lighter])


def bubble_kernel(dag: DistributedAssemblyGraph, part: int) -> np.ndarray:
    """Pure kernel: lighter-branch node ids proposed by one partition."""
    return find_bubbles(dag, dag.partition_nodes(part))


def apply_bubbles(dag: DistributedAssemblyGraph, proposals, **_params) -> int:
    """Master merge: union the proposals and pop the branches."""
    return dag.remove_nodes(union_proposals(proposals))


register_stage("bubbles", bubble_kernel, apply_bubbles)
