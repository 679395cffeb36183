"""Scalar reference of the variant caller's bubble scan.

The per-node scan ``repro.distributed.variants.find_bubble_variants``
is checked against: for each anchor, one Python pass over its alive
neighbours (the :mod:`tests.reference.finish_loop` reader, not the
production ``rows_of``) groups the degree-2 branches by (far endpoint,
side of the anchor); every pair of branches in a group is aligned
once, at the first anchor that sees it.  Calls come out in scan
order, so compare them as sorted lists.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.variants import Variant, _align_branches

from tests.reference.finish_loop import alive_degree, alive_incident, edge_delta

__all__ = ["find_bubble_variants"]


def _branch_pairs(dag: DistributedAssemblyGraph, v: int) -> list[tuple[int, int, int]]:
    """(anchor, branch_a, branch_b) bubbles anchored at ``v``.

    Same geometry as bubble popping: both branches degree-2, same far
    endpoint, same side of the anchor.
    """
    g = dag.graph
    nbrs, eids = alive_incident(dag, v)
    far: dict[tuple[int, int], list[int]] = {}
    for u, e in zip(nbrs.tolist(), eids.tolist()):
        if alive_degree(dag, u) != 2:
            continue
        side = int(np.sign(edge_delta(g, e, v)))
        other = [x for x in alive_incident(dag, u)[0].tolist() if x != v]
        if len(other) != 1:
            continue
        far.setdefault((other[0], side), []).append(u)
    out = []
    for (w, _side), branches in far.items():
        if w == v or len(branches) < 2:
            continue
        branches = sorted(branches)
        for i in range(len(branches)):
            for j in range(i + 1, len(branches)):
                out.append((v, branches[i], branches[j]))
    return out


def find_bubble_variants(
    dag: DistributedAssemblyGraph,
    nodes: np.ndarray,
    band: int = 8,
    max_variants_per_bubble: int = 20,
) -> list[Variant]:
    """Variants from bubbles anchored at the given nodes, node by node."""
    out: list[Variant] = []
    seen: set[tuple[int, int]] = set()
    for v in np.asarray(nodes).tolist():
        for anchor, a, b in _branch_pairs(dag, v):
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            calls = _align_branches(dag, a, b, band)
            if 0 < len(calls) <= max_variants_per_bubble:
                out.extend(
                    Variant(
                        anchor=anchor,
                        ref_node=c.ref_node,
                        alt_node=c.alt_node,
                        position=c.position,
                        kind=c.kind,
                        ref_allele=c.ref_allele,
                        alt_allele=c.alt_allele,
                    )
                    for c in calls
                )
    return out
