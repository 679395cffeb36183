"""The graph-set builders that predate ``Level.contract``, as oracles.

Every hybrid level ``H_i`` is built straight from G0 along its base map
(not from ``H_(i-1)``), every merge is the ``lexsort`` merge of
``tests/reference/graph_build.py``, and the enriched hybrid edges keep
the heaviest crossing overlap by a ``lexsort`` on ``(eu, ev, weight)``.
These are the builders ``repro.graph.hybrid.build_hybrid_set`` and
``repro.distributed.dgraph.enrich_hybrid`` replaced; they share no
graph-building code with them (the multilevel maps they start from are
read off the set under test).  Graphs are returned as dicts of the
arrays a ``Level`` (or ``OverlapGraph``) exposes.
"""

from __future__ import annotations

import numpy as np

from tests.reference.graph_build import graph_arrays

__all__ = ["contracted_from_g0", "hybrid_set", "enriched_edges"]


def contracted_from_g0(g0, base_map: np.ndarray) -> dict[str, np.ndarray]:
    """G0 with each class of ``base_map`` (onto ``0..max``) merged."""
    base_map = np.asarray(base_map, dtype=np.int64)
    n = int(base_map.max()) + 1 if base_map.size else 0
    node_weights = np.zeros(n, dtype=np.int64)
    np.add.at(node_weights, base_map, g0.node_weights)
    hu, hv = base_map[g0.eu], base_map[g0.ev]
    keep = hu != hv
    arrays = graph_arrays(n, hu[keep], hv[keep], g0.weights[keep])
    arrays["node_weights"] = node_weights
    return arrays


def hybrid_set(mls, rep_level: np.ndarray):
    """``(graphs, mappings, base_maps)`` of the hybrid set, every level
    contracted from G0.

    G0 node ``v`` sits at level ``i`` in the hybrid node of its
    level-``max(rep_level[v], i)`` ancestor; hybrid ids number those
    (level, ancestor) pairs in ascending order.
    """
    g0 = mls.base
    level_maps = [mls.map_to_level(lvl) for lvl in range(mls.n_levels)]
    max_nodes = max(g.n_nodes for g in mls.graphs) + 1
    graphs, base_maps = [], []
    for i in range(mls.n_levels):
        lvl = np.maximum(rep_level, i)
        anc = np.array([level_maps[l][v] for v, l in enumerate(lvl.tolist())], dtype=np.int64)
        _, base_map = np.unique(lvl * max_nodes + anc, return_inverse=True)
        base_map = base_map.astype(np.int64).reshape(-1)
        base_maps.append(base_map)
        graphs.append(contracted_from_g0(g0, base_map))
    mappings = []
    for i in range(mls.n_levels - 1):
        m = np.zeros(graphs[i]["node_weights"].size, dtype=np.int64)
        m[base_maps[i]] = base_maps[i + 1]
        mappings.append(m)
    return graphs, mappings, base_maps


def enriched_edges(
    g0, base_map: np.ndarray, read_offset: np.ndarray, contig_lengths: np.ndarray
) -> dict[str, np.ndarray]:
    """``eu, ev, weights, deltas`` of the enriched hybrid graph.

    ``read_offset[v]`` places read ``v`` in its cluster's layout.  Per
    hybrid node pair, the crossing G0 overlap of greatest weight (the
    last one in G0 edge order on a tie) gives the contig delta; the
    weight is the implied contig overlap, at least 1.
    """
    hu, hv = base_map[g0.eu], base_map[g0.ev]
    crossing = hu != hv
    cu, cv = hu[crossing], hv[crossing]
    w = g0.weights[crossing]
    d = read_offset[g0.eu[crossing]] + g0.deltas[crossing] - read_offset[g0.ev[crossing]]
    flip = cu > cv
    cu2 = np.where(flip, cv, cu)
    cv2 = np.where(flip, cu, cv)
    d2 = np.where(flip, -d, d)
    order = np.lexsort((w, cv2, cu2))
    cu2, cv2, d2 = cu2[order], cv2[order], d2[order]
    last = np.ones(cu2.size, dtype=bool)
    last[:-1] = (cu2[1:] != cu2[:-1]) | (cv2[1:] != cv2[:-1])
    eu, ev, deltas = cu2[last], cv2[last], d2[last]
    ov = np.minimum(contig_lengths[eu], deltas + contig_lengths[ev]) - np.maximum(0, deltas)
    return {
        "eu": eu,
        "ev": ev,
        "weights": np.maximum(ov, 1).astype(np.float64),
        "deltas": deltas,
    }
