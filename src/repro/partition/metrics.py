"""Partition quality metrics: edge cut, weights, balance."""

from __future__ import annotations

import numpy as np

from repro.graph.overlap_graph import Level

__all__ = [
    "edge_cut",
    "edge_cut_fraction",
    "partition_node_weights",
    "partition_edge_weights",
    "node_weight_balance",
    "internal_external_weights",
]


def _check_labels(graph: Level, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != graph.n_nodes:
        raise ValueError("labels must cover every node")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative")
    return labels


def edge_cut(graph: Level, labels: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    labels = _check_labels(graph, labels)
    crossing = labels[graph.eu] != labels[graph.ev]
    return float(graph.weights[crossing].sum())


def edge_cut_fraction(graph: Level, labels: np.ndarray) -> float:
    """Edge cut as a fraction of the graph's total edge weight."""
    total = graph.total_edge_weight
    if total == 0:
        return 0.0
    return edge_cut(graph, labels) / total


def partition_node_weights(graph: Level, labels: np.ndarray, k: int | None = None) -> np.ndarray:
    """Summed node weight per part."""
    labels = _check_labels(graph, labels)
    k = int(labels.max()) + 1 if k is None else k
    out = np.zeros(k, dtype=np.int64)
    np.add.at(out, labels, graph.node_weights)
    return out


def partition_edge_weights(graph: Level, labels: np.ndarray, k: int | None = None) -> np.ndarray:
    """Summed weight of *internal* edges per part (paper's ew_partition)."""
    labels = _check_labels(graph, labels)
    k = int(labels.max()) + 1 if k is None else k
    out = np.zeros(k, dtype=np.float64)
    internal = labels[graph.eu] == labels[graph.ev]
    np.add.at(out, labels[graph.eu[internal]], graph.weights[internal])
    return out


def node_weight_balance(graph: Level, labels: np.ndarray, k: int | None = None) -> float:
    """max part weight / ideal part weight (1.0 = perfectly balanced)."""
    weights = partition_node_weights(graph, labels, k)
    ideal = graph.total_node_weight / weights.size
    if ideal == 0:
        return 1.0
    return float(weights.max() / ideal)


def internal_external_weights(
    graph: Level, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node internal cost I_v and external cost E_v (paper §IV-B).

    ``I_v`` sums edge weights to same-part neighbours, ``E_v`` to
    other-part neighbours; ``D_v = E_v - I_v`` is the KL move gain.
    """
    labels = _check_labels(graph, labels)
    internal = np.zeros(graph.n_nodes)
    external = np.zeros(graph.n_nodes)
    same = labels[graph.eu] == labels[graph.ev]
    for arr, mask in ((internal, same), (external, ~same)):
        np.add.at(arr, graph.eu[mask], graph.weights[mask])
        np.add.at(arr, graph.ev[mask], graph.weights[mask])
    return internal, external
