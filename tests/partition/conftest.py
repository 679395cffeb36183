"""Shared graph builders for partition tests."""

import numpy as np
import pytest

from repro.graph.coarsen import build_multilevel_set
from repro.graph.overlap_graph import Level
from repro.partition.recursive import recursive_bisection


def recursive_labels(g, k, coarsen=None, seed=0, tasks=None):
    """``recursive_bisection`` of ``g``'s own multilevel set, coarsened
    under ``coarsen``; ``seed`` is the run's one seed."""
    gs = build_multilevel_set(g, coarsen, seed)
    return recursive_bisection(gs, k, tasks=tasks, seed=seed)


def two_cliques(n_each=8, bridge_weight=1.0, clique_weight=10.0):
    """Two dense cliques joined by one light bridge edge — the canonical
    partitioning testcase (ideal cut = bridge_weight)."""
    eu, ev, w = [], [], []
    for base in (0, n_each):
        for i in range(n_each):
            for j in range(i + 1, n_each):
                eu.append(base + i)
                ev.append(base + j)
                w.append(clique_weight)
    eu.append(n_each - 1)
    ev.append(n_each)
    w.append(bridge_weight)
    return Level(2 * n_each, np.array(eu), np.array(ev), np.array(w, dtype=np.float64))


def ring_of_cliques(n_cliques=4, n_each=6, bridge_weight=1.0, clique_weight=10.0):
    """n cliques joined in a ring by light bridges (good k-way testcase)."""
    eu, ev, w = [], [], []
    for c in range(n_cliques):
        base = c * n_each
        for i in range(n_each):
            for j in range(i + 1, n_each):
                eu.append(base + i)
                ev.append(base + j)
                w.append(clique_weight)
    for c in range(n_cliques):
        a = c * n_each + n_each - 1
        b = ((c + 1) % n_cliques) * n_each
        eu.append(a)
        ev.append(b)
        w.append(bridge_weight)
    return Level(
        n_cliques * n_each, np.array(eu), np.array(ev), np.array(w, dtype=np.float64)
    )


def random_weighted_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if not pairs:
        pairs = [(0, 1)]
    eu = np.array([a for a, _ in pairs])
    ev = np.array([b for _, b in pairs])
    w = rng.integers(1, 50, size=len(pairs)).astype(np.float64)
    return Level(n, eu, ev, w)
