"""Hypothesis strategies for small edge lists and delta graphs.

Few nodes, so isolated nodes, edgeless graphs and parallel edges are
all common; the weights of one graph are either all drawn from
{1, 2, 3} (ties everywhere, parallel edges with tied weights included)
or all real numbers of either sign.
"""

import numpy as np
from hypothesis import strategies as st

from repro.graph.overlap_graph import OverlapGraph

WEIGHTS = {
    "tied": st.sampled_from([1.0, 2.0, 3.0]),
    "real": st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
}


@st.composite
def edge_lists(draw):
    """``(n_nodes, eu, ev, weights, deltas or None)``."""
    n = draw(st.integers(min_value=0, max_value=10))
    if n >= 2:
        node = st.integers(min_value=0, max_value=n - 1)
        pairs = st.tuples(node, node).filter(lambda p: p[0] != p[1])
        edges = draw(st.lists(pairs, max_size=40))
    else:
        edges = []
    m = len(edges)
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    deltas = draw(st.none() | st.lists(st.integers(-500, 500), min_size=m, max_size=m))
    return (
        n,
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
        np.array(weights, dtype=np.float64),
        None if deltas is None else np.array(deltas, dtype=np.int64),
    )


@st.composite
def delta_graphs(draw):
    """A G0 over reads at random positions: between each pair of reads
    no edge, an exact delta, one within a slack of 2 bases, or one far
    outside it; every overlap weighs 60 bases."""
    n =draw(st.integers(1, 10), label="n")
    position = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n), label="position")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    noise = draw(
        st.lists(
            st.sampled_from([None, None, 0, 0, 0, 0, 1, -2, 3, 25]),
            min_size=len(pairs),
            max_size=len(pairs),
        ),
        label="noise",
    )
    edges = [(u, v, position[v] - position[u] + e) for (u, v), e in zip(pairs, noise) if e is not None]
    eu, ev, deltas = (np.array([e[i] for e in edges], dtype=np.int64) for i in range(3))
    return OverlapGraph(n, eu, ev, np.full(eu.size, 60.0), deltas=deltas)
