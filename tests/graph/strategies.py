"""Hypothesis strategies for small edge lists.

Few nodes, so isolated nodes, edgeless graphs and parallel edges are
all common; the weights of one graph are either all drawn from
{1, 2, 3} (ties everywhere, parallel edges with tied weights included)
or all real numbers of either sign.
"""

import numpy as np
from hypothesis import strategies as st

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
