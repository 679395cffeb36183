"""Hypothesis property tests for the collectives.

For random communicator sizes, roots, and payloads, both collectives
must deliver mpi4py-equivalent *values* and keep every rank's virtual
clock *monotone* (a collective can only move clocks forward).
"""

from hypothesis import given, settings, strategies as st

from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)

sizes = st.integers(min_value=1, max_value=6)
payloads = st.one_of(
    st.integers(-(10**6), 10**6),
    st.text(max_size=8),
    st.lists(st.integers(0, 255), max_size=6),
)

COMMON = dict(max_examples=25, deadline=None)


def run_collective(size, fn):
    """Yield the collective ``fn(comm)`` calls on ``size`` ranks; its results."""
    monotone = [None] * size

    def wrapper(comm):
        before = comm.clock
        out = yield fn(comm)
        monotone[comm.rank] = comm.clock >= before
        return out

    results, stats = SimCluster(size, cost_model=FAST).run(wrapper)
    assert all(monotone), "a collective moved a rank's clock backwards"
    assert all(c >= 0.0 for c in stats.clocks)
    return results


@settings(**COMMON)
@given(data=st.data(), size=sizes, obj=payloads)
def test_bcast_delivers_root_object(data, size, obj):
    root = data.draw(st.integers(0, size - 1))
    results = run_collective(size, lambda comm: comm.bcast(obj, root=root))
    assert results == [obj] * size


@settings(**COMMON)
@given(data=st.data(), size=sizes)
def test_gather_orders_by_rank(data, size):
    root = data.draw(st.integers(0, size - 1))
    results = run_collective(size, lambda comm: comm.gather(("r", comm.rank), root=root))
    for rank, res in enumerate(results):
        if rank == root:
            assert res == [("r", r) for r in range(size)]
        else:
            assert res is None

