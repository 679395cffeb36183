"""Stress and property tests for the simulated MPI runtime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def cluster(n):
    return SimCluster(n, cost_model=FAST)


class TestManyRanks:
    def test_sixteen_rank_allgather(self):
        def fn(comm):
            return comm.allgather(comm.rank)

        results, _ = cluster(16).run(fn)
        assert results == [list(range(16))] * 16

    def test_large_array_bcast(self):
        def fn(comm):
            data = np.arange(100_000, dtype=np.int64) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            return int(out.sum())

        results, stats = cluster(8).run(fn)
        assert len(set(results)) == 1
        # 800 KB payload: beta term must register on the clocks.
        assert stats.elapsed > 0

    def test_chained_collectives(self):
        def fn(comm):
            x = comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
            y = comm.allgather(x + comm.rank)
            z = comm.gather(sum(y), root=0)
            comm.barrier()
            return z and sum(z)

        results, _ = cluster(6).run(fn)
        expect = sum(range(6)) * 6
        assert results[0] == expect
        assert all(r is None for r in results[1:])


class TestClockProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=6))
    def test_barrier_clock_is_max(self, works):
        def fn(comm):
            comm.advance(works[comm.rank])
            comm.barrier()
            return comm.clock

        results, _ = SimCluster(len(works), cost_model=FAST).run(fn)
        assert all(c >= max(works) - 1e-12 for c in results)

    def test_clock_monotone_through_operations(self):
        def fn(comm):
            marks = [comm.clock]
            comm.advance(0.1)
            marks.append(comm.clock)
            comm.barrier()
            marks.append(comm.clock)
            x = comm.allgather(comm.rank)
            marks.append(comm.clock)
            assert x == list(range(comm.size))
            return marks

        results, _ = cluster(4).run(fn)
        for marks in results:
            assert marks == sorted(marks)

    def test_compute_time_excludes_comm_wait(self):
        def fn(comm):
            if comm.rank == 0:
                comm.advance(1.0)
            comm.bcast("x", root=0)  # rank 1 waits a virtual second
            return comm.compute_time

        results, _ = cluster(2).run(fn)
        assert results[0] == pytest.approx(1.0)
        assert results[1] == pytest.approx(0.0)  # waiting is not compute

    def test_elapsed_at_least_per_rank_compute(self):
        def fn(comm):
            comm.advance(0.2 * (comm.rank + 1))
            comm.barrier()

        _, stats = cluster(5).run(fn)
        assert stats.elapsed >= 1.0 - 1e-9  # slowest rank did 1.0s
        assert stats.total_compute == pytest.approx(0.2 * (1 + 2 + 3 + 4 + 5))
