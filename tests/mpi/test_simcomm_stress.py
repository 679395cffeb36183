"""Stress and property tests for the simulated MPI runtime."""

import numpy as np
import pytest

from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def cluster(n):
    return SimCluster(n, cost_model=FAST)


class TestManyRanks:
    def test_sixteen_rank_gather(self):
        def fn(comm):
            return (yield comm.gather(comm.rank, root=0))

        results, _ = cluster(16).run(fn)
        assert results == [list(range(16))] + [None] * 15

    def test_large_array_bcast(self):
        def fn(comm):
            data = np.arange(100_000, dtype=np.int64) if comm.rank == 0 else None
            out = yield comm.bcast(data, root=0)
            return int(out.sum())

        results, stats = cluster(8).run(fn)
        assert len(set(results)) == 1
        # 800 KB payload: beta term must register on the clocks.
        assert stats.elapsed > 0

    def test_chained_collectives(self):
        def fn(comm):
            x = yield comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
            y = yield comm.bcast((yield comm.gather(x + comm.rank, root=0)), root=0)
            z = yield comm.gather(sum(y), root=0)
            yield comm.bcast(None, root=comm.size - 1)
            return z and sum(z)

        results, _ = cluster(6).run(fn)
        expect = sum(range(6)) * 6
        assert results[0] == expect
        assert all(r is None for r in results[1:])


class TestClockProperties:
    def test_clock_monotone_through_operations(self):
        def fn(comm):
            marks = [comm.clock]
            comm.advance(0.1)
            marks.append(comm.clock)
            yield comm.gather(comm.rank, root=comm.size - 1)
            marks.append(comm.clock)
            x = yield comm.bcast(list(range(comm.size)) if comm.rank == 0 else None, root=0)
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
            yield comm.bcast("x", root=0)  # rank 1 waits a virtual second
            return comm.compute_time

        results, _ = cluster(2).run(fn)
        assert results[0] == pytest.approx(1.0)
        assert results[1] == pytest.approx(0.0)  # waiting is not compute

    def test_elapsed_at_least_per_rank_compute(self):
        def fn(comm):
            comm.advance(0.2 * (comm.rank + 1))
            yield comm.gather(comm.rank, root=0)

        _, stats = cluster(5).run(fn)
        assert stats.elapsed >= 1.0 - 1e-9  # slowest rank did 1.0s
