"""Integration tests for the simulated MPI runtime."""

import numpy as np
import pytest

from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def cluster(n, **kw):
    kw.setdefault("cost_model", FAST)
    return SimCluster(n, **kw)


class TestVirtualClock:
    def test_advance_and_compute_time(self):
        def fn(comm):
            comm.advance(1.5)
            return comm.clock

        results, stats = cluster(2).run(fn)
        assert results == [1.5, 1.5]
        assert stats.compute_times == [1.5, 1.5]
        assert stats.elapsed == 1.5

    def test_recv_waits_for_sender_clock(self):
        def fn(comm):
            if comm.rank == 0:
                comm.advance(2.0)
            yield comm.bcast("late" if comm.rank == 0 else None, root=0)
            return comm.clock

        results, _ = cluster(2).run(fn)
        # Receiver clock must jump past the sender's 2.0s of compute.
        assert results[1] >= 2.0

    def test_message_cost_added(self):
        model = CommCostModel(alpha=1.0, beta=0.0)

        def fn(comm):
            yield comm.bcast("x", root=0)
            return comm.clock

        results, _ = cluster(2, cost_model=model).run(fn)
        assert results[1] == pytest.approx(1.0)  # one alpha of latency
        assert results[0] == pytest.approx(1.0)  # the sender pays alpha too

    def test_timed_context(self):
        def fn(comm):
            with comm.timed():
                sum(range(10000))
            return comm.clock

        results, _ = cluster(1).run(fn)
        assert results[0] > 0

    def test_negative_advance_rejected(self):
        def fn(comm):
            comm.advance(-1)

        with pytest.raises(RuntimeError):
            cluster(1).run(fn)

    def test_stats_bytes(self):
        def fn(comm):
            yield comm.bcast(np.zeros(1000, dtype=np.uint8), root=0)

        _, stats = cluster(2).run(fn)
        assert stats.bytes_sent == [1000 + 96, 0]  # data + ndarray header
        assert stats.messages_sent == [1, 0]


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
    def test_bcast(self, size):
        def fn(comm):
            data = {"v": 7} if comm.rank == 0 else None
            return (yield comm.bcast(data, root=0))

        results, _ = cluster(size).run(fn)
        assert all(r == {"v": 7} for r in results)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        def fn(comm):
            data = "hello" if comm.rank == root else None
            return (yield comm.bcast(data, root=root))

        results, _ = cluster(3).run(fn)
        assert results == ["hello"] * 3

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_gather(self, size):
        def fn(comm):
            return (yield comm.gather(comm.rank * 10, root=0))

        results, _ = cluster(size).run(fn)
        assert results[0] == [r * 10 for r in range(size)]
        assert all(r is None for r in results[1:])

    def test_gather_nonzero_root(self):
        def fn(comm):
            return (yield comm.gather(chr(ord("a") + comm.rank), root=2))

        results, _ = cluster(4).run(fn)
        assert results[2] == ["a", "b", "c", "d"]

    def test_collective_cost_scales_logarithmically(self):
        model = CommCostModel(alpha=1.0, beta=0.0)

        def fn(comm):
            yield comm.bcast("x", root=0)
            return comm.clock

        _, stats8 = cluster(8, cost_model=model).run(fn)
        # Binomial tree: depth 3 for 8 ranks -> last receiver ~3 alphas,
        # far less than the 7 alphas of a flat root-sends-all.
        assert stats8.elapsed <= 4.0


class TestCluster:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimCluster(0)

    def test_results_ordered_by_rank(self):
        def fn(comm):
            return comm.rank

        results, _ = cluster(5).run(fn)
        assert results == [0, 1, 2, 3, 4]

    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return 1

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            cluster(3).run(fn)

    def test_fixed_costs_give_equal_stats_on_every_run(self):
        def fn(comm):
            comm.advance(1e-3 * (comm.rank % 3 + 1))
            gathered = yield comm.gather([comm.rank] * comm.rank, root=1)
            comm.advance(2e-3 if comm.rank == 1 else 0.0)
            return (yield comm.bcast(gathered, root=1))

        first = cluster(6).run(fn)
        assert first == cluster(6).run(fn)
        assert first[1].elapsed > 3e-3

    def test_kwargs_passed(self):
        def fn(comm, base, scale=1):
            return base + comm.rank * scale

        results, _ = cluster(3).run(fn, 10, scale=2)
        assert results == [10, 12, 14]


class TestErrorContext:
    """A collective that can never complete fails at once, by name.

    The message names the waiting ranks, their calls, and the ranks
    that exited or disagreed.
    """

    def test_finished_peer_message_names_ranks_and_collective(self):
        def fn(comm):
            if comm.rank == 1:
                comm.advance(1.5)
                yield comm.gather(comm.rank, root=0)

        with pytest.raises(DeadlockError) as ei:
            cluster(2).run(fn)
        message = str(ei.value)
        assert "rank 1 called gather(root=0)" in message
        assert "rank 0 exited without joining" in message

    def test_disagreeing_ranks_are_named(self):
        def fn(comm):
            if comm.rank == 0:
                yield comm.bcast("x", root=0)
            else:
                yield comm.gather(comm.rank, root=0)

        with pytest.raises(DeadlockError) as ei:
            cluster(4).run(fn)
        message = str(ei.value)
        assert "ranks disagree on the collective" in message
        assert "rank 0 called bcast(root=0)" in message
        assert "called gather(root=0)" in message

    def test_different_roots_disagree(self):
        def fn(comm):
            return (yield comm.bcast(comm.rank, root=comm.rank % 2))

        with pytest.raises(DeadlockError, match="disagree") as ei:
            cluster(2).run(fn)
        assert "rank 0 called bcast(root=0)" in str(ei.value)
        assert "rank 1 called bcast(root=1)" in str(ei.value)

    def test_root_out_of_range(self):
        def fn(comm):
            return (yield comm.gather(1, root=comm.size))

        with pytest.raises(RuntimeError, match="root 3 out of range"):
            cluster(3).run(fn)
