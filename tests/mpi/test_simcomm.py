"""Integration tests for the simulated MPI runtime."""

import threading
import time

import numpy as np
import pytest

from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def cluster(n, **kw):
    kw.setdefault("cost_model", FAST)
    kw.setdefault("deadlock_timeout", 5.0)
    return SimCluster(n, **kw)


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1)
                return None
            return comm.recv(source=0)

        results, _ = cluster(2).run(fn)
        assert results[1] == {"x": 42}

    def test_numpy_payload(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(100), dest=1)
                return None
            return comm.recv(source=0)

        results, _ = cluster(2).run(fn)
        assert (results[1] == np.arange(100)).all()

    def test_tags_separate_streams(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        results, _ = cluster(2).run(fn)
        assert results[1] == ("a", "b")

    def test_fifo_per_channel(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        results, _ = cluster(2).run(fn)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_self_send_rejected(self):
        def fn(comm):
            comm.send(1, dest=comm.rank)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            cluster(1).run(fn)

    def test_deadlock_detected(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0)

        with pytest.raises(RuntimeError, match="failed"):
            cluster(2, deadlock_timeout=0.2).run(fn)


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
                comm.send("late", dest=1)
                return comm.clock
            comm.recv(source=0)
            return comm.clock

        results, _ = cluster(2).run(fn)
        # Receiver clock must jump past the sender's 2.0s of compute.
        assert results[1] >= 2.0

    def test_message_cost_added(self):
        model = CommCostModel(alpha=1.0, beta=0.0)

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                return comm.clock
            comm.recv(source=0)
            return comm.clock

        results, _ = cluster(2, cost_model=model).run(fn)
        assert results[1] == pytest.approx(1.0)  # one alpha of latency

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
            if comm.rank == 0:
                comm.send(np.zeros(1000, dtype=np.uint8), dest=1)
            else:
                comm.recv(source=0)

        _, stats = cluster(2).run(fn)
        assert stats.bytes_sent[0] >= 1000
        assert stats.messages_sent[0] == 1


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
    def test_bcast(self, size):
        def fn(comm):
            data = {"v": 7} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        results, _ = cluster(size).run(fn)
        assert all(r == {"v": 7} for r in results)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        def fn(comm):
            data = "hello" if comm.rank == root else None
            return comm.bcast(data, root=root)

        results, _ = cluster(3).run(fn)
        assert results == ["hello"] * 3

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_gather(self, size):
        def fn(comm):
            return comm.gather(comm.rank * 10, root=0)

        results, _ = cluster(size).run(fn)
        assert results[0] == [r * 10 for r in range(size)]
        assert all(r is None for r in results[1:])

    def test_gather_nonzero_root(self):
        def fn(comm):
            return comm.gather(chr(ord("a") + comm.rank), root=2)

        results, _ = cluster(4).run(fn)
        assert results[2] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("size", [1, 2, 4, 6])
    def test_scatter(self, size):
        def fn(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        results, _ = cluster(size).run(fn)
        assert results == [f"item{i}" for i in range(size)]

    def test_scatter_wrong_count(self):
        def fn(comm):
            return comm.scatter([1], root=0)

        with pytest.raises(RuntimeError):
            cluster(2).run(fn)

    @pytest.mark.parametrize("size", [1, 3, 4, 8])
    def test_allgather(self, size):
        def fn(comm):
            return comm.allgather(comm.rank)

        results, _ = cluster(size).run(fn)
        assert all(r == list(range(size)) for r in results)

    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_reduce_sum(self, size):
        def fn(comm):
            return comm.reduce(comm.rank + 1, root=0)

        results, _ = cluster(size).run(fn)
        assert results[0] == size * (size + 1) // 2

    def test_reduce_custom_op(self):
        def fn(comm):
            return comm.reduce(comm.rank, op=max, root=0)

        results, _ = cluster(6).run(fn)
        assert results[0] == 5

    def test_reduce_binomial_order_nonzero_root(self):
        """Pins the documented op order: a left fold over *vrank* order.

        String concatenation is associative but not commutative, so the
        result exposes the operand order: with root=1 on 3 ranks the
        vrank order is (1, 2, 0), not rank order (0, 1, 2).
        """

        def fn(comm):
            return comm.reduce(str(comm.rank), op=lambda a, b: a + b, root=1)

        results, _ = cluster(3).run(fn)
        assert results[1] == "120"  # NOT "012": vrank order starts at the root

    def test_reduce_binomial_order_nonassociative_op(self):
        """Pins the tree grouping for a non-associative op (subtraction).

        On 4 ranks the binomial tree computes (0-1) - (2-3) = 0, which
        differs from the sequential left fold ((0-1)-2)-3 = -6 — the
        same contract as MPI_Reduce with a non-associative op.
        """

        def fn(comm):
            return comm.reduce(comm.rank, op=lambda a, b: a - b, root=0)

        results, _ = cluster(4).run(fn)
        assert results[0] == 0
        assert results[0] != ((0 - 1) - 2) - 3

    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_allreduce(self, size):
        def fn(comm):
            return comm.allreduce(1)

        results, _ = cluster(size).run(fn)
        assert results == [size] * size

    def test_barrier_synchronises_clocks(self):
        def fn(comm):
            comm.advance(float(comm.rank))  # rank r computes r seconds
            comm.barrier()
            return comm.clock

        results, _ = cluster(4).run(fn)
        assert all(c >= 3.0 for c in results)

    def test_collective_cost_scales_logarithmically(self):
        model = CommCostModel(alpha=1.0, beta=0.0)

        def fn(comm):
            comm.bcast("x", root=0)
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

    def test_kwargs_passed(self):
        def fn(comm, base, scale=1):
            return base + comm.rank * scale

        results, _ = cluster(3).run(fn, 10, scale=2)
        assert results == [10, 12, 14]


class TestErrorContext:
    """Timeout/fault errors must carry enough context to debug a hang.

    Regression guard for the diagnosable DeadlockError format: the
    message names the waiting rank, the peer, the tag, the timeout,
    and the virtual time at which the wait gave up.
    """

    def test_timeout_message_names_rank_peer_tag_and_time(self):
        gave_up = threading.Event()

        def fn(comm):
            if comm.rank == 1:
                comm.advance(1.5)
                try:
                    comm.recv(source=0, tag=7)
                finally:
                    gave_up.set()
            else:
                gave_up.wait(timeout=10.0)  # a live but silent peer

        with pytest.raises(RuntimeError, match="rank 1 failed") as ei:
            cluster(2, deadlock_timeout=0.2).run(fn)
        message = str(ei.value)
        assert "timed out receiving from rank 0" in message
        assert "tag 7" in message
        assert "after 0.2s" in message
        assert "virtual time 1.5" in message

    def test_finished_peer_message_names_rank_peer_tag_and_time(self):
        """A recv from a rank that already returned fails at once."""

        def fn(comm):
            if comm.rank == 1:
                comm.advance(1.5)
                comm.recv(source=0, tag=7)

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 1 failed") as ei:
            cluster(2, deadlock_timeout=30.0).run(fn)
        assert time.perf_counter() - t0 < 5.0
        assert isinstance(ei.value.__cause__, DeadlockError)
        message = str(ei.value)
        assert "rank 1: rank 0 exited without sending" in message
        assert "tag 7" in message
        assert "virtual time 1.5" in message
