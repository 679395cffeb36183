"""Tests for the runtime protocol checks.

The sanitizer (``sanitize=True``: payload fingerprints, leak check at
shutdown) and ``DeadlockError`` are the only checker of who sends what
to whom; ``TestProtocolBugs`` is the bug corpus they must catch.
"""

import threading
import time
import warnings

import pytest

from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError, MessageLeakError, PayloadMutationError
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def cluster(n, **kw):
    kw.setdefault("cost_model", FAST)
    kw.setdefault("deadlock_timeout", 20.0)
    return SimCluster(n, **kw)


def wait_for_rank_exit(rank):
    """Block until ``SimCluster.run``'s thread for ``rank`` is gone."""
    for t in threading.enumerate():
        if t.name == f"simrank-{rank}":
            t.join()


class TestPayloadMutation:
    def test_mutate_after_send_raises(self):
        """The canonical MPI003 race, caught at runtime."""
        mutated = threading.Event()

        def fn(comm):
            if comm.rank == 0:
                payload = [1, 2, 3]
                comm.send(payload, dest=1)
                payload.append(4)  # noqa: MPI003 - deliberate race under test
                mutated.set()
                return None
            assert mutated.wait(timeout=10.0)
            return comm.recv(source=0)

        with pytest.raises(RuntimeError) as exc_info:
            cluster(2, sanitize=True).run(fn)
        assert isinstance(exc_info.value.__cause__, PayloadMutationError)

    def test_clean_exchange_passes(self):
        """...also when the sender has long returned: a rank that sends
        and then exits does not poison its receiver."""

        def fn(comm):
            if comm.rank == 0:
                comm.send({"k": [1, 2]}, dest=1)
                return None
            wait_for_rank_exit(0)
            return comm.recv(source=0)

        results, _ = cluster(2, sanitize=True).run(fn)
        assert results[1] == {"k": [1, 2]}

    def test_collectives_pass_under_sanitizer(self):
        def fn(comm):
            data = comm.bcast(list(range(8)), root=0)
            total = comm.allreduce(comm.rank)
            parts = comm.allgather(data[comm.rank % len(data)])
            return (data, total, parts)

        size = 5
        results, _ = cluster(size, sanitize=True).run(fn)
        for data, total, parts in results:
            assert data == list(range(8))
            assert total == sum(range(size))
            assert parts == [r % 8 for r in range(size)]

    def test_unpicklable_payload_skips_fingerprint(self):
        """No digest can be taken, so the sanitizer must not crash."""

        def fn(comm):
            if comm.rank == 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    comm.send(threading.Lock(), dest=1)
                return None
            received = comm.recv(source=0)
            return type(received).__name__

        results, _ = cluster(2, sanitize=True).run(fn)
        assert "lock" in results[1].lower()

    def test_mutation_not_detected_without_sanitize(self):
        """Default mode keeps the old permissive behavior."""
        mutated = threading.Event()

        def fn(comm):
            if comm.rank == 0:
                payload = [1]
                comm.send(payload, dest=1)
                payload.append(2)  # noqa: MPI003 - deliberate race under test
                mutated.set()
                return None
            assert mutated.wait(timeout=10.0)
            return comm.recv(source=0)

        results, _ = cluster(2).run(fn)
        assert results[1] == [1, 2]  # receiver observes the race silently


class TestMessageLeak:
    def test_unconsumed_message_raises_at_shutdown(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("orphan", dest=1, tag=7)

        # exactly one: the finished-rank marker behind it is not a leak
        with pytest.raises(MessageLeakError, match=r"0->1 tag 7: 1 message"):
            cluster(2, sanitize=True).run(fn)

    def test_unconsumed_message_ignored_without_sanitize(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("orphan", dest=1, tag=7)

        cluster(2).run(fn)  # no error: leak detection is opt-in

    def test_rank_error_takes_precedence_over_leak(self):
        """A failing rank reports its own error, not the leak it caused."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                raise ValueError("boom")
            comm.advance(0.0)  # rank 1 exits without receiving

        with pytest.raises(RuntimeError, match="boom"):
            cluster(2, sanitize=True).run(fn)


# -- the protocol-bug corpus ------------------------------------------------


def starved_recv(comm):
    """Rank 1 waits for a message no rank ever sends."""
    if comm.rank == 1:
        return comm.recv(source=0, tag=9)
    return None


def sync_lengths(comm, counts):
    """Every rank must call this together — it runs an allgather."""
    return comm.allgather(len(counts))


def skewed_driver(comm):
    """Only rank 0 reaches the collective, one call away."""
    if comm.rank == 0:
        return sync_lengths(comm, [1, 2])
    return None


def per_item_reduce(comm):
    """A rank-dependent number of trips around a reduce."""
    mine = [["ab", "c"], ["d"]][comm.rank]
    return [comm.reduce(len(chunk), root=0) for chunk in mine]


def pairwise_swap(comm):
    """Ranks 0 and 1 both post their recv first: classic head-to-head."""
    got = comm.recv(source=1 - comm.rank)
    comm.send(f"from-{comm.rank}", dest=1 - comm.rank)
    return got


def ring_exchange(comm):
    """All ranks recv from the left before sending right: full-ring cycle."""
    incoming = comm.recv(source=(comm.rank - 1) % comm.size)
    comm.send(incoming, dest=(comm.rank + 1) % comm.size)
    return incoming


def ship_flags(comm):
    """Rank 0 ships a dict; rank 1 uses it as a list."""
    if comm.rank == 0:
        comm.send({"trim": True}, dest=1)
        return None
    flags = comm.recv(source=0)
    flags.append("done")
    return flags


class TestProtocolBugs:
    """Each seeded protocol bug fails the run, promptly, by name.

    (An orphan send is ``TestMessageLeak``; mutate-after-send is
    ``TestPayloadMutation``.)
    """

    @pytest.mark.parametrize(
        "fn, n", [(starved_recv, 2), (skewed_driver, 2), (per_item_reduce, 2)]
    )
    def test_recv_from_finished_rank_fails_at_once(self, fn, n):
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError) as exc_info:
            cluster(n, sanitize=True, deadlock_timeout=60.0).run(fn)
        assert time.perf_counter() - t0 < 10.0
        cause = exc_info.value.__cause__
        assert isinstance(cause, DeadlockError)
        assert "exited without sending" in str(cause)

    def test_irecv_from_finished_rank_never_tests_true(self):
        def fn(comm):
            if comm.rank == 1:
                wait_for_rank_exit(0)
                req = comm.irecv(source=0)
                assert not req.test()  # the exit marker is not a message
                comm.advance(1e9)
                assert not req.test()
                req.wait()

        with pytest.raises(RuntimeError, match="exited without sending"):
            cluster(2, sanitize=True).run(fn)

    @pytest.mark.parametrize("fn, n", [(pairwise_swap, 2), (ring_exchange, 3)])
    def test_cycle_among_live_ranks_times_out(self, fn, n):
        with pytest.raises(RuntimeError) as exc_info:
            cluster(n, sanitize=True, deadlock_timeout=0.5).run(fn)
        cause = exc_info.value.__cause__
        assert isinstance(cause, DeadlockError)
        assert "timed out receiving" in str(cause)

    def test_wrong_payload_type_surfaces_the_ranks_own_error(self):
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc_info:
            cluster(2, sanitize=True).run(ship_flags)
        assert isinstance(exc_info.value.__cause__, AttributeError)
