"""The protocol-bug corpus: each seeded bug fails the run at once, by name.

The runtime is the only checker of whether every rank reaches the same
collectives.  A collective whose ranks disagree, or that a rank which
has already returned can never join, raises ``DeadlockError`` in every
rank waiting on it — with no timeout to wait out.
"""

import sys
import threading
import time

import pytest

from repro.mpi import simcomm
from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def run_bounded(n, fn, timeout=10.0):
    """``SimCluster(n).run(fn)``'s exception, or a failure if it hangs.

    The runtime has no timeout of its own, so a regression in its exit
    tracking would hang the test instead of failing it.
    """
    outcome = []

    def target():
        try:
            SimCluster(n, cost_model=FAST).run(fn)
        except RuntimeError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"ranks still waiting after {timeout} s"
    assert outcome, "the run did not fail"
    return outcome[0]


def bcast_on_rank_zero_only(comm):
    """The collective sits under a rank-dependent branch."""
    if comm.rank == 0:
        comm.bcast("x", root=0)


def sync(comm):
    """Every rank must call this together — it runs a gather."""
    comm.gather(comm.rank, root=comm.size - 1)


def gather_behind_helper_rank_zero_calls(comm):
    if comm.rank == 0:
        sync(comm)


def gather_behind_helper_other_ranks_call(comm):
    if comm.rank != 0:
        sync(comm)


def per_item_gather(comm):
    """A rank-dependent number of trips around a gather."""
    mine = [["ab", "c"], ["d"]][comm.rank]
    return [comm.gather(len(chunk), root=0) for chunk in mine]


def ship_flags(comm):
    """Rank 0 broadcasts a dict; rank 1 uses it as a list."""
    flags = comm.bcast({"trim": True} if comm.rank == 0 else None, root=0)
    if comm.rank == 1:
        flags.append("done")
    return flags


class TestProtocolBugs:
    @pytest.mark.parametrize(
        "fn, call",
        [
            (bcast_on_rank_zero_only, "rank 0 called bcast(root=0)"),
            (gather_behind_helper_rank_zero_calls, "rank 0 called gather(root=2)"),
            (gather_behind_helper_other_ranks_call, "called gather(root=2)"),
            (per_item_gather, "rank 0 called gather(root=0)"),
        ],
        ids=["bcast_rank0", "gather_helper_rank0", "gather_helper_others", "per_item_gather"],
    )
    def test_collective_a_rank_never_joins_fails_at_once(self, fn, call):
        n = 2 if fn is per_item_gather else 3
        t0 = time.perf_counter()
        error = run_bounded(n, fn)
        assert time.perf_counter() - t0 < 1.0
        cause = error.__cause__
        assert isinstance(cause, DeadlockError)
        assert call in str(cause)
        assert "exited without joining" in str(cause)

    def test_wrong_payload_type_surfaces_the_ranks_own_error(self):
        error = run_bounded(2, ship_flags)
        assert "rank 1 failed" in str(error)
        assert isinstance(error.__cause__, AttributeError)

    def test_rank_error_wins_over_the_peers_it_strands(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("partition table corrupted")
            comm.gather(comm.rank, root=0)

        assert "rank 2 failed: ValueError" in str(run_bounded(4, fn))


class TestCollectiveFailure:
    def test_error_computing_a_collective_releases_every_rank(self, monkeypatch):
        """The last arrival's failure must not leave the others waiting."""

        def broken(comms, root, cost, payloads):
            raise MemoryError("no room for the bucket")

        monkeypatch.setitem(simcomm._COLLECTIVES, "gather", broken)
        t0 = time.perf_counter()
        error = run_bounded(4, lambda comm: comm.gather(comm.rank))
        assert time.perf_counter() - t0 < 1.0
        message = str(error)
        assert "MemoryError" in message and "no room for the bucket" in message


class TestRankExit:
    def test_released_ranks_keep_their_results_when_a_peer_exits(self):
        """Exit after the last collective is not a failure.

        A rank the last arrival released may not have retaken the lock
        when a faster peer returns; it must still get its round's
        result.  A short switch interval makes that interleaving common.
        """
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            for _ in range(300):
                results, _ = SimCluster(9, cost_model=FAST).run(
                    lambda comm: comm.gather(comm.rank, root=0)
                )
                assert results == [list(range(9))] + [None] * 8
            assert time.perf_counter() - t0 < 60.0
        finally:
            sys.setswitchinterval(old)
