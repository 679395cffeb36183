"""The protocol-bug corpus: each seeded bug fails the run at once, by name.

The runtime is the only checker of whether every rank reaches the same
collectives.  A collective whose ranks disagree, or that a rank which
has already returned can never join, raises ``DeadlockError`` from
``SimCluster.run`` in the step that reaches it.
"""

import pytest

from repro.mpi import simcomm
from repro.mpi.cluster import SimCluster
from repro.mpi.simcomm import DeadlockError
from repro.mpi.timing import CommCostModel

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def run_failing(n, fn):
    """``SimCluster(n).run(fn)``'s exception; the run must fail."""
    with pytest.raises(RuntimeError) as ei:
        SimCluster(n, cost_model=FAST).run(fn)
    return ei.value


def bcast_on_rank_zero_only(comm):
    """The collective sits under a rank-dependent branch."""
    if comm.rank == 0:
        yield comm.bcast("x", root=0)


def sync(comm):
    """Every rank must call this together — it runs a gather."""
    yield comm.gather(comm.rank, root=comm.size - 1)


def gather_behind_helper_rank_zero_calls(comm):
    if comm.rank == 0:
        yield from sync(comm)


def gather_behind_helper_other_ranks_call(comm):
    if comm.rank != 0:
        yield from sync(comm)


def per_item_gather(comm):
    """A rank-dependent number of trips around a gather."""
    mine = [["ab", "c"], ["d"]][comm.rank]
    sizes = []
    for chunk in mine:
        sizes.append((yield comm.gather(len(chunk), root=0)))
    return sizes


def ship_flags(comm):
    """Rank 0 broadcasts a dict; rank 1 uses it as a list."""
    flags = yield comm.bcast({"trim": True} if comm.rank == 0 else None, root=0)
    if comm.rank == 1:
        flags.append("done")
    return flags


def gather_without_yield(comm):
    """A blocking-style call: the gather is described but never yielded."""
    return comm.gather(comm.rank, root=0)


def second_call_before_the_yield(comm):
    """The gather is described, then overtaken by a yielded bcast."""
    comm.gather(comm.rank, root=0)
    yield comm.bcast(None, root=0)


def yield_a_value(comm):
    """A yield that is not a collective call."""
    yield comm.rank


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
        error = run_failing(n, fn)
        assert isinstance(error, DeadlockError)
        assert call in str(error)
        assert "exited without joining" in str(error)

    def test_wrong_payload_type_surfaces_the_ranks_own_error(self):
        error = run_failing(2, ship_flags)
        assert "rank 1 failed" in str(error)
        assert isinstance(error.__cause__, AttributeError)

    def test_rank_error_wins_over_the_peers_it_strands(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("partition table corrupted")
            yield comm.gather(comm.rank, root=0)

        assert "rank 2 failed: ValueError" in str(run_failing(4, fn))

    @pytest.mark.parametrize(
        "fn, message",
        [
            (gather_without_yield, "returned without yielding gather(root=0)"),
            (second_call_before_the_yield, "bcast(root=0) called before gather(root=0) was yielded"),
        ],
        ids=["returned", "second_call"],
    )
    def test_collective_called_but_not_yielded_fails(self, fn, message):
        error = run_failing(2, fn)
        assert "rank 0 failed" in str(error)
        assert message in str(error)

    def test_yield_of_a_non_collective_fails(self):
        error = run_failing(2, yield_a_value)
        assert "rank 0 failed: TypeError" in str(error)
        assert "not the result of gather() or bcast()" in str(error)


class TestCollectiveFailure:
    def test_error_computing_a_collective_releases_every_rank(self, monkeypatch):
        """A failure computing the collective ends the run with that error."""

        def broken(comms, root, cost, payloads):
            raise MemoryError("no room for the bucket")

        monkeypatch.setitem(simcomm._COLLECTIVES, "gather", broken)

        def fn(comm):
            return (yield comm.gather(comm.rank))

        with pytest.raises(MemoryError, match="no room for the bucket"):
            SimCluster(4, cost_model=FAST).run(fn)
