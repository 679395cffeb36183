"""SimComm: the per-rank communicator of the simulated MPI runtime.

The program's distributed stages call two collectives, with the
mpi4py lowercase (pickle-object) signatures: ``gather`` and ``bcast``.
They are the whole communication surface.

Each collective is one rendezvous.  Every rank deposits its call (the
collective's name and root) and its payload, then blocks.  The last
rank to arrive checks that all ranks made the same call, computes every
rank's result and new clock, and releases the others.  Payloads change
hands only while every rank is blocked.

Every rank carries a *virtual clock*:

- ``timed()`` measures a compute block with per-thread CPU time and
  adds the measured seconds;
- ``advance(dt)`` adds model time directly (for deterministic tests
  and for replaying pre-measured task durations);
- a collective moves the clocks as its binomial tree of alpha-beta
  messages would: a send charges its sender ``alpha``; a message sent
  at sender clock ``t`` arrives at ``t + alpha + beta * bytes``; the
  receiver's clock becomes ``max(own clock, arrival)``.

A collective that can never complete fails at once, in every rank
waiting on it, with a :class:`DeadlockError` naming the ranks and their
calls: either the ranks called different collectives (or roots), or a
rank has returned or raised and so will never arrive.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.mpi.timing import CommCostModel, payload_nbytes

__all__ = ["SimComm", "DeadlockError"]


class DeadlockError(RuntimeError):
    """A collective can never complete.

    The ranks called different collectives (or the same one with
    different roots), or a rank that must take part has already
    returned or raised.
    """


def _ranks(ranks) -> str:
    ranks = sorted(ranks)
    return f"rank{'s' if len(ranks) > 1 else ''} {', '.join(map(str, ranks))}"


def _message(sender: "SimComm", receiver: "SimComm", nbytes: int, cost) -> None:
    """Charge one point-to-point message of ``nbytes`` to both clocks."""
    arrival = sender.clock + cost.message_cost(nbytes)
    sender.clock += cost.alpha
    sender.bytes_sent += nbytes
    sender.messages_sent += 1
    receiver.clock = max(receiver.clock, arrival)


def _up_tree(comms, root, cost, acc) -> None:
    """Binomial-tree gather toward ``root``, in place on ``acc``.

    ``acc[v]`` is virtual rank ``v``'s bucket of payloads keyed by
    virtual rank (``v = (rank - root) % size``).  In round ``mask``
    every ``v`` with ``v % (2 * mask) == mask`` sends its bucket to ``v
    - mask``, which merges it; afterwards ``acc[0]`` holds every payload.
    """
    size = len(comms)
    mask = 1
    while mask < size:
        for v in range(0, size - mask, 2 * mask):
            _message(
                comms[(v + mask + root) % size],
                comms[(v + root) % size],
                payload_nbytes(acc[v + mask]),
                cost,
            )
            acc[v].update(acc[v + mask])
        mask <<= 1


def _down_tree(comms, root, cost, obj) -> None:
    """Binomial-tree broadcast of ``obj`` from ``root``.

    In round ``mask`` every virtual rank ``v < mask`` sends to ``v +
    mask``.
    """
    size = len(comms)
    nbytes = payload_nbytes(obj) if size > 1 else 0
    mask = 1
    while mask < size:
        for v in range(min(mask, size - mask)):
            _message(comms[(v + root) % size], comms[(v + mask + root) % size], nbytes, cost)
        mask <<= 1


def _gather(comms, root, cost, payloads) -> list:
    size = len(comms)
    # Buckets are keyed by virtual rank, as the messages of a real
    # binomial gather are, so the byte counts are those messages'.
    acc = [{v: payloads[(v + root) % size]} for v in range(size)]
    _up_tree(comms, root, cost, acc)
    out = [acc[0][(r - root) % size] for r in range(size)]
    return [out if r == root else None for r in range(size)]


def _bcast(comms, root, cost, payloads) -> list:
    obj = payloads[root]
    _down_tree(comms, root, cost, obj)
    return [obj] * len(comms)


_COLLECTIVES = {"gather": _gather, "bcast": _bcast}


class _Round:
    """One collective generation: the calls deposited and its outcome."""

    __slots__ = ("calls", "results", "error")

    def __init__(self) -> None:
        #: rank -> ((collective name, root), payload, communicator).
        self.calls: dict[int, tuple] = {}
        self.results: list | None = None
        self.error: str | None = None


class _Rendezvous:
    """The meeting point of one cluster run's ranks.

    Rank exits are tracked here, not by aborting a
    ``threading.Barrier``: a waiter that a completed round has released
    but that has not yet retaken the lock must still see that round's
    results, whatever fails after it.  So each waiter holds its own
    :class:`_Round`, and only the current round can fail.
    """

    def __init__(self, size: int, cost: CommCostModel) -> None:
        self.size = size
        self.cost = cost
        self._cond = threading.Condition()
        self._round = _Round()
        self._exited: set[int] = set()

    def join(self, comm: "SimComm", name: str, root: int, payload):
        with self._cond:
            rnd = self._round
            first = next(iter(rnd.calls.values()), None)
            rnd.calls[comm.rank] = ((name, root), payload, comm)
            if self._exited or (first is not None and first[0] != (name, root)):
                self._fail(rnd)
            elif len(rnd.calls) == self.size:
                # Should this raise, the rank's exit fails the round and
                # so releases the others.
                calls = [rnd.calls[r] for r in range(self.size)]
                rnd.results = _COLLECTIVES[name](
                    [c[2] for c in calls], root, self.cost, [c[1] for c in calls]
                )
                self._round = _Round()
                self._cond.notify_all()
            self._cond.wait_for(lambda: rnd.results is not None or rnd.error is not None)
            if rnd.error is not None:
                raise DeadlockError(f"rank {comm.rank}: {rnd.error}")
            return rnd.results[comm.rank]

    def exit(self, rank: int) -> None:
        """Rank ``rank`` has returned or raised: it joins no collective again."""
        with self._cond:
            self._exited.add(rank)
            if self._round.calls:
                self._fail(self._round)

    def _fail(self, rnd: _Round) -> None:
        """End ``rnd`` with an error naming every rank's call, and wake its waiters."""
        by_call: dict[tuple[str, int], list[int]] = {}
        for rank, (call, _payload, _comm) in rnd.calls.items():
            by_call.setdefault(call, []).append(rank)
        calls = "; ".join(
            f"{_ranks(r)} called {name}(root={root})" for (name, root), r in by_call.items()
        )
        if len(by_call) > 1:
            rnd.error = f"ranks disagree on the collective: {calls}"
        else:
            rnd.error = f"{calls}, which {_ranks(self._exited)} exited without joining"
        self._round = _Round()
        self._cond.notify_all()


class SimComm:
    """Communicator handle held by one rank (thread)."""

    def __init__(self, rank: int, size: int, rendezvous: _Rendezvous) -> None:
        if not 0 <= rank < size:
            raise ValueError("rank out of range")
        self.rank = rank
        self.size = size
        self._rendezvous = rendezvous
        #: virtual seconds elapsed on this rank.
        self.clock = 0.0
        #: virtual seconds spent purely computing (subset of clock).
        self.compute_time = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- virtual clock -------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Add model compute time to this rank's clock."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.clock += seconds
        self.compute_time += seconds

    @contextmanager
    def timed(self):
        """Measure the wrapped compute block and charge it to the clock.

        Uses per-thread CPU time (``time.thread_time``), not wall time:
        ranks are threads sharing a GIL, and wall time would charge a
        rank for the time *other* ranks spent computing, flattening
        every speedup curve to 1.  CPU time measures the work this rank
        actually did, which is what a dedicated core would have taken.
        """
        t0 = time.thread_time()
        try:
            yield
        finally:
            self.advance(time.thread_time() - t0)

    # -- collectives -----------------------------------------------------------

    def _collective(self, name: str, root: int, payload):
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range (size {self.size})")
        return self._rendezvous.join(self, name, root, payload)

    def bcast(self, obj, root: int = 0):
        """Binomial-tree broadcast; returns the root's object on every rank."""
        return self._collective("bcast", root, obj)

    def gather(self, obj, root: int = 0):
        """Binomial-tree gather; root gets the rank-ordered list, others None."""
        return self._collective("gather", root, obj)
