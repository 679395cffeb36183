"""SimComm: the per-rank communicator of the simulated MPI runtime.

The program's distributed stages call two collectives, with the
mpi4py lowercase (pickle-object) signatures: ``gather`` and ``bcast``.
They are the whole communication surface.

A rank program is a generator that *yields* each collective and
receives its result: ``gathered = yield comm.gather(proposal, root=0)``.
``gather`` and ``bcast`` only describe the call;
:class:`~repro.mpi.cluster.SimCluster` advances every rank to its next
collective, checks that all ranks made the same call, and computes
every rank's result and new clock in one step (:func:`_complete`).

Every rank carries a *virtual clock*:

- ``timed()`` measures a compute block with the thread's CPU time and
  adds the measured seconds;
- ``advance(dt)`` adds model time directly (for deterministic tests
  and for replaying pre-measured task durations);
- a collective moves the clocks as its binomial tree of alpha-beta
  messages would: a send charges its sender ``alpha``; a message sent
  at sender clock ``t`` arrives at ``t + alpha + beta * bytes``; the
  receiver's clock becomes ``max(own clock, arrival)``.

A collective that can never complete fails at once with a
:class:`DeadlockError` naming the ranks and their calls: either the
ranks called different collectives (or roots), or a rank has returned
and so will never arrive.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

from repro.mpi.timing import CommCostModel, payload_nbytes

__all__ = ["SimComm", "DeadlockError"]


class DeadlockError(RuntimeError):
    """A collective can never complete.

    The ranks called different collectives (or the same one with
    different roots), or a rank that must take part has already
    returned.
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


class _Call(NamedTuple):
    """One rank's collective call: what a rank program yields."""

    name: str
    root: int
    payload: object

    def __str__(self) -> str:
        return f"{self.name}(root={self.root})"


def _complete(comms, calls: dict, cost: CommCostModel) -> list:
    """Every rank's result of one collective, given each rank's call.

    ``calls`` maps rank to the :class:`_Call` it yielded; a rank missing
    from it has returned.  Raises :class:`DeadlockError` naming every
    rank's call when the ranks disagree or one has returned.
    """
    by_call: dict[str, list[int]] = {}
    for rank, call in calls.items():
        by_call.setdefault(str(call), []).append(rank)
    described = "; ".join(f"{_ranks(r)} called {call}" for call, r in by_call.items())
    if len(by_call) > 1:
        raise DeadlockError(f"ranks disagree on the collective: {described}")
    if len(calls) < len(comms):
        exited = set(range(len(comms))) - set(calls)
        raise DeadlockError(f"{described}, which {_ranks(exited)} exited without joining")
    name, root, _ = calls[0]
    return _COLLECTIVES[name](comms, root, cost, [calls[r].payload for r in range(len(comms))])


class SimComm:
    """Communicator handle held by one rank."""

    def __init__(self, rank: int, size: int) -> None:
        if not 0 <= rank < size:
            raise ValueError("rank out of range")
        self.rank = rank
        self.size = size
        #: the collective called and not yet yielded.
        self._call: _Call | None = None
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

        Uses the calling thread's CPU time (``time.thread_time``), not
        wall time: ranks run one after another on one thread, so the
        block's CPU time is this rank's work alone, which is what a
        dedicated core would have taken, whatever else the host runs.
        """
        t0 = time.thread_time()
        try:
            yield
        finally:
            self.advance(time.thread_time() - t0)

    # -- collectives -----------------------------------------------------------

    def _collective(self, name: str, root: int, payload) -> _Call:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range (size {self.size})")
        if self._call is not None:
            raise RuntimeError(f"{name}(root={root}) called before {self._call} was yielded")
        self._call = _Call(name, root, payload)
        return self._call

    def _take_call(self, yielded) -> _Call:
        """The call the rank program just yielded, checked and cleared."""
        call, self._call = self._call, None
        if call is None or yielded is not call:
            raise TypeError(f"yielded {yielded!r}, not the result of gather() or bcast()")
        return call

    def bcast(self, obj, root: int = 0) -> _Call:
        """Binomial-tree broadcast; yields the root's object on every rank."""
        return self._collective("bcast", root, obj)

    def gather(self, obj, root: int = 0) -> _Call:
        """Binomial-tree gather; yields the rank-ordered list on root, None elsewhere."""
        return self._collective("gather", root, obj)
