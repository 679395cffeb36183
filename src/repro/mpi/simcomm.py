"""SimComm: the per-rank communicator of the simulated MPI runtime.

Mirrors the mpi4py lowercase (generic-object) API from the tutorial:
``send``/``recv``, ``bcast``, ``scatter``, ``gather``, ``allgather``,
``reduce``, ``allreduce``, ``barrier``.  Collectives are built from
point-to-point messages along binomial trees, so their virtual cost
scales O(log p) like a real MPI implementation's.

Every rank carries a *virtual clock*:

- ``timed()`` measures a compute block with ``perf_counter`` and adds
  the measured seconds;
- ``advance(dt)`` adds model time directly (for deterministic tests
  and for replaying pre-measured task durations);
- a message sent at sender-clock ``t`` becomes available at
  ``t + alpha + beta * bytes``; the receiver's clock jumps to
  ``max(own clock, available_at)``.
"""

from __future__ import annotations

import hashlib
import pickle
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.mpi.timing import CommCostModel, payload_nbytes

__all__ = [
    "SimComm",
    "SimRequest",
    "DeadlockError",
    "PayloadMutationError",
    "MessageLeakError",
    "COLLECTIVE_TAG_BASE",
    "COLLECTIVE_TAG_SPAN",
]

#: tag space reserved for internal collective traffic.  Each collective
#: claims a distinct offset below the base so concurrent collectives on
#: the same channel never cross-match: bcast 0, gather 1, scatter 2,
#: allgather 3/4 (gather+bcast legs), reduce 5, allreduce 6/7
#: (reduce+bcast legs), alltoall 8.  The MPI002 lint rule derives its
#: reserved window from these two constants — extend the span here
#: when a new collective claims a deeper offset.
COLLECTIVE_TAG_BASE = -1000
#: number of distinct internal tags below (and including) the base.
COLLECTIVE_TAG_SPAN = 9

#: backwards-compatible private alias (pre-dates the public constants).
_COLLECTIVE_TAG_BASE = COLLECTIVE_TAG_BASE


class DeadlockError(RuntimeError):
    """A recv can never complete.

    Either its source rank has already returned or raised without
    sending the message (reported at once), or the wait outlived the
    runtime's deadlock timeout (a cycle among live ranks).
    """


class PayloadMutationError(RuntimeError):
    """A sanitized payload changed between ``send`` and ``recv``.

    Sends are eager: the object *reference* crosses rank threads
    immediately, so the sender mutating it afterwards races with the
    receiver — exactly the bug class the MPI003 lint rule flags
    statically.  Raised only under ``sanitize=True``.
    """


class MessageLeakError(RuntimeError):
    """Messages were still sitting in mailboxes at cluster shutdown.

    A leak means a send had no matching receive — a mismatched tag, a
    wrong peer rank, or an algorithm that exited early.  Raised only
    under ``sanitize=True``.
    """


def _fingerprint(obj) -> bytes | None:
    """Stable digest of a payload's pickled bytes (None if unpicklable)."""
    try:
        return hashlib.blake2b(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), digest_size=16
        ).digest()
    except Exception:
        return None


@dataclass
class _Message:
    payload: object
    available_at: float
    #: sanitizer fingerprint taken at send time (None when disabled
    #: or the payload is unpicklable).
    digest: bytes | None = None


#: marker a finished rank leaves behind the last real message of each
#: of its outgoing mailboxes.  Never available in model time, so
#: ``SimRequest.test()`` keeps reporting False on it.
_PEER_EXITED = _Message(None, float("inf"))


class _Channels:
    """Shared mailbox fabric: one FIFO per (src, dst, tag)."""

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int, int], queue.Queue] = {}
        self._finished: set[int] = set()
        self._lock = threading.Lock()

    def get(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._lock:
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.Queue()
                if src in self._finished:
                    q.put(_PEER_EXITED)
            return q

    def finish(self, rank: int) -> None:
        """Rank ``rank`` has returned or raised: it will never send again.

        Every receive that reaches the end of one of its mailboxes from
        now on fails at once instead of waiting out the deadlock timeout.
        """
        with self._lock:
            self._finished.add(rank)
            for (src, _dst, _tag), q in self._queues.items():
                if src == rank:
                    q.put(_PEER_EXITED)

    def peek(self, src: int, dst: int, tag: int) -> _Message | None:
        """Head message of a channel without consuming it."""
        q = self.get(src, dst, tag)
        with q.mutex:
            return q.queue[0] if q.queue else None

    def unconsumed(self) -> list[tuple[int, int, int, int]]:
        """``(src, dst, tag, count)`` for every non-empty mailbox."""
        with self._lock:
            report = []
            for (src, dst, tag), q in sorted(self._queues.items()):
                with q.mutex:
                    n = sum(m is not _PEER_EXITED for m in q.queue)
                if n:
                    report.append((src, dst, tag, n))
            return report


class SimRequest:
    """Handle for a nonblocking operation (mpi4py ``Request`` analogue).

    ``wait()`` completes the operation: for an ``irecv`` it blocks for
    the message and returns the payload; for an ``isend`` (eager in
    this runtime) it returns immediately.
    """

    def __init__(self, comm: "SimComm", kind: str, source: int | None = None, tag: int = 0):
        self._comm = comm
        self._kind = kind
        self._source = source
        self._tag = tag
        self._done = kind == "send"
        self._value = None

    def test(self) -> bool:
        """True once the operation has completed *in model time*.

        Consistent with ``recv`` semantics: a message only counts as
        arrived once the receiver's virtual clock has reached its
        ``available_at`` (send clock + alpha + beta * bytes).  A message
        physically enqueued but still "in flight" in model time reports
        False — poll again after ``advance()``/``timed()`` work, the
        way a real rank overlaps compute with an outstanding irecv.
        """
        if self._done:
            return True
        msg = self._comm._channels.peek(self._source, self._comm.rank, self._tag)
        return msg is not None and msg.available_at <= self._comm.clock

    def wait(self):
        """Complete the operation (returns the payload for receives)."""
        if self._done:
            return self._value
        self._value = self._comm.recv(self._source, tag=self._tag)
        self._done = True
        return self._value


class SimComm:
    """Communicator handle held by one rank (thread)."""

    def __init__(
        self,
        rank: int,
        size: int,
        channels: _Channels,
        cost_model: CommCostModel,
        deadlock_timeout: float = 60.0,
        sanitize: bool = False,
    ) -> None:
        if not 0 <= rank < size:
            raise ValueError("rank out of range")
        self.rank = rank
        self.size = size
        self._channels = channels
        self.cost = cost_model
        self.deadlock_timeout = deadlock_timeout
        #: message sanitizer: fingerprint payloads at send, re-verify at
        #: recv, raising :class:`PayloadMutationError` on mismatch.
        self.sanitize = sanitize
        #: virtual seconds elapsed on this rank.
        self.clock = 0.0
        #: virtual seconds spent purely computing (subset of clock).
        self.compute_time = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- rank info (mpi4py-style) ------------------------------------------

    def get_rank(self) -> int:
        return self.rank

    def get_size(self) -> int:
        return self.size

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

    # -- point-to-point -------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Send a picklable object (eager, non-blocking sender)."""
        self._check_peer(dest)
        nbytes = payload_nbytes(obj)
        available = self.clock + self.cost.message_cost(nbytes)
        # Sender pays the injection overhead.
        self.clock += self.cost.alpha
        self.bytes_sent += nbytes
        self.messages_sent += 1
        digest = _fingerprint(obj) if self.sanitize else None
        channel = self._channels.get(self.rank, dest, tag)
        channel.put(_Message(obj, available, digest))

    def recv(self, source: int, tag: int = 0):
        """Blocking receive; advances the clock to the arrival time."""
        self._check_peer(source)
        q = self._channels.get(source, self.rank, tag)
        try:
            msg = q.get(timeout=self.deadlock_timeout)
        except queue.Empty:
            raise DeadlockError(
                f"rank {self.rank} timed out receiving from rank {source} "
                f"(tag {tag}) after {self.deadlock_timeout}s at virtual "
                f"time {self.clock:.6f}s"
            ) from None
        if msg is _PEER_EXITED:
            q.put(msg)  # a repeated recv fails the same way
            raise DeadlockError(
                f"rank {self.rank}: rank {source} exited without sending "
                f"(tag {tag}) at virtual time {self.clock:.6f}s"
            )
        self.clock = max(self.clock, msg.available_at)
        if self.sanitize and msg.digest is not None:
            now = _fingerprint(msg.payload)
            if now != msg.digest:
                raise PayloadMutationError(
                    f"payload from rank {source} to rank {self.rank} "
                    f"(tag {tag}) changed between send and recv: the sender "
                    "mutated an eagerly-sent object (see lint rule MPI003)"
                )
        return msg.payload

    def isend(self, obj, dest: int, tag: int = 0) -> SimRequest:
        """Nonblocking send (eager: completes immediately here)."""
        self.send(obj, dest, tag=tag)
        return SimRequest(self, "send")

    def irecv(self, source: int, tag: int = 0) -> SimRequest:
        """Nonblocking receive; complete with ``request.wait()``."""
        self._check_peer(source)
        return SimRequest(self, "recv", source=source, tag=tag)

    def sendrecv(self, obj, dest: int, source: int, tag: int = 0):
        """Exchange: send to ``dest`` while receiving from ``source``.

        Deadlock-free even in a synchronous ring because sends are
        eager in this runtime.
        """
        self.send(obj, dest, tag=tag)
        return self.recv(source, tag=tag)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range (size {self.size})")
        if peer == self.rank:
            raise ValueError("self-messaging is not supported")

    # -- collectives -----------------------------------------------------------

    def _vrank(self, root: int) -> int:
        return (self.rank - root) % self.size

    def _from_vrank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.size

    def bcast(self, obj, root: int = 0, _tag: int = _COLLECTIVE_TAG_BASE):
        """Binomial-tree broadcast; returns the object on every rank."""
        if self.size == 1:
            return obj
        v = self._vrank(root)
        mask = 1
        # Find the first round in which this rank receives.
        while mask < self.size:
            if v < mask:
                if v + mask < self.size:
                    self.send(obj, self._from_vrank(v + mask, root), tag=_tag)
            elif v < 2 * mask:
                obj = self.recv(self._from_vrank(v - mask, root), tag=_tag)
            mask <<= 1
        return obj

    def gather(self, obj, root: int = 0, _tag: int = _COLLECTIVE_TAG_BASE - 1):
        """Binomial-tree gather; root gets the rank-ordered list."""
        if self.size == 1:
            return [obj]
        v = self._vrank(root)
        # bucket: {vrank: payload} accumulated up the tree.
        bucket = {v: obj}
        mask = 1
        while mask < self.size:
            if v % (2 * mask) == 0:
                if v + mask < self.size:
                    part = self.recv(self._from_vrank(v + mask, root), tag=_tag)
                    bucket.update(part)
            elif v % (2 * mask) == mask:
                self.send(bucket, self._from_vrank(v - mask, root), tag=_tag)
                bucket = {}
                break
            mask <<= 1
        if self.rank == root:
            # bucket is keyed by vrank; return in true rank order.
            return [bucket[(r - root) % self.size] for r in range(self.size)]
        return None

    def scatter(self, objs, root: int = 0, _tag: int = _COLLECTIVE_TAG_BASE - 2):
        """Root sends element i to rank i; returns the local element."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter needs one item per rank at the root")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag=_tag)
            return objs[root]
        return self.recv(root, tag=_tag)

    def allgather(self, obj):
        """gather to rank 0, then broadcast the full list."""
        out = self.gather(obj, root=0, _tag=_COLLECTIVE_TAG_BASE - 3)
        return self.bcast(out, root=0, _tag=_COLLECTIVE_TAG_BASE - 4)

    def reduce(self, obj, op=None, root: int = 0, _tag: int = _COLLECTIVE_TAG_BASE - 5):
        """Binomial-tree reduction (default op: +).

        ``op`` is applied in **binomial-tree order over virtual ranks**
        (``vrank = (rank - root) % size``): at each doubling step a
        surviving vrank ``v`` combines ``acc = op(acc_v, acc_{v+mask})``
        — the lower vrank's accumulator is always the left operand.
        Consequences, pinned by ``tests/mpi/test_simcomm.py``:

        - for **associative** ops the result equals a sequential left
          fold over vrank order; with ``root != 0`` that order is the
          ranks *rotated* to start at the root, so even an associative
          non-commutative op (e.g. string concatenation) differs from
          a rank-0-first fold;
        - for **non-associative** ops (e.g. subtraction, floating-point
          sums at scale) the tree grouping itself differs from a
          sequential left fold — same contract as MPI_Reduce, which
          only promises a fixed evaluation order for a fixed topology.
        """
        if op is None:
            op = lambda a, b: a + b
        if self.size == 1:
            return obj
        v = self._vrank(root)
        acc = obj
        mask = 1
        while mask < self.size:
            if v % (2 * mask) == 0:
                if v + mask < self.size:
                    other = self.recv(self._from_vrank(v + mask, root), tag=_tag)
                    acc = op(acc, other)
            elif v % (2 * mask) == mask:
                self.send(acc, self._from_vrank(v - mask, root), tag=_tag)
                acc = None
                break
            mask <<= 1
        return acc if self.rank == root else None

    def allreduce(self, obj, op=None):
        out = self.reduce(obj, op=op, root=0, _tag=_COLLECTIVE_TAG_BASE - 6)
        return self.bcast(out, root=0, _tag=_COLLECTIVE_TAG_BASE - 7)

    def alltoall(self, objs, _tag: int = _COLLECTIVE_TAG_BASE - 8):
        """Personalised exchange: element ``i`` of ``objs`` goes to rank i.

        Returns the list whose element ``j`` came from rank ``j``.
        """
        if objs is None or len(objs) != self.size:
            raise ValueError("alltoall needs one item per rank")
        for dst in range(self.size):
            if dst != self.rank:
                self.send(objs[dst], dst, tag=_tag)
        out = [None] * self.size
        out[self.rank] = objs[self.rank]
        for src in range(self.size):
            if src != self.rank:
                out[src] = self.recv(src, tag=_tag)
        return out

    def barrier(self) -> None:
        """Synchronise clocks: everyone leaves at the group's max clock."""
        latest = self.allreduce(self.clock, op=max)
        self.clock = max(self.clock, latest)
