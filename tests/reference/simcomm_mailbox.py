"""Message-passing reference for the simulated cluster's two collectives.

The runtime this package's ``repro.mpi`` replaced, trimmed to what the
program calls: each rank is a thread, each ``(src, dst, tag)`` pair is
a FIFO mailbox, and ``bcast`` and ``gather`` are built from eager
point-to-point messages along binomial trees.  A send charges its
sender ``alpha`` and delivers at ``sender clock + alpha + beta *
payload_nbytes(message)``; a receive sets the receiver's clock to
``max(own clock, arrival)``.

Rank programs are the generators ``repro.mpi`` runs: each yields its
collective calls.  Here a call blocks and returns its result, and
:func:`run_blocking` sends every yielded result straight back into the
program — the whole of what a port to real MPI would need.

``repro.mpi`` computes the same clocks in one lockstep step per
collective; ``tests/mpi/test_rendezvous_oracle.py`` requires every
rank's results, clock, compute time and counters to equal this
module's exactly.  The oracle has no failure handling: feed it only
programs in which every rank makes the same collective calls.
"""

from __future__ import annotations

import inspect
import queue
import threading
import time
from contextlib import contextmanager

from repro.mpi import CommCostModel, RunStats, payload_nbytes

__all__ = ["MailboxComm", "run_blocking", "run_mailbox"]

#: one tag per collective, so a gather never matches a bcast.
_BCAST, _GATHER = -1000, -1001


class _Channels:
    """Shared mailbox fabric: one FIFO per (src, dst, tag)."""

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int, int], queue.Queue] = {}
        self._lock = threading.Lock()

    def get(self, src: int, dst: int, tag: int) -> queue.Queue:
        with self._lock:
            return self._queues.setdefault((src, dst, tag), queue.Queue())


class MailboxComm:
    """One rank's communicator: point-to-point mailboxes under the collectives."""

    def __init__(self, rank: int, size: int, channels: _Channels, cost: CommCostModel):
        self.rank = rank
        self.size = size
        self._channels = channels
        self.cost = cost
        self.clock = 0.0
        self.compute_time = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.clock += seconds
        self.compute_time += seconds

    @contextmanager
    def timed(self):
        t0 = time.thread_time()
        try:
            yield
        finally:
            self.advance(time.thread_time() - t0)

    def _send(self, obj, dest: int, tag: int) -> None:
        nbytes = payload_nbytes(obj)
        available = self.clock + self.cost.message_cost(nbytes)
        self.clock += self.cost.alpha
        self.bytes_sent += nbytes
        self.messages_sent += 1
        self._channels.get(self.rank, dest, tag).put((obj, available))

    def _recv(self, source: int, tag: int):
        obj, available = self._channels.get(source, self.rank, tag).get(timeout=60.0)
        self.clock = max(self.clock, available)
        return obj

    def _to_rank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.size

    def bcast(self, obj, root: int = 0):
        if self.size == 1:
            return obj
        v = (self.rank - root) % self.size
        mask = 1
        while mask < self.size:
            if v < mask:
                if v + mask < self.size:
                    self._send(obj, self._to_rank(v + mask, root), _BCAST)
            elif v < 2 * mask:
                obj = self._recv(self._to_rank(v - mask, root), _BCAST)
            mask <<= 1
        return obj

    def gather(self, obj, root: int = 0):
        """Binomial-tree gather of buckets keyed by virtual rank."""
        v = (self.rank - root) % self.size
        bucket = {v: obj}
        mask = 1
        while mask < self.size:
            if v % (2 * mask) == 0:
                if v + mask < self.size:
                    bucket.update(self._recv(self._to_rank(v + mask, root), _GATHER))
            elif v % (2 * mask) == mask:
                self._send(bucket, self._to_rank(v - mask, root), _GATHER)
                return None
            mask <<= 1
        return [bucket[(r - root) % self.size] for r in range(self.size)]


def run_blocking(program):
    """Run a rank program whose collectives block: yield in, result back."""
    if not inspect.isgenerator(program):
        return program
    reply = None
    try:
        while True:
            reply = program.send(reply)
    except StopIteration as stop:
        return stop.value


def run_mailbox(n_ranks: int, cost: CommCostModel, fn, *args):
    """Run ``fn(comm, *args)`` on ``n_ranks`` mailbox ranks: ``(results, stats)``."""
    channels = _Channels()
    comms = [MailboxComm(r, n_ranks, channels, cost) for r in range(n_ranks)]
    results: list = [None] * n_ranks
    errors: list[BaseException] = []

    def worker(rank: int) -> None:
        try:
            results[rank] = run_blocking(fn(comms[rank], *args))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(n_ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    stats = RunStats(
        clocks=[c.clock for c in comms],
        compute_times=[c.compute_time for c in comms],
        bytes_sent=[c.bytes_sent for c in comms],
        messages_sent=[c.messages_sent for c in comms],
    )
    return results, stats
