"""SimCluster: launches rank functions on threads with SimComms."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.mpi.simcomm import SimComm, _Rendezvous
from repro.mpi.timing import CommCostModel

__all__ = ["RunStats", "SimCluster"]


@dataclass
class RunStats:
    """Per-run accounting gathered after all ranks finish."""

    #: final virtual clock per rank.
    clocks: list[float]
    #: virtual compute seconds per rank.
    compute_times: list[float]
    bytes_sent: list[int]
    messages_sent: list[int]

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock of the run: the slowest rank's clock."""
        return max(self.clocks) if self.clocks else 0.0

    @property
    def total_compute(self) -> float:
        return sum(self.compute_times)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent)


class SimCluster:
    """An n-rank simulated cluster.

    ``run(fn, *args)`` starts one thread per rank executing
    ``fn(comm, *args)`` and returns ``(results, stats)`` where
    ``results[r]`` is rank r's return value.  Any rank exception is
    re-raised in the caller after all threads stop; the first one
    recorded is the cause, so a rank's own error wins over the
    :class:`~repro.mpi.simcomm.DeadlockError` it leaves its peers.
    """

    def __init__(self, n_ranks: int, cost_model: CommCostModel | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CommCostModel()

    def run(self, fn, *args, **kwargs) -> tuple[list, RunStats]:
        rendezvous = _Rendezvous(self.n_ranks, self.cost_model)
        comms = [SimComm(r, self.n_ranks, rendezvous) for r in range(self.n_ranks)]
        results: list = [None] * self.n_ranks
        errors: list[tuple[int, BaseException]] = []

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must not kill the pool silently
                errors.append((rank, exc))
            finally:
                # A collective this rank can no longer join fails now.
                rendezvous.exit(rank)

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simrank-{r}", daemon=True)
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            rank, exc = errors[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        stats = RunStats(
            clocks=[c.clock for c in comms],
            compute_times=[c.compute_time for c in comms],
            bytes_sent=[c.bytes_sent for c in comms],
            messages_sent=[c.messages_sent for c in comms],
        )
        return results, stats
