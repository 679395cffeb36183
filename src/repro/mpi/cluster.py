"""SimCluster: launches rank functions on threads with SimComms."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.mpi.simcomm import MessageLeakError, SimComm, _Channels
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
    re-raised in the caller after all threads stop.
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: CommCostModel | None = None,
        deadlock_timeout: float = 60.0,
        sanitize: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CommCostModel()
        self.deadlock_timeout = deadlock_timeout
        #: runtime message sanitizer: payload fingerprints at send/recv
        #: plus a message-leak check at shutdown (see docs/mpi_simulation.md).
        self.sanitize = sanitize

    def run(self, fn, *args, **kwargs) -> tuple[list, RunStats]:
        channels = _Channels()
        comms = [
            SimComm(
                r,
                self.n_ranks,
                channels,
                self.cost_model,
                self.deadlock_timeout,
                sanitize=self.sanitize,
            )
            for r in range(self.n_ranks)
        ]
        results: list = [None] * self.n_ranks
        errors: list[tuple[int, BaseException]] = []

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must not kill the pool silently
                errors.append((rank, exc))
            finally:
                # Peers still receiving from this rank fail now, not
                # after the deadlock timeout.
                channels.finish(rank)

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
        if self.sanitize:
            leaks = channels.unconsumed()
            if leaks:
                detail = ", ".join(
                    f"rank {src}->{dst} tag {tag}: {n} message(s)"
                    for src, dst, tag, n in leaks
                )
                clocks = ", ".join(
                    f"rank {c.rank}={c.clock:.6f}s" for c in comms
                )
                raise MessageLeakError(
                    f"unconsumed messages at cluster shutdown ({detail}); "
                    "every send needs a matching receive "
                    f"[virtual clocks at shutdown: {clocks}]"
                )
        stats = RunStats(
            clocks=[c.clock for c in comms],
            compute_times=[c.compute_time for c in comms],
            bytes_sent=[c.bytes_sent for c in comms],
            messages_sent=[c.messages_sent for c in comms],
        )
        return results, stats
