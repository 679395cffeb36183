"""SimCluster: runs rank programs in lockstep on the calling thread."""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.mpi.simcomm import SimComm, _complete
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
    def total_bytes(self) -> int:
        return sum(self.bytes_sent)


def _program(fn, comm: SimComm, args, kwargs):
    """Rank ``comm``'s program as a generator, whether or not ``fn`` yields."""
    out = fn(comm, *args, **kwargs)
    if inspect.isgenerator(out):
        out = yield from out
    if comm._call is not None:
        raise RuntimeError(f"returned without yielding {comm._call}")
    return out


class SimCluster:
    """An n-rank simulated cluster.

    ``run(fn, *args, **kwargs)`` runs ``fn(comm, *args, **kwargs)`` for
    every rank and returns ``(results, stats)`` where ``results[r]`` is
    rank r's return value.  ``fn`` yields each collective
    (``x = yield comm.gather(obj, root=0)``); a ``fn`` that is not a
    generator is a rank with no collectives.  One step advances every
    rank, in rank order, to its next collective or its return, then
    completes that collective for all of them; a collective that can
    never complete raises :class:`~repro.mpi.simcomm.DeadlockError`.
    A rank that raises fails the run at once as ``RuntimeError("rank r
    failed: ...")``: of the ranks that raise in one step, the lowest.
    """

    def __init__(self, n_ranks: int, cost_model: CommCostModel | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.cost_model = cost_model or CommCostModel()

    def run(self, fn, *args, **kwargs) -> tuple[list, RunStats]:
        comms = [SimComm(r, self.n_ranks) for r in range(self.n_ranks)]
        programs = [_program(fn, comm, args, kwargs) for comm in comms]
        results: list = [None] * self.n_ranks
        replies: list = [None] * self.n_ranks
        while True:
            calls = {}
            for comm, program in zip(comms, programs):
                try:
                    calls[comm.rank] = comm._take_call(program.send(replies[comm.rank]))
                except StopIteration as stop:
                    results[comm.rank] = stop.value
                except Exception as exc:
                    raise RuntimeError(f"rank {comm.rank} failed: {exc!r}") from exc
            if not calls:
                break
            replies = _complete(comms, calls, self.cost_model)
        stats = RunStats(
            clocks=[c.clock for c in comms],
            compute_times=[c.compute_time for c in comms],
            bytes_sent=[c.bytes_sent for c in comms],
            messages_sent=[c.messages_sent for c in comms],
        )
        return results, stats
