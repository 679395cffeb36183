"""ProcessPoolExecutor-backed execution of overlap work units.

Each subset pair of the overlap stage is an independent work unit
(paper §II-B); this module runs them on real OS processes.  Workers are
primed once with the (config, reads) pair via the pool initializer —
under the ``fork`` start method the read set is inherited copy-on-write
and never pickled — and each task ships only its ``(i, j)`` pair ids
out and a :class:`~repro.align.overlap.PackedOverlaps` column batch
back, so inter-process traffic stays flat in the number of overlaps.

Work units are submitted largest-first (LPT order, estimated cost
``|Q|·|R|``, self-pairs halved) so the big tasks never arrive last and
leave the pool draining on one straggler.  Results are concatenated in
canonical ``subset_pairs`` order, making the output rows identical to
the serial driver's.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.align.overlap import PackedOverlaps
from repro.io.readset import ReadSet

__all__ = ["ExecutorStats", "run_subset_pairs"]

#: per-worker state installed by the pool initializer.
_WORKER: dict = {}


@dataclass(frozen=True)
class ExecutorStats:
    """Accounting of one multiprocess overlap run."""

    n_workers: int
    n_tasks: int
    candidates: int
    overlaps: int


def _init_worker(config, reads: ReadSet) -> None:
    """Prime one worker process: detector + subset split, computed once.

    A shard-backed ReadSet is re-opened by store path (``reopen``), so
    the worker reads shards from disk through its own cold cache
    instead of retaining the parent's mapped arrays or cache contents
    inherited over ``fork`` — worker RSS stays O(cache budget).
    """
    from repro.align.overlapper import OverlapDetector

    if hasattr(reads, "reopen"):
        reads = reads.reopen()
    _WORKER["detector"] = OverlapDetector(config)
    _WORKER["reads"] = reads
    _WORKER["subsets"] = reads.split(config.n_subsets)
    _WORKER["ref_indexes"] = {}


def _run_pair(pair: tuple[int, int]) -> tuple[PackedOverlaps, int]:
    """Execute one subset-pair work unit inside a worker process.

    Reference-subset indexes are cached per worker, so a worker that
    draws several pairs sharing a reference subset builds it once.
    """
    i, j = pair
    detector, reads, subsets = _WORKER["detector"], _WORKER["reads"], _WORKER["subsets"]
    index = _WORKER["ref_indexes"].get(j)
    if index is None:
        index = _WORKER["ref_indexes"][j] = detector._build_index(reads, subsets[j])
    return detector.overlap_subset_pair_packed(
        reads, subsets[i], subsets[j], same_subset=(i == j), index=index
    )


def _pool_context():
    """Prefer ``fork`` (cheap copy-on-write inheritance of the reads)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_subset_pairs(
    config, reads: ReadSet, n_workers: int
) -> tuple[PackedOverlaps, ExecutorStats]:
    """All pairwise overlaps of ``reads`` across ``n_workers`` processes.

    Returns the overlap columns — identical, row for row, to
    ``OverlapDetector(config).find_overlaps_packed(reads)`` — plus run
    accounting.  ``n_workers <= 1`` short-circuits to in-process serial
    execution (no pool is spawned).
    """
    from repro.align.overlapper import OverlapDetector, subset_pairs
    from repro.parallel.schedule import subset_pair_costs

    if n_workers < 0:
        raise ValueError("n_workers must be non-negative")
    subsets = reads.split(config.n_subsets)
    pairs = subset_pairs(len(subsets))

    if n_workers <= 1 or len(pairs) == 1:
        detector = OverlapDetector(config)
        packed = detector.find_overlaps_packed(reads)
        return packed, ExecutorStats(
            n_workers=1,
            n_tasks=len(pairs),
            candidates=detector.last_candidates,
            overlaps=len(packed),
        )

    costs = subset_pair_costs(pairs, np.array([s.size for s in subsets]))
    submit_order = np.argsort(-costs, kind="stable").tolist()

    max_workers = min(n_workers, len(pairs))
    with ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(config, reads),
    ) as pool:
        futures = {
            task: pool.submit(_run_pair, pairs[task]) for task in submit_order
        }
        by_task = [futures[task].result() for task in range(len(pairs))]

    packed = PackedOverlaps.concatenate([part for part, _ in by_task])
    return packed, ExecutorStats(
        n_workers=max_workers,
        n_tasks=len(pairs),
        candidates=sum(nc for _, nc in by_task),
        overlaps=len(packed),
    )
