"""Out-of-core scale benchmark (``repro bench scale``).

Sweeps read counts across the scale specs (S4 ~10^4, S5 ~10^5, S6
~10^6 read equivalents), exercising the sharded store end to end and
writing the trajectory to ``BENCH_scale.json``:

* **pack** — stream-synthesize the spec's reads and pack them into a
  sharded store (:func:`~repro.bench.datasets.build_scale_read_store`);
  records pack seconds, store bytes, and shard count.  At no point does
  the full read array exist in RAM.
* **stream** — a shard-pair-wise candidate-generation scan over the
  packed store: each shard's k-mer table is materialized from its own
  bytes, sorted, and matched against the previous shard's, so the live
  working set is O(shard + cache), never O(reads).  Records scan
  seconds, window/match counts, LRU cache stats, and the
  tracemalloc-tracked peak.
* **equivalence** — on the small SE spec, a full assembly from the
  store versus the same reads in RAM, on every backend; contigs must
  be byte-identical.

Two gates are wired for CI:

* **Memory ceiling** (exit 1): every stream cell's tracked peak must
  stay under ``cache_budget + MEMORY_SLACK_BYTES`` — the cache budget
  is the configured memory ceiling of the streaming data path, and the
  slack covers per-shard transient arrays (the gate formula is
  recorded in the metadata).  This is what makes "10^6 reads, bounded
  RSS" a tested contract instead of a hope.  ``ru_maxrss`` is recorded
  per cell for context but not gated — it is monotonic per process, so
  later cells inherit earlier cells' high-water mark.
* **Equivalence** (exit 2): sharded-vs-in-RAM contigs must match
  byte-for-byte on serial, sim, and process backends.

See docs/performance.md for the memory-ceiling table this generates.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bench.datasets import (
    SCALE_EQUIVALENCE_SPEC,
    SCALE_SWEEP_SPECS,
    FinishScaleSpec,
    build_scale_read_store,
    iter_scale_reads,
)
from repro.bench.reporting import format_table
from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.io.readset import ReadSet

__all__ = [
    "SCHEMA",
    "ScaleBenchRecord",
    "ScaleBenchReport",
    "stream_scan",
    "bench_spec",
    "bench_equivalence",
    "run_scale_bench",
    "memory_failures",
    "main",
]

#: schema of one record in ``BENCH_scale.json``; bump when fields change.
SCHEMA = "repro.bench.scale/v1"

DEFAULT_OUTPUT = "BENCH_scale.json"
DEFAULT_CACHE_BUDGET = 64 * 1024 * 1024
DEFAULT_SHARD_SIZE = 4096
BACKENDS = ("serial", "sim", "process")

#: allowance on top of the cache budget for per-shard transient arrays
#: (k-mer tables, sort buffers) and interpreter overhead; the memory
#: gate is ``peak_tracked <= cache_budget + MEMORY_SLACK_BYTES``.
MEMORY_SLACK_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ScaleBenchRecord:
    """One (dataset, cell) measurement of the scale sweep."""

    dataset: str
    #: which sweep cell: "pack", "stream", or "equivalence:<backend>".
    cell: str
    n_reads: int
    seconds: float
    #: tracemalloc-tracked peak python allocations during the cell.
    peak_tracked_bytes: int
    #: process high-water RSS after the cell (monotonic; context only).
    ru_maxrss_kb: int
    #: cell-specific extras (store bytes, cache stats, match counts...).
    extra: dict = field(default_factory=dict)


@dataclass
class ScaleBenchReport:
    """A full scale-bench run: records plus environment metadata."""

    records: list[ScaleBenchRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEMA,
                "metadata": self.metadata,
                "results": [asdict(r) for r in self.records],
            },
            indent=2,
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def summary_table(self) -> str:
        rows = []
        for r in self.records:
            rows.append(
                [
                    r.dataset,
                    r.cell,
                    f"{r.n_reads:,}",
                    f"{r.seconds:.3f}",
                    f"{r.peak_tracked_bytes / (1 << 20):.1f}",
                    f"{r.ru_maxrss_kb / 1024:.0f}",
                ]
            )
        return format_table(
            ["Dataset", "Cell", "Reads", "Seconds", "Peak (MiB)", "RSS hwm (MiB)"],
            rows,
        )


def _ru_maxrss_kb() -> int:
    """Process peak RSS in KiB (Linux reports KiB; macOS bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


class _measured:
    """Context manager: wall seconds + tracemalloc peak for one cell."""

    def __enter__(self) -> "_measured":
        self._was_tracing = tracemalloc.is_tracing()
        if not self._was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._t0
        _, self.peak = tracemalloc.get_traced_memory()
        if not self._was_tracing:
            tracemalloc.stop()


def _store_bytes(path: str) -> int:
    total = 0
    for entry in os.listdir(path):
        full = os.path.join(path, entry)
        if os.path.isfile(full):
            total += os.path.getsize(full)
    return total


def stream_scan(reads, k: int = 16) -> dict:
    """Shard-pair-wise k-mer candidate scan over a sharded read set.

    The out-of-core analogue of the overlap stage's candidate
    generation: for every shard, materialize its k-mer table from that
    shard's bytes alone, sort it, and count shared k-mer values against
    the previous (adjacent) shard.  Only two shards' worth of k-mer
    arrays are ever live, so peak memory is O(shard), bounded by the
    store's cache budget plus transient sort buffers.
    """
    store = reads.store
    total_windows = 0
    total_matches = 0
    prev_sorted: np.ndarray | None = None
    for s in range(store.n_shards):
        lo = int(store.record_starts[s])
        hi = int(store.record_starts[s + 1])
        vals, _, _ = reads.kmer_table(k, np.arange(lo, hi, dtype=np.int64))
        cur = np.sort(vals[vals >= 0])
        total_windows += int(cur.size)
        if prev_sorted is not None and cur.size and prev_sorted.size:
            left = np.searchsorted(prev_sorted, cur, side="left")
            right = np.searchsorted(prev_sorted, cur, side="right")
            total_matches += int((right - left).sum())
        prev_sorted = cur
    return {
        "k": k,
        "n_shards": int(store.n_shards),
        "kmer_windows": total_windows,
        "adjacent_shard_matches": total_matches,
        "cache": reads.store.cache.stats().to_dict(),
    }


def bench_spec(
    spec: FinishScaleSpec,
    workdir: str,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
) -> list[ScaleBenchRecord]:
    """Pack + stream cells for one scale spec."""
    store_path = os.path.join(workdir, spec.name)
    with _measured() as m:
        manifest = build_scale_read_store(spec, store_path, shard_size=shard_size)
    records = [
        ScaleBenchRecord(
            dataset=spec.name,
            cell="pack",
            n_reads=manifest.n_records,
            seconds=m.seconds,
            peak_tracked_bytes=m.peak,
            ru_maxrss_kb=_ru_maxrss_kb(),
            extra={
                "store_bytes": _store_bytes(store_path),
                "n_shards": manifest.n_shards,
                "shard_size": shard_size,
                "genome_length": spec.genome_length,
            },
        )
    ]
    with _measured() as m:
        reads = ReadSet.open(store_path, cache_budget=cache_budget)
        scan = stream_scan(reads)
    records.append(
        ScaleBenchRecord(
            dataset=spec.name,
            cell="stream",
            n_reads=len(reads),
            seconds=m.seconds,
            peak_tracked_bytes=m.peak,
            ru_maxrss_kb=_ru_maxrss_kb(),
            extra=scan,
        )
    )
    return records


def bench_equivalence(
    spec: FinishScaleSpec,
    workdir: str,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
    backends: tuple[str, ...] = BACKENDS,
) -> tuple[list[ScaleBenchRecord], bool]:
    """Full in-RAM-vs-sharded assembly on every backend (byte-identity)."""
    store_path = os.path.join(workdir, f"{spec.name}-equiv")
    build_scale_read_store(spec, store_path, shard_size=shard_size)
    ram_reads = ReadSet(iter_scale_reads(spec))
    records: list[ScaleBenchRecord] = []
    agree = True
    for backend in backends:
        config = AssemblyConfig(
            backend=backend,
            n_partitions=2,
            store_path=store_path,
            cache_budget=cache_budget,
        )
        assembler = FocusAssembler(config)
        ram_result = assembler.assemble(ram_reads)
        with _measured() as m:
            store_result = assembler.assemble()
        identical = [c.tobytes() for c in ram_result.contigs] == [
            c.tobytes() for c in store_result.contigs
        ]
        agree = agree and identical
        records.append(
            ScaleBenchRecord(
                dataset=spec.name,
                cell=f"equivalence:{backend}",
                n_reads=len(ram_reads),
                seconds=m.seconds,
                peak_tracked_bytes=m.peak,
                ru_maxrss_kb=_ru_maxrss_kb(),
                extra={
                    "identical": identical,
                    "n_contigs": len(store_result.contigs),
                },
            )
        )
    return records, agree


def memory_failures(
    records: list[ScaleBenchRecord], cache_budget: int
) -> list[str]:
    """Stream cells whose tracked peak broke the memory ceiling."""
    ceiling = cache_budget + MEMORY_SLACK_BYTES
    failures = []
    for r in records:
        if r.cell != "stream":
            continue
        if r.peak_tracked_bytes > ceiling:
            failures.append(
                f"{r.dataset}: stream peak "
                f"{r.peak_tracked_bytes / (1 << 20):.1f} MiB over ceiling "
                f"{ceiling / (1 << 20):.1f} MiB"
            )
    return failures


def run_scale_bench(
    specs: list[FinishScaleSpec] | None = None,
    workdir: str | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
    equivalence_spec: FinishScaleSpec | None = SCALE_EQUIVALENCE_SPEC,
) -> tuple[ScaleBenchReport, bool]:
    """Run the sweep; returns (report, equivalence-agree flag)."""
    if specs is None:
        specs = list(SCALE_SWEEP_SPECS)
    report = ScaleBenchReport(
        metadata={
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "shard_size": shard_size,
            "cache_budget_bytes": cache_budget,
            "memory_slack_bytes": MEMORY_SLACK_BYTES,
            "memory_gate": (
                "stream peak_tracked_bytes <= "
                "cache_budget_bytes + memory_slack_bytes"
            ),
            "specs": [
                {
                    "name": s.name,
                    "read_equivalent": s.read_equivalent,
                    "genome_length": s.genome_length,
                }
                for s in specs
            ],
        }
    )
    agree = True
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        root = workdir or tmp
        for spec in specs:
            report.records.extend(
                bench_spec(
                    spec, root, shard_size=shard_size, cache_budget=cache_budget
                )
            )
        if equivalence_spec is not None:
            eq_records, agree = bench_equivalence(
                equivalence_spec,
                root,
                shard_size=shard_size,
                cache_budget=cache_budget,
            )
            report.records.extend(eq_records)
    report.metadata["peak_tracked_bytes_max"] = max(
        (r.peak_tracked_bytes for r in report.records), default=0
    )
    report.metadata["ru_maxrss_kb_final"] = _ru_maxrss_kb()
    return report, agree


def main(
    output: str = DEFAULT_OUTPUT,
    dataset_names: list[str] | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache_budget: int = DEFAULT_CACHE_BUDGET,
    skip_equivalence: bool = False,
    stream=None,
) -> int:
    """CLI entry point for ``repro bench scale``.

    Exit codes: 0 ok; 1 the memory ceiling broke on a stream cell;
    2 sharded-vs-in-RAM contigs disagreed on some backend (results
    are written either way).
    """
    stream = stream or sys.stdout
    available = {s.name: s for s in SCALE_SWEEP_SPECS}
    if dataset_names:
        unknown = set(dataset_names) - set(available)
        if unknown:
            print(f"error: unknown datasets {sorted(unknown)}", file=sys.stderr)
            return 2
        specs = [available[name] for name in dataset_names]
    else:
        specs = list(SCALE_SWEEP_SPECS)
    report, agree = run_scale_bench(
        specs,
        shard_size=shard_size,
        cache_budget=cache_budget,
        equivalence_spec=None if skip_equivalence else SCALE_EQUIVALENCE_SPEC,
    )
    report.write(output)
    print(report.summary_table(), file=stream)
    print(f"wrote {len(report.records)} records to {output}", file=stream)
    if not agree:
        print("FAIL: sharded and in-RAM contigs differ", file=stream)
        return 2
    failures = memory_failures(report.records, cache_budget)
    if failures:
        print("FAIL: " + "; ".join(failures), file=stream)
        return 1
    return 0
