"""Shard-backed reads: stream a FASTA/FASTQ-scale read set from disk.

:func:`pack_reads` converts any stream of :class:`~repro.io.records.Read`
objects into a sharded store directory while holding at most one shard
of reads in memory; :class:`ShardedReadSet` opens that directory as a
drop-in :class:`~repro.io.readset.ReadSet` whose base codes, qualities,
ids, metadata, and packed k-mer caches all materialize *per shard*
through one byte-budgeted LRU cache, so peak memory is O(shard), not
O(reads).

Layout of a reads store::

    store/
      manifest.json          # written last; certifies a complete pack
      offsets.npy            # global CSR offsets, opened memory-mapped
      shard-00000.npz        # data, offsets (local), ids, meta, quals
      shard-00001.npz
      derived/               # trimmed / reverse-complement children

Reads never straddle shards, so every in-read k-mer window of a shard
is computable from that shard alone — the per-shard packed k-mer
arrays are byte-identical to the corresponding slices of the in-RAM
whole-set cache, which is what keeps sharded and in-RAM assemblies
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from collections.abc import Sequence
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.io.readset import ReadSet
from repro.io.records import Read
from repro.io.store import fsync_dir
from repro.sequence.kmers import canonical_kmer_codes, kmer_codes
from repro.sequence.quality import trim_read
from repro.store.manifest import StoreManifest
from repro.store.sharded import DEFAULT_CACHE_BUDGET, ShardedStore, ShardWriter

__all__ = [
    "READS_KIND",
    "OFFSETS_NAME",
    "DEFAULT_SHARD_SIZE",
    "pack_reads",
    "ShardedReadSet",
]

READS_KIND = "reads"
OFFSETS_NAME = "offsets.npy"

#: default reads per shard: at ~100 bp reads this is ~0.4 MB of codes
#: per shard, small enough that a 64 MiB cache holds dozens of shards.
DEFAULT_SHARD_SIZE = 4096


def _atomic_save_npy(final: str, arr: np.ndarray) -> None:
    """np.save with the same crash-safety contract as atomic_savez."""
    tmp = f"{final}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        np.save(fh, arr)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    fsync_dir(os.path.dirname(final) or ".")


def _json_uint8(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode("utf-8"), dtype=np.uint8)


def _json_load(arr: np.ndarray):
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8).tobytes()).decode("utf-8"))


def pack_reads(
    reads: Iterable[Read],
    path: str | Path,
    shard_size: int = DEFAULT_SHARD_SIZE,
    compressed: bool = False,
    resume: bool = False,
    meta: dict | None = None,
) -> StoreManifest:
    """Stream reads into a sharded store, one shard in memory at a time.

    Accepts any iterable of reads — a FASTA/FASTQ parser generator, a
    synthetic-read generator, or an existing ReadSet — and never
    accumulates more than ``shard_size`` reads before flushing them as
    one durable shard file.  The global ``offsets.npy`` and the
    manifest are written only after every shard is on disk, so a crash
    mid-pack leaves a store that :func:`pack_reads` can finish with
    ``resume=True`` (already-durable shards are verified and skipped;
    the read stream must be reproduced identically).
    """
    writer = ShardWriter(
        path, READS_KIND, shard_size, compressed=compressed, resume=resume
    )
    global_offsets = array("q", [0])
    codes_buf: list[np.ndarray] = []
    quals_buf: list[np.ndarray | None] = []
    ids_buf: list[str] = []
    meta_buf: list[dict] = []
    any_quals = False

    def flush() -> None:
        n = len(ids_buf)
        if n == 0:
            return
        lengths = np.fromiter((c.size for c in codes_buf), dtype=np.int64, count=n)
        local = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=local[1:])
        data = (
            np.concatenate(codes_buf).astype(np.uint8, copy=False)
            if int(local[-1])
            else np.empty(0, dtype=np.uint8)
        )
        shard_quals = any(q is not None for q in quals_buf)
        if shard_quals:
            quals = np.zeros(int(local[-1]), dtype=np.int64)
            for r, q in enumerate(quals_buf):
                if q is not None:
                    quals[local[r] : local[r + 1]] = q
        else:
            quals = np.empty(0, dtype=np.int64)
        writer.write_shard(
            {
                "data": data,
                "offsets": local,
                "ids": _json_uint8(ids_buf),
                "meta": _json_uint8(meta_buf),
                "has_quals": np.bool_(shard_quals),
                "quals": quals,
            },
            n,
        )
        codes_buf.clear()
        quals_buf.clear()
        ids_buf.clear()
        meta_buf.clear()

    for read in reads:
        codes = np.asarray(read.codes, dtype=np.uint8)
        codes_buf.append(codes)
        quals_buf.append(None if read.quals is None else np.asarray(read.quals))
        ids_buf.append(read.id)
        meta_buf.append(read.meta)
        global_offsets.append(global_offsets[-1] + codes.size)
        if read.quals is not None:
            any_quals = True
        if len(ids_buf) >= shard_size:
            flush()
    flush()

    _atomic_save_npy(
        os.path.join(str(path), OFFSETS_NAME),
        np.frombuffer(global_offsets, dtype=np.int64),
    )
    store_meta = {
        "has_quals": any_quals,
        "n_reads": len(global_offsets) - 1,
        "total_bases": int(global_offsets[-1]),
    }
    if meta:
        store_meta.update(meta)
    return writer.finalize(store_meta)


def _shard_groups(shard_ids: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(shard, positions holding it)`` per distinct id, ascending.

    One stable sort and contiguous slices of it — not one full-length
    mask per shard, which is O(shards x positions).
    """
    order = np.argsort(shard_ids, kind="stable")
    ids = shard_ids[order]
    cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, ids.size]):
        yield int(ids[lo]), order[lo:hi]


class _ShardColumn(Sequence):
    """Lazy per-read view of a JSON shard column (ids or meta)."""

    def __init__(self, reads: "ShardedReadSet", field: str) -> None:
        self._reads = reads
        self._field = field

    def __len__(self) -> int:
        return len(self._reads)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        if not -n <= i < n:
            raise IndexError(i)
        i = i % n if n else i
        shard = self._reads.store.shard_of(i)
        column = self._reads._shard_column(shard, self._field)
        return column[i - int(self._reads.store.record_starts[shard])]


class ShardedReadSet(ReadSet):
    """A ReadSet whose columns live in a sharded store on disk.

    Drop-in for the in-RAM :class:`~repro.io.readset.ReadSet`: every
    read accessor, the k-mer cache API, preprocessing, and subset
    splitting behave identically (and produce byte-identical downstream
    assemblies) — but base codes, qualities, and packed k-mers are
    loaded one shard at a time through an LRU cache, the global offsets
    array is memory-mapped, and preprocessing streams its output into
    derived stores under ``<store>/derived/`` instead of RAM.

    Pickling serializes only ``(store path, cache budget)``: a worker
    process re-opens the shards by path rather than receiving (or
    copy-on-write-inheriting) any mapped array.

    :attr:`data` / :attr:`quals` remain available as *explicit
    whole-store materializations* (via :meth:`to_array`) so legacy
    consumers keep working; streaming code must not touch them — the
    MEM001 lint rule flags such use inside per-partition kernels.
    """

    def __init__(
        self, path: str | Path, cache_budget: int = DEFAULT_CACHE_BUDGET
    ) -> None:
        self._init_from_store(str(path), int(cache_budget))

    def _init_from_store(self, path: str, cache_budget: int) -> None:
        self.store_path = path
        self.cache_budget = cache_budget
        self.store = ShardedStore(
            path, kind=READS_KIND, cache_budget=cache_budget
        )
        offsets_path = os.path.join(path, OFFSETS_NAME)
        try:
            self.offsets = np.load(offsets_path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"reads store {path!r} has no readable {OFFSETS_NAME}: {exc}"
            ) from exc
        if self.offsets.shape[0] != self.store.n_records + 1:
            raise ValueError(
                f"reads store {path!r}: {OFFSETS_NAME} describes "
                f"{self.offsets.shape[0] - 1} reads, manifest expects "
                f"{self.store.n_records}"
            )
        self.has_quals = bool(self.store.manifest.meta.get("has_quals", False))
        #: manifest content digest — folded into assembly checkpoint
        #: fingerprints so a resume against changed shards is refused.
        self.store_fingerprint = self.store.fingerprint()
        #: global base offset of each shard's first base (n_shards + 1).
        self._base_bounds = np.asarray(
            self.offsets[self.store.record_starts], dtype=np.int64
        )
        self.ids = _ShardColumn(self, "ids")
        self.meta = _ShardColumn(self, "meta")
        self._kmer_cache = {}  # unused here; kept for base-class parity
        self._materialized: np.ndarray | None = None
        self._materialized_quals: np.ndarray | None = None

    # -- pickling (ships the path, never the arrays) ----------------------

    def __getstate__(self) -> dict:
        return {"store_path": self.store_path, "cache_budget": self.cache_budget}

    def __setstate__(self, state: dict) -> None:
        self._init_from_store(state["store_path"], state["cache_budget"])

    def reopen(self) -> "ShardedReadSet":
        """A fresh view with its own cold cache (for worker processes)."""
        return type(self)(self.store_path, self.cache_budget)

    # -- shard plumbing ---------------------------------------------------

    def _shard_column(self, shard: int, field: str) -> list:
        """Decoded ids/meta list of one shard (cache-backed)."""

        def loader() -> tuple[list, int]:
            raw = self.store.shard(shard)[field]
            return _json_load(raw), int(raw.nbytes)

        return self.store.cache.get(
            ("column", self.store_path, shard, field), loader
        )

    def _shard_kmers(self, shard: int, k: int, canonical: bool) -> np.ndarray:
        """Packed k-mer values of one shard's concatenated codes."""
        packer = canonical_kmer_codes if canonical else kmer_codes

        def build(arrays: dict) -> np.ndarray:
            packed = packer(arrays["data"], int(k))
            packed.setflags(write=False)
            return packed

        return self.store.derived(shard, ("kmers", int(k), bool(canonical)), build)

    def _locate(self, i: int) -> tuple[dict, int]:
        """(shard arrays, local read index) of global read ``i``."""
        shard = self.store.shard_of(int(i))
        return self.store.shard(shard), int(i) - int(self.store.record_starts[shard])

    # -- ReadSet protocol -------------------------------------------------

    def __len__(self) -> int:
        return self.store.n_records

    def codes_of(self, i: int) -> np.ndarray:
        arrays, local = self._locate(i)
        offsets = arrays["offsets"]
        return arrays["data"][int(offsets[local]) : int(offsets[local + 1])]

    def quals_of(self, i: int) -> np.ndarray | None:
        if not self.has_quals:
            return None
        arrays, local = self._locate(i)
        offsets = arrays["offsets"]
        lo, hi = int(offsets[local]), int(offsets[local + 1])
        if not bool(arrays["has_quals"]):
            return np.zeros(hi - lo, dtype=np.int64)
        return arrays["quals"][lo:hi].copy()

    # -- whole-store materialization (explicit; avoid in kernels) ---------

    def to_array(self) -> np.ndarray:
        """The full concatenated code array, loaded shard by shard.

        This is the *explicit* whole-store materialization — O(total
        bases) memory, bypassing the cache so it does not evict the
        working set.  Per-partition kernels must stream instead (lint
        rule MEM001 flags this call inside them).
        """
        if self._materialized is None:
            parts = [
                self.store.load_shard(s)["data"] for s in range(self.store.n_shards)
            ]
            self._materialized = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
            )
            self._materialized.setflags(write=False)
        return self._materialized

    @property
    def data(self) -> np.ndarray:
        return self.to_array()

    @property
    def quals(self) -> np.ndarray | None:
        if not self.has_quals:
            return None
        if self._materialized_quals is None:
            total = int(self.offsets[-1])
            out = np.zeros(total, dtype=np.int64)
            for s in range(self.store.n_shards):
                arrays = self.store.load_shard(s)
                if bool(arrays["has_quals"]):
                    lo = int(self._base_bounds[s])
                    out[lo : lo + arrays["quals"].size] = arrays["quals"]
            self._materialized_quals = out
        return self._materialized_quals

    # -- flat-position access (the overlap engine's primitives) -----------

    def gather_bases(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.int64)
        out = np.empty(flat.size, dtype=np.uint8)
        if flat.size == 0:
            return out
        shard_ids = np.searchsorted(self._base_bounds, flat, side="right") - 1
        for s, at in _shard_groups(shard_ids):
            data = self.store.shard(s)["data"]
            out[at] = data[flat[at] - int(self._base_bounds[s])]
        return out

    def base_span(self, lo: int, length: int) -> np.ndarray:
        shard = int(np.searchsorted(self._base_bounds, lo, side="right") - 1)
        local = int(lo) - int(self._base_bounds[shard])
        data = self.store.shard(shard)["data"]
        if local + length <= data.size:
            return data[local : local + length]
        # Defensive: a span crossing shards (cannot happen for in-read
        # spans, since reads never straddle shards).
        return self.gather_bases(np.arange(lo, lo + length, dtype=np.int64))

    # -- k-mer cache API (per-shard materialization) ----------------------

    def packed_kmers(self, k: int, canonical: bool = False) -> np.ndarray:
        """Whole-set packed k-mers — a whole-store materialization.

        Kept for API parity (byte-identical to the in-RAM cache); the
        streaming accessors :meth:`kmer_codes_of` / :meth:`kmer_table`
        never call it.
        """
        key = (int(k), bool(canonical))
        cached = self._kmer_cache.get(key)
        if cached is None:
            packer = canonical_kmer_codes if canonical else kmer_codes
            cached = packer(self.to_array(), k)
            cached.setflags(write=False)
            self._kmer_cache[key] = cached
        return cached

    def kmer_codes_of(self, i: int, k: int, canonical: bool = False) -> np.ndarray:
        shard = self.store.shard_of(int(i))
        arrays = self.store.shard(shard)
        offsets = arrays["offsets"]
        local = int(i) - int(self.store.record_starts[shard])
        lo = int(offsets[local])
        hi = int(offsets[local + 1]) - k + 1
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return self._shard_kmers(shard, k, canonical)[lo:hi]

    def kmer_table(
        self,
        k: int,
        read_indices: np.ndarray | None = None,
        canonical: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if read_indices is None:
            idx = np.arange(len(self), dtype=np.int64)
        else:
            idx = np.asarray(read_indices, dtype=np.int64)
        starts = np.asarray(self.offsets[idx], dtype=np.int64)
        ends = np.asarray(self.offsets[idx + 1], dtype=np.int64)
        n_windows = np.maximum(ends - starts - k + 1, 0)
        total = int(n_windows.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        read_ids = np.repeat(idx, n_windows)
        group_starts = np.cumsum(n_windows) - n_windows
        within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, n_windows)
        flat = np.repeat(starts, n_windows) + within
        read_shards = (
            np.searchsorted(self.store.record_starts, idx, side="right") - 1
        )
        window_shards = np.repeat(read_shards, n_windows)
        values = np.empty(total, dtype=np.int64)
        for s, at in _shard_groups(window_shards):
            packed = self._shard_kmers(s, k, canonical)
            values[at] = packed[flat[at] - int(self._base_bounds[s])]
        return values, read_ids, within

    # -- preprocessing (streams into derived stores) ----------------------

    def _derived(self, tag: str, generate: Iterator[Read]) -> "ShardedReadSet":
        """Open-or-pack a derived store keyed by source digest + params."""
        dest = os.path.join(self.store_path, "derived", tag)
        try:
            return ShardedReadSet(dest, self.cache_budget)
        except ValueError:
            pass
        os.makedirs(dest, exist_ok=True)
        pack_reads(
            generate,
            dest,
            shard_size=self.store.manifest.shard_size,
            meta={"derived_from": self.store_fingerprint, "derived_tag": tag},
        )
        return ShardedReadSet(dest, self.cache_budget)

    def trimmed(
        self,
        trim5: int = 0,
        trim3: int = 0,
        window: int = 10,
        step: int = 1,
        min_quality: float = 20.0,
        min_length: int = 1,
    ) -> "ShardedReadSet":
        params = {
            "trim5": trim5,
            "trim3": trim3,
            "window": window,
            "step": step,
            "min_quality": min_quality,
            "min_length": min_length,
            "source": self.store_fingerprint,
        }
        digest = hashlib.sha256(
            json.dumps(params, sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]

        def generate() -> Iterator[Read]:
            for i in range(len(self)):
                codes, quals = trim_read(
                    self.codes_of(i),
                    self.quals_of(i),
                    trim5=trim5,
                    trim3=trim3,
                    window=window,
                    step=step,
                    min_quality=min_quality,
                )
                if codes.size >= min_length:
                    yield Read(self.ids[i], codes.copy(), quals, self.meta[i])

        return self._derived(f"trim-{digest}", generate())

    def with_reverse_complements(self) -> "ShardedReadSet":
        def generate() -> Iterator[Read]:
            for i in range(len(self)):
                yield self[i]
            for i in range(len(self)):
                yield self[i].reverse_complement()

        return self._derived(f"rc-{self.store_fingerprint[:12]}", generate())
