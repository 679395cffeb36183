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
      offsets.bin            # global CSR offsets, a CRC-checked table
      shard-00000.bin        # data, offsets (local), ids, meta, quals
      shard-00001.bin        #   (scores as uint8); CRC-checked, read-only
      derived/               # trimmed children, written shard by
                             #   shard from the parent's

A set's reverse complements are not stored: the mirrored view
(:meth:`ShardedReadSet.with_reverse_complements`) builds mate shard
``S + s`` from shard ``s`` when it loads.

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
from collections.abc import Sequence
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.io.readset import Columns, ReadSet, ragged_positions, rc_bases, rc_labels, read_columns
from repro.io.records import Read
from repro.sequence.kmers import canonical_kmer_codes, kmer_codes
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
OFFSETS_NAME = "offsets.bin"

#: default reads per shard: at ~100 bp reads this is ~0.4 MB of codes
#: per shard, small enough that a 64 MiB cache holds dozens of shards.
DEFAULT_SHARD_SIZE = 4096


def _json_uint8(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode("utf-8"), dtype=np.uint8)


def _json_load(arr: np.ndarray):
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8).tobytes()).decode("utf-8"))


def _read_blocks(reads: Iterable[Read], shard_size: int) -> Iterator[Columns]:
    """Chunk a read stream into column blocks of ``shard_size`` reads."""
    reads = iter(reads)
    while chunk := list(islice(reads, shard_size)):
        yield read_columns(chunk)


def _narrowed(quals: np.ndarray) -> np.ndarray:
    """Scores in the narrowest unsigned dtype that holds them (``uint8``
    for real Phred data); anything negative stays ``int64``."""
    if quals.size == 0 or int(quals.min()) < 0:
        return quals
    return quals.astype(np.min_scalar_type(int(quals.max())), copy=False)


def _pack_blocks(
    blocks: Iterable[Columns],
    path: str | Path,
    shard_size: int,
    resume: bool = False,
    meta: dict | None = None,
) -> StoreManifest:
    """Write one durable shard per non-empty block, then the global
    offsets, then the manifest — the commit point."""
    writer = ShardWriter(path, READS_KIND, shard_size, resume=resume)
    global_offsets = [np.zeros(1, dtype=np.int64)]
    total = 0
    any_quals = False
    for data, offsets, quals, ids, read_meta in blocks:
        if not ids:
            continue
        has_quals = quals is not None
        writer.write_shard(
            {
                "data": data,
                "offsets": offsets,
                "ids": _json_uint8(ids),
                "meta": _json_uint8(read_meta),
                "has_quals": np.bool_(has_quals),
                "quals": _narrowed(quals) if has_quals else np.empty(0, dtype=np.uint8),
            },
            len(ids),
        )
        global_offsets.append(offsets[1:] + total)
        total += int(offsets[-1])
        any_quals = any_quals or has_quals
    all_offsets = np.concatenate(global_offsets)
    writer.write_table(OFFSETS_NAME, {"offsets": all_offsets})
    store_meta = {
        "has_quals": any_quals,
        "n_reads": all_offsets.size - 1,
        "total_bases": total,
    }
    if meta:
        store_meta.update(meta)
    return writer.finalize(store_meta)


def pack_reads(
    reads: Iterable[Read],
    path: str | Path,
    shard_size: int = DEFAULT_SHARD_SIZE,
    resume: bool = False,
    meta: dict | None = None,
) -> StoreManifest:
    """Stream reads into a sharded store, one shard in memory at a time.

    Accepts any iterable of reads — a FASTA/FASTQ parser generator, a
    synthetic-read generator, or an existing ReadSet — and never
    accumulates more than ``shard_size`` reads before flushing them as
    one durable shard file.  The global ``offsets.bin`` and the
    manifest are written only after every shard is on disk, so a crash
    mid-pack leaves a store that :func:`pack_reads` can finish with
    ``resume=True`` (already-durable shards are verified and skipped;
    the read stream must be reproduced identically).
    """
    return _pack_blocks(
        _read_blocks(reads, shard_size), path, shard_size, resume, meta
    )


def _shard_groups(shard_ids: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(shard, positions holding it)`` per distinct id, ascending.

    One stable sort and contiguous slices of it — not one full-length
    mask per shard, which is O(shards x positions).
    """
    if shard_ids.size == 0:
        return
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
        shard = self._reads.shard_of(i)
        column = self._reads._shard_column(shard, self._field)
        return column[i - int(self._reads.record_starts[shard])]


class ShardedReadSet(ReadSet):
    """A ReadSet whose columns live in a sharded store on disk.

    Drop-in for the in-RAM :class:`~repro.io.readset.ReadSet`: every
    read accessor, the k-mer cache API, preprocessing, and subset
    splitting behave identically (and produce byte-identical downstream
    assemblies) — but base codes, qualities, and packed k-mers are
    loaded one shard at a time through an LRU cache, the global offsets
    array is read once and CRC-checked, and trimming streams its output
    into a derived store under ``<store>/derived/`` instead of RAM.

    A *mirrored* set (:meth:`with_reverse_complements`) is a view of
    the same store: after its ``S`` shards come ``S`` mate shards, mate
    shard ``S + s`` being :func:`~repro.io.readset.rc_columns` of shard
    ``s``, built when it is first asked for and cached like any shard.
    Nothing is written for it.

    Pickling serializes only ``(store path, cache budget, mirrored)``:
    a worker process re-opens the shards by path rather than receiving
    (or copy-on-write-inheriting) any mapped array.

    :attr:`data` / :attr:`quals` remain available as *explicit
    whole-store materializations* (via :meth:`to_array`) so legacy
    consumers keep working; streaming code must not touch them — the
    MEM001 lint rule flags such use inside per-partition kernels.
    """

    def __init__(
        self, path: str | Path, cache_budget: int = DEFAULT_CACHE_BUDGET, mirrored: bool = False
    ) -> None:
        self._init_from_store(str(path), int(cache_budget), bool(mirrored))

    def _init_from_store(self, path: str, cache_budget: int, mirrored: bool) -> None:
        self.store_path = path
        self.cache_budget = cache_budget
        self.store = ShardedStore(
            path, kind=READS_KIND, cache_budget=cache_budget
        )
        try:
            offsets = self.store.load_table(OFFSETS_NAME)["offsets"]
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"reads store {path!r} has no readable {OFFSETS_NAME}: {exc}"
            ) from exc
        if offsets.shape[0] != self.store.n_records + 1:
            raise ValueError(
                f"reads store {path!r}: {OFFSETS_NAME} describes "
                f"{offsets.shape[0] - 1} reads, manifest expects "
                f"{self.store.n_records}"
            )
        self.has_quals = bool(self.store.manifest.meta.get("has_quals", False))
        #: manifest content digest — folded into assembly checkpoint
        #: fingerprints so a resume against changed shards is refused.
        self.store_fingerprint = self.store.manifest.fingerprint()
        #: record ``i`` of shard ``s`` is read ``record_starts[s] + i``.
        self.record_starts = self.store.record_starts
        self.mirrored = mirrored
        if mirrored:
            self.store_fingerprint += "+rc"
            n = self.store.n_records
            offsets = np.concatenate([offsets, offsets[1:] + offsets[-1]])
            self.record_starts = np.concatenate([self.record_starts, self.record_starts[1:] + n])
        self.offsets = offsets
        #: global base offset of each shard's first base (n_shards + 1).
        self._base_bounds = np.asarray(self.offsets[self.record_starts], dtype=np.int64)
        self.ids = _ShardColumn(self, "ids")
        self.meta = _ShardColumn(self, "meta")
        self._kmer_cache = {}  # whole-store entries, filled by packed_kmers
        self._materialized: np.ndarray | None = None
        self._materialized_quals: np.ndarray | None = None

    # -- pickling (ships the path, never the arrays) ----------------------

    def __getstate__(self) -> dict:
        return {
            "store_path": self.store_path,
            "cache_budget": self.cache_budget,
            "mirrored": self.mirrored,
        }

    def __setstate__(self, state: dict) -> None:
        self._init_from_store(state["store_path"], state["cache_budget"], state["mirrored"])

    def reopen(self) -> "ShardedReadSet":
        """A fresh view with its own cold cache (for worker processes)."""
        return type(self)(self.store_path, self.cache_budget, self.mirrored)

    def with_reverse_complements(self) -> "ShardedReadSet":
        """The set and its mates (paper §II-A) as a mirrored view of the
        same store: nothing is packed or written."""
        if self.mirrored:
            raise ValueError("the read set already holds its reverse complements")
        return type(self)(self.store_path, self.cache_budget, mirrored=True)

    # -- shard plumbing ---------------------------------------------------

    @property
    def n_shards(self) -> int:
        """The store's shards, and as many mate shards when mirrored."""
        return int(self.record_starts.size - 1)

    def shard_of(self, i: int) -> int:
        """Index of the shard (a mate shard past the store's) holding read ``i``."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        return int(np.searchsorted(self.record_starts, i, side="right") - 1)

    def _shard(self, shard: int) -> dict:
        """One shard's arrays (``data``, ``offsets``, ``has_quals``,
        ``quals``), through the store's cache; a mate shard is built
        from its store shard on a miss."""
        n_stored = self.store.n_shards
        if shard < n_stored:
            return self.store.shard(shard)

        def loader() -> tuple[dict, int]:
            mate = _mate_arrays(self.store.shard(shard - n_stored))
            return mate, sum(a.nbytes for a in mate.values())

        return self.store.cache.get(("mate", self.store_path, shard), loader)

    def _load(self, shard: int) -> dict:
        """:meth:`_shard` read past the cache (whole-set materialization)."""
        n_stored = self.store.n_shards
        if shard < n_stored:
            return self.store.load_shard(shard)
        return _mate_arrays(self.store.load_shard(shard - n_stored))

    def _shard_column(self, shard: int, field: str) -> list:
        """Decoded ids/meta list of one shard (cache-backed); a mate
        shard's are its store shard's, relabelled."""
        n_stored = self.store.n_shards

        def loader() -> tuple[list, int]:
            if shard < n_stored:
                raw = self.store.shard(shard)[field]
                return _json_load(raw), int(raw.nbytes)
            source = self.store.shard(shard - n_stored)
            labels = rc_labels(_json_load(source["ids"]), _json_load(source["meta"]))
            return labels[field == "meta"], int(source[field].nbytes)

        return self.store.cache.get(
            ("column", self.store_path, shard, field), loader
        )

    def _shard_kmers(self, shard: int, k: int, canonical: bool) -> np.ndarray:
        """Packed k-mer values of one shard's concatenated codes."""
        packer = canonical_kmer_codes if canonical else kmer_codes

        def loader() -> tuple[np.ndarray, int]:
            packed = packer(self._shard(shard)["data"], int(k))
            packed.setflags(write=False)
            return packed, int(packed.nbytes)

        return self.store.cache.get(
            ("kmers", self.store_path, shard, int(k), bool(canonical)), loader
        )

    def _locate(self, i: int) -> tuple[dict, int]:
        """(shard arrays, local read index) of global read ``i``."""
        shard = self.shard_of(int(i))
        return self._shard(shard), int(i) - int(self.record_starts[shard])

    # -- ReadSet protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self.record_starts[-1])

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
        return arrays["quals"][lo:hi].astype(np.int64)

    # -- whole-store materialization (explicit; avoid in kernels) ---------

    def to_array(self) -> np.ndarray:
        """The full concatenated code array, loaded shard by shard.

        This is the *explicit* whole-store materialization — O(total
        bases) memory, bypassing the cache so it does not evict the
        working set.  Per-partition kernels must stream instead (lint
        rule MEM001 flags this call inside them).
        """
        if self._materialized is None:
            parts = [self._load(s)["data"] for s in range(self.n_shards)]
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
            for s in range(self.n_shards):
                arrays = self._load(s)
                if bool(arrays["has_quals"]):
                    lo = int(self._base_bounds[s])
                    out[lo : lo + arrays["quals"].size] = arrays["quals"]
            self._materialized_quals = out
        return self._materialized_quals

    # -- block access (each requested shard visited once) ------------------

    def gather_reads(
        self, indices: np.ndarray, quals: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        indices = np.asarray(indices, dtype=np.int64)
        # Distinct requested reads, ascending: one shard's are adjacent
        # both here and in the block, which is copied shard by shard.
        wanted = np.zeros(len(self), dtype=bool)
        wanted[indices] = True
        distinct = np.flatnonzero(wanted)
        sizes = self.lengths[distinct]
        starts = np.cumsum(sizes) - sizes
        codes = np.empty(int(sizes.sum()), dtype=np.uint8)
        scores = np.zeros(codes.size, dtype=np.int64) if quals and self.has_quals else None
        shard_ids = np.searchsorted(self.record_starts, distinct, side="right") - 1
        for s, at in _shard_groups(shard_ids):
            arrays = self._shard(s)
            local = distinct[at] - int(self.record_starts[s])
            src = ragged_positions(arrays["offsets"][local], sizes[at])
            dest = slice(int(starts[at[0]]), int(starts[at[0]]) + src.size)
            codes[dest] = arrays["data"][src]
            if scores is not None and bool(arrays["has_quals"]):
                scores[dest] = arrays["quals"][src]
        return codes, starts[np.cumsum(wanted)[indices] - 1], scores

    # -- k-mer cache API (per-shard materialization) ----------------------

    def kmer_codes_of(self, i: int, k: int, canonical: bool = False) -> np.ndarray:
        shard = self.shard_of(int(i))
        offsets = self._shard(shard)["offsets"]
        local = int(i) - int(self.record_starts[shard])
        lo = int(offsets[local])
        hi = int(offsets[local + 1]) - k + 1
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return self._shard_kmers(shard, k, canonical)[lo:hi]

    def _window_kmers(
        self, k: int, canonical: bool, flat: np.ndarray, idx: np.ndarray, n_windows: np.ndarray
    ) -> np.ndarray:
        # Gathered shard by shard: each shard's k-mers are packed once.
        read_shards = np.searchsorted(self.record_starts, idx, side="right") - 1
        window_shards = np.repeat(read_shards, n_windows)
        values = np.empty(flat.size, dtype=np.int64)
        for s, at in _shard_groups(window_shards):
            packed = self._shard_kmers(s, k, canonical)
            values[at] = packed[flat[at] - int(self._base_bounds[s])]
        return values

    # -- preprocessing (streams into derived stores) ----------------------

    def _blocks(self) -> Iterator[Columns]:
        """Every shard as a column block, in shard order (one visit each)."""
        n_stored = self.store.n_shards
        for s in range(self.n_shards):
            arrays = self._shard(s)
            quals = None
            if self.has_quals:
                quals = arrays["quals"]
                if not bool(arrays["has_quals"]):
                    quals = np.zeros(arrays["data"].size, dtype=np.int64)
            source = self.store.shard(s % n_stored)
            labels = _json_load(source["ids"]), _json_load(source["meta"])
            yield (arrays["data"], arrays["offsets"], quals, *(
                rc_labels(*labels) if s >= n_stored else labels
            ))

    def _rebuilt(
        self, tag: str, params: dict, blocks: Iterable[Columns]
    ) -> "ShardedReadSet":
        """Open-or-pack the derived store keyed by step, params and source.

        One derived shard per non-empty block, so its shards follow the
        source's and may hold fewer than ``shard_size`` reads.
        """
        digest = hashlib.sha256(
            json.dumps({**params, "source": self.store_fingerprint}, sort_keys=True).encode(
                "utf-8"
            )
        ).hexdigest()[:12]
        tag = f"{tag}-{digest}"
        dest = os.path.join(self.store_path, "derived", tag)
        try:
            return ShardedReadSet(dest, self.cache_budget)
        except ValueError:
            pass
        os.makedirs(dest, exist_ok=True)
        _pack_blocks(
            blocks,
            dest,
            shard_size=self.store.manifest.shard_size,
            meta={"derived_from": self.store_fingerprint, "derived_tag": tag},
        )
        return ShardedReadSet(dest, self.cache_budget)


def _mate_arrays(arrays: dict) -> dict:
    """A mate shard: the reverse complements of a store shard's reads."""
    has_quals = bool(arrays["has_quals"])
    data, offsets, quals = rc_bases(
        arrays["data"], arrays["offsets"], arrays["quals"] if has_quals else None
    )
    return {
        "data": data,
        "offsets": offsets,
        "has_quals": arrays["has_quals"],
        "quals": quals if has_quals else arrays["quals"],
    }
