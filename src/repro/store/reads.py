"""Shard-backed reads: stream a FASTA/FASTQ-scale read set from disk.

:func:`pack_reads` converts any stream of :class:`~repro.io.records.Read`
objects into a sharded store directory while holding at most one shard
of reads in memory; :class:`ShardedReadSet` opens that directory as a
:class:`~repro.io.readset.ReadSet` whose shards are the store's.  The
read-set methods are :class:`~repro.io.readset.ReadSet`'s own; this
class supplies only where a shard comes from: loaded from disk through
one byte-budgeted LRU cache, which holds the derived shards (mates,
packed k-mers) too, so peak memory is O(shard), not O(reads).

Layout of a reads store::

    store/
      manifest.json          # written last; certifies a complete pack
      offsets.bin            # global CSR offsets, a CRC-checked table
      shard-00000.bin        # data, offsets (local), ids, meta, quals
      shard-00001.bin        #   (scores as uint8); CRC-checked, read-only
      derived/               # trimmed children, written shard by
                             #   shard from the parent's

A set's reverse complements are not stored: the mirrored view
(:meth:`~repro.io.readset.ReadSet.with_reverse_complements`) builds
mate shard ``S + s`` from shard ``s`` when it loads.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.io.readset import Columns, ReadSet, read_columns
from repro.io.records import Read
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
                "quals": quals if has_quals else np.empty(0, dtype=np.uint8),
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


class ShardedReadSet(ReadSet):
    """A ReadSet whose shards live in a sharded store on disk.

    Only where shards come from differs from the in-RAM
    :class:`~repro.io.readset.ReadSet`: a shard is loaded (and
    CRC-checked) through the store's byte-budgeted LRU cache, which
    also holds the derived shards — mates and packed k-mers — and
    trimming packs its output into a derived store under
    ``<store>/derived/`` instead of RAM.  The global offsets are read
    once from ``offsets.bin``.

    Pickling serializes only ``(store path, cache budget, mirrored)``:
    a worker process re-opens the shards by path rather than receiving
    (or copy-on-write-inheriting) any mapped array.
    """

    def __init__(
        self, path: str | Path, cache_budget: int = DEFAULT_CACHE_BUDGET, mirrored: bool = False
    ) -> None:
        self.__setstate__(
            {"store_path": str(path), "cache_budget": int(cache_budget), "mirrored": bool(mirrored)}
        )

    def __getstate__(self) -> dict:
        return {
            "store_path": self.store_path,
            "cache_budget": self.cache_budget,
            "mirrored": self.mirrored,
        }

    def __setstate__(self, state: dict) -> None:
        path = self.store_path = state["store_path"]
        self.cache_budget = state["cache_budget"]
        self.store = ShardedStore(path, kind=READS_KIND, cache_budget=self.cache_budget)
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
        #: manifest content digest — folded into assembly checkpoint
        #: fingerprints so a resume against changed shards is refused.
        self.store_fingerprint = self.store.manifest.fingerprint()
        if state["mirrored"]:
            self.store_fingerprint += "+rc"
        has_quals = bool(self.store.manifest.meta.get("has_quals", False))
        self._open(offsets, self.store.record_starts, has_quals, state["mirrored"])

    def reopen(self) -> "ShardedReadSet":
        """A fresh view with its own cold cache (for worker processes)."""
        return type(self)(self.store_path, self.cache_budget, self.mirrored)

    def _source_bases(
        self, shard: int, cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        arrays = self.store.shard(shard) if cache else self.store.load_shard(shard)
        quals = arrays["quals"] if bool(arrays["has_quals"]) else None
        return arrays["data"], arrays["offsets"], quals

    def _source_labels(self, shard: int) -> tuple[list, list]:
        def loader() -> tuple[tuple[list, list], int]:
            arrays = self.store.shard(shard)
            raw = arrays["ids"], arrays["meta"]
            return tuple(map(_json_load, raw)), sum(int(a.nbytes) for a in raw)

        return self._cached(("labels", shard), loader)

    def _cached(self, key: tuple, loader):
        return self.store.cache.get(key, loader)

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
