"""Generic sharded ``.npz`` store: fixed-capacity shards + manifest.

A :class:`ShardWriter` streams record batches into numbered shard
files (``shard-00000.npz``, ...), each written atomically through the
same temp-file + ``os.replace`` + directory-fsync path the stage
checkpoints use, and finalizes with a ``manifest.json`` once every
shard is durable.  Because the manifest is written *last*, a crash
mid-pack is detectable (shards without a manifest) and resumable:
re-running the pack with ``resume=True`` verifies the already-durable
shards and skips rewriting them, continuing from the first missing or
short shard.

A :class:`ShardedStore` opens the manifest and serves shard payloads
through a byte-budgeted :class:`~repro.store.cache.ShardCache`, so the
caller's peak memory is O(cache budget), not O(store).
"""

from __future__ import annotations

import os
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.io.atomic import atomic_savez
from repro.store.cache import ShardCache
from repro.store.manifest import STORE_VERSION, ShardInfo, StoreManifest

__all__ = [
    "DEFAULT_CACHE_BUDGET",
    "shard_name",
    "ShardWriter",
    "ShardedStore",
]

#: default shard-cache byte budget (64 MiB) used when callers do not
#: configure one — small enough to matter at 10^6+ reads, large enough
#: that D-scale datasets never evict.
DEFAULT_CACHE_BUDGET = 64 * 1024 * 1024


def shard_name(index: int) -> str:
    return f"shard-{index:05d}.npz"


def _check_stamp(data, path: str, kind: str, index: int, n_records: int) -> None:
    """Raise ``ValueError`` unless an open shard archive is shard
    ``index`` of a current-version ``kind`` store holding ``n_records``
    records."""
    missing = sorted(
        {"store_version", "store_kind", "shard_index", "n_records"} - set(data.files)
    )
    if missing:
        raise ValueError(f"foreign shard {path!r}: missing keys {missing}")
    found = int(data["store_version"])
    if found != STORE_VERSION:
        raise ValueError(
            f"unsupported shard version {found} in {path!r} "
            f"(this build reads version {STORE_VERSION})"
        )
    if str(data["store_kind"]) != kind:
        raise ValueError(
            f"shard {path!r} belongs to a {str(data['store_kind'])!r} "
            f"store, expected {kind!r}"
        )
    if int(data["shard_index"]) != index:
        raise ValueError(
            f"shard {path!r} is stamped as shard "
            f"{int(data['shard_index'])}, expected {index} — "
            "was it moved between stores?"
        )
    if int(data["n_records"]) != n_records:
        raise ValueError(
            f"shard {path!r} holds {int(data['n_records'])} records, "
            f"manifest expects {n_records}"
        )


def _array_nbytes(arrays: dict) -> int:
    total = 0
    for value in arrays.values():
        total += getattr(value, "nbytes", 0) or 0
    return int(total)


class ShardWriter:
    """Append-only builder of one sharded store directory.

    Subclass-free and kind-agnostic: callers hand complete per-shard
    array dicts to :meth:`write_shard` (the reads packer chunks its
    stream to shard capacity first).  Set
    ``resume=True`` to skip shards that already survived a previous
    crashed pack.
    """

    def __init__(
        self,
        path: str | Path,
        kind: str,
        shard_size: int,
        compressed: bool = False,
        resume: bool = False,
        meta: dict | None = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.path = str(path)
        self.kind = kind
        self.shard_size = int(shard_size)
        self.compressed = bool(compressed)
        self.resume = bool(resume)
        self.meta = dict(meta or {})
        self.shards: list[ShardInfo] = []
        self.reused_shards = 0
        os.makedirs(self.path, exist_ok=True)
        if not resume:
            self._clear_stale()

    def _clear_stale(self) -> None:
        """Drop leftovers of any previous pack (fresh, non-resume build)."""
        for entry in os.listdir(self.path):
            if entry == "manifest.json" or entry.startswith("shard-"):
                with_path = os.path.join(self.path, entry)
                if os.path.isfile(with_path):
                    os.remove(with_path)

    def _reusable(self, final: str, index: int, n_records: int) -> bool:
        """True when a previous pack already wrote this exact shard."""
        if not os.path.exists(final):
            return False
        try:
            with np.load(final) as data:
                _check_stamp(data, final, self.kind, index, n_records)
        except (zipfile.BadZipFile, OSError, ValueError):
            return False
        return True

    def write_shard(self, arrays: dict, n_records: int) -> ShardInfo:
        """Durably write the next shard (or reuse a surviving one)."""
        index = len(self.shards)
        name = shard_name(index)
        final = os.path.join(self.path, name)
        payload = dict(arrays)
        payload["store_version"] = np.int64(STORE_VERSION)
        payload["store_kind"] = np.str_(self.kind)
        payload["shard_index"] = np.int64(index)
        payload["n_records"] = np.int64(n_records)
        if self.resume and self._reusable(final, index, n_records):
            self.reused_shards += 1
        else:
            atomic_savez(final, compressed=self.compressed, **payload)
        info = ShardInfo(
            name=name, n_records=int(n_records), nbytes=os.path.getsize(final)
        )
        self.shards.append(info)
        return info

    def finalize(self, extra_meta: dict | None = None) -> StoreManifest:
        """Write the manifest (the commit point of the whole pack)."""
        meta = dict(self.meta)
        if extra_meta:
            meta.update(extra_meta)
        manifest = StoreManifest(
            kind=self.kind,
            shard_size=self.shard_size,
            shards=list(self.shards),
            meta=meta,
        )
        manifest.save(self.path)
        return manifest


class ShardedStore:
    """Read view of a sharded store directory with an LRU shard cache."""

    def __init__(
        self,
        path: str | Path,
        kind: str | None = None,
        cache_budget: int = DEFAULT_CACHE_BUDGET,
        cache: ShardCache | None = None,
    ) -> None:
        self.path = str(path)
        self.manifest = StoreManifest.load(self.path, kind=kind)
        self.cache = cache if cache is not None else ShardCache(cache_budget)
        counts = np.fromiter(
            (s.n_records for s in self.manifest.shards),
            dtype=np.int64,
            count=self.manifest.n_shards,
        )
        #: cumulative record counts: shard ``s`` holds records
        #: ``[record_starts[s], record_starts[s + 1])``.
        self.record_starts = np.zeros(self.manifest.n_shards + 1, dtype=np.int64)
        np.cumsum(counts, out=self.record_starts[1:])

    @property
    def kind(self) -> str:
        return self.manifest.kind

    @property
    def n_records(self) -> int:
        return int(self.record_starts[-1])

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    def fingerprint(self) -> str:
        return self.manifest.fingerprint()

    def shard_of(self, record: int) -> int:
        """Index of the shard holding global ``record``."""
        if not 0 <= record < self.n_records:
            raise IndexError(record)
        return int(np.searchsorted(self.record_starts, record, side="right") - 1)

    def shard_path(self, index: int) -> str:
        return os.path.join(self.path, self.manifest.shards[index].name)

    def load_shard(self, index: int) -> dict:
        """Load one shard from disk, validating its stamp (no cache)."""
        info = self.manifest.shards[index]
        path = self.shard_path(index)
        try:
            data = np.load(path)
        except (zipfile.BadZipFile, OSError, ValueError) as exc:
            raise ValueError(f"corrupt shard {path!r}: {exc}") from exc
        with data:
            _check_stamp(data, path, self.kind, index, info.n_records)
            return {
                key: data[key]
                for key in data.files
                if key not in ("store_version", "store_kind", "shard_index")
            }

    def shard(self, index: int) -> dict:
        """One shard's arrays, served through the LRU cache."""
        if not 0 <= index < self.n_shards:
            raise IndexError(index)

        def loader() -> tuple[dict, int]:
            arrays = self.load_shard(index)
            return arrays, _array_nbytes(arrays)

        return self.cache.get(("shard", self.path, index), loader)

    def derived(self, index: int, tag, builder) -> np.ndarray:
        """A per-shard derived array (e.g. packed k-mers), cache-backed.

        ``builder(shard_arrays)`` runs on a miss and must return a
        numpy array; its ``nbytes`` charge the same budget the raw
        shards use, so derived data participates in eviction.
        """

        def loader() -> tuple[np.ndarray, int]:
            value = builder(self.shard(index))
            return value, int(getattr(value, "nbytes", 0) or 0)

        return self.cache.get(("derived", self.path, index, tag), loader)

    def iter_shards(self) -> Iterator[tuple[int, dict]]:
        """Yield ``(index, arrays)`` for every shard, in order."""
        for index in range(self.n_shards):
            yield index, self.shard(index)
