"""Generic sharded store: fixed-capacity flat shard files + manifest.

A :class:`ShardWriter` streams record batches into numbered shard
files (``shard-00000.bin``, ...), each written through
:func:`~repro.io.atomic.atomic_write`, and finalizes with a
``manifest.json`` once every shard is durable.  Because the manifest is
written *last*, a crash mid-pack is detectable (shards without a
manifest) and resumable: ``resume=True`` reuses every shard that
already passes its CRC and stamp and rewrites the rest.

A shard file is an 8-byte magic, a ``u32`` CRC-32 of every later
byte, a ``u64`` header length, a JSON header (the stamp plus a table of
column ``name``, ``dtype``, ``shape``, ``offset``, ``nbytes``) and the
raw columns at 16-byte boundaries.  It is read with one ``read`` and
served as read-only ``np.frombuffer`` views of that buffer; a torn,
truncated or bit-flipped shard raises ``ValueError`` naming the file.
A store-wide *table* (the reads store's global offsets) is one more
file of the same format, stamped with shard index ``None`` and the
store's record count.  :func:`encode_arrays` and :func:`read_arrays`
are the format without the stamp; the stage checkpoint
(:mod:`repro.io.store`) is written and read with them too.

A :class:`ShardedStore` opens the manifest and serves shard payloads
through a byte-budgeted :class:`~repro.store.cache.ShardCache`, so the
caller's peak memory is O(cache budget), not O(store).
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.io.atomic import atomic_write
from repro.store.cache import ShardCache
from repro.store.manifest import STORE_VERSION, ShardInfo, StoreManifest

__all__ = [
    "DEFAULT_CACHE_BUDGET",
    "encode_arrays",
    "read_arrays",
    "SHARD_PATTERN",
    "shard_name",
    "ShardWriter",
    "ShardedStore",
]

#: default shard-cache byte budget (64 MiB) used when callers do not
#: configure one — small enough to matter at 10^6+ reads, large enough
#: that D-scale datasets never evict.
DEFAULT_CACHE_BUDGET = 64 * 1024 * 1024

#: every name :func:`shard_name` produces, and nothing else.
SHARD_PATTERN = re.compile(r"shard-\d{5,}\.bin")

_MAGIC = b"\x89RSHARD\n"
_PREFIX = struct.Struct("<8sIQ")  # magic, crc, hlen
_ALIGN = 16


def shard_name(index: int) -> str:
    return f"shard-{index:05d}.bin"


def encode_arrays(arrays: dict, **header) -> bytes:
    """The bytes of one flat array file whose JSON header holds ``header``."""
    columns, blobs, offset = [], [], 0
    for name, value in arrays.items():
        arr = np.asarray(value)
        blob = arr.tobytes()
        columns.append(
            dict(name=name, dtype=arr.dtype.str, shape=arr.shape, offset=offset, nbytes=len(blob))
        )
        blobs += [blob, b"\0" * (-len(blob) % _ALIGN)]
        offset += len(blob) + len(blobs[-1])
    head = json.dumps({**header, "columns": columns}).encode("utf-8")
    head += b" " * (-(_PREFIX.size + len(head)) % _ALIGN)
    body = b"".join([struct.pack("<Q", len(head)), head, *blobs])
    return _MAGIC + struct.pack("<I", zlib.crc32(body)) + body


def _check_stamp(
    header: dict, path: str, kind: str, index: int | None, n_records: int
) -> None:
    """Raise ``ValueError`` unless a shard header stamps shard ``index``
    of a current-version ``kind`` store holding ``n_records`` records."""
    missing = sorted(
        {"store_version", "store_kind", "shard_index", "n_records"} - set(header)
    )
    if missing:
        raise ValueError(f"foreign shard {path!r}: missing keys {missing}")
    found = header["store_version"]
    if found != STORE_VERSION:
        raise ValueError(
            f"unsupported shard version {found} in {path!r} "
            f"(this build reads version {STORE_VERSION})"
        )
    if header["store_kind"] != kind:
        raise ValueError(
            f"shard {path!r} belongs to a {header['store_kind']!r} "
            f"store, expected {kind!r}"
        )
    if header["shard_index"] != index:
        raise ValueError(
            f"shard {path!r} is stamped as shard "
            f"{header['shard_index']}, expected {index} — "
            "was it moved between stores?"
        )
    if header["n_records"] != n_records:
        raise ValueError(
            f"shard {path!r} holds {header['n_records']} records, "
            f"manifest expects {n_records}"
        )


def _write_stamped(
    path: str, arrays: dict, kind: str, index: int | None, n_records: int
) -> None:
    """Durably write ``arrays`` as one stamped, CRC-checked file."""
    blob = encode_arrays(
        arrays,
        store_version=STORE_VERSION,
        store_kind=kind,
        shard_index=index,
        n_records=int(n_records),
    )
    atomic_write(path, lambda fh: fh.write(blob))


def read_arrays(path: str) -> tuple[dict, dict]:
    """A flat array file's header and columns, the columns as read-only
    views of one read of ``path``.

    Raises ``ValueError`` naming ``path`` when the file is missing,
    torn, bit-flipped or not an array file.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"unreadable file {path!r}: {exc}") from exc
    if len(raw) < _PREFIX.size or raw[:8] != _MAGIC:
        raise ValueError(f"foreign file {path!r}: not a repro array file")
    _, crc, hlen = _PREFIX.unpack_from(raw)
    if zlib.crc32(memoryview(raw)[12:]) != crc:  # every byte after the CRC
        raise ValueError(f"corrupt file {path!r}: CRC mismatch (torn or bit-flipped)")
    start = _PREFIX.size + hlen
    try:
        header = json.loads(raw[_PREFIX.size : start])
        columns = {
            col["name"]: np.frombuffer(
                raw,
                np.dtype(col["dtype"]),
                count=math.prod(col["shape"]),
                offset=start + col["offset"],
            ).reshape(col["shape"])
            for col in header.pop("columns")
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt file {path!r}: {exc!r}") from exc
    return header, columns


def _read_shard(path: str, kind: str, index: int | None, n_records: int) -> dict:
    """One shard's columns, checked against its stamp (see :func:`read_arrays`)."""
    header, columns = read_arrays(path)
    _check_stamp(header, path, kind, index, n_records)
    return columns


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
        resume: bool = False,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.path = str(path)
        self.kind = kind
        self.shard_size = int(shard_size)
        self.resume = bool(resume)
        self.shards: list[ShardInfo] = []
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
        try:
            _read_shard(final, self.kind, index, n_records)
        except ValueError:
            return False
        return True

    def write_shard(self, arrays: dict, n_records: int) -> ShardInfo:
        """Durably write the next shard (or reuse a surviving one)."""
        index = len(self.shards)
        name = shard_name(index)
        final = os.path.join(self.path, name)
        if not (self.resume and self._reusable(final, index, n_records)):
            _write_stamped(final, arrays, self.kind, index, n_records)
        info = ShardInfo(name, int(n_records), os.path.getsize(final))
        self.shards.append(info)
        return info

    def write_table(self, name: str, arrays: dict) -> None:
        """Durably write a store-wide table covering every shard so far."""
        n_records = sum(s.n_records for s in self.shards)
        _write_stamped(os.path.join(self.path, name), arrays, self.kind, None, n_records)

    def finalize(self, meta: dict | None = None) -> StoreManifest:
        """Write the manifest (the commit point of the whole pack)."""
        manifest = StoreManifest(
            kind=self.kind,
            shard_size=self.shard_size,
            shards=list(self.shards),
            meta=dict(meta or {}),
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
    ) -> None:
        self.path = str(path)
        self.manifest = StoreManifest.load(self.path, kind=kind)
        self.cache = ShardCache(cache_budget)
        #: cumulative record counts: shard ``s`` holds records
        #: ``[record_starts[s], record_starts[s + 1])``.
        self.record_starts = np.cumsum(
            [0] + [s.n_records for s in self.manifest.shards], dtype=np.int64
        )

    @property
    def kind(self) -> str:
        return self.manifest.kind

    @property
    def n_records(self) -> int:
        return int(self.record_starts[-1])

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    def shard_path(self, index: int) -> str:
        return os.path.join(self.path, self.manifest.shards[index].name)

    def load_shard(self, index: int) -> dict:
        """Load one shard from disk, checking its CRC and stamp (no cache)."""
        n_records = self.manifest.shards[index].n_records
        return _read_shard(self.shard_path(index), self.kind, index, n_records)

    def load_table(self, name: str) -> dict:
        """Load a store-wide table, checking its CRC and stamp (no cache)."""
        return _read_shard(os.path.join(self.path, name), self.kind, None, self.n_records)

    def shard(self, index: int) -> dict:
        """One shard's arrays, served through the LRU cache."""
        if not 0 <= index < self.n_shards:
            raise IndexError(index)

        def loader() -> tuple[dict, int]:
            arrays = self.load_shard(index)
            return arrays, sum(a.nbytes for a in arrays.values())

        return self.cache.get(("shard", self.path, index), loader)

    def iter_shards(self) -> Iterator[tuple[int, dict]]:
        """Yield ``(index, arrays)`` for every shard, in order."""
        for index in range(self.n_shards):
            yield index, self.shard(index)
