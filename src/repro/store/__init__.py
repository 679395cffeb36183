"""Out-of-core sharded storage (docs/architecture.md, storage layer).

Fixed-capacity, CRC-checked flat shard files plus a manifest, served
through a byte-budgeted LRU cache, let every backend stream 10^6–10^7-read
datasets with peak memory O(shard), not O(dataset):

- :mod:`repro.store.cache` — the LRU byte-budget cache.
- :mod:`repro.store.manifest` — manifest format and fingerprints.
- :mod:`repro.store.sharded` — generic shard writer/reader.
- :mod:`repro.store.reads` — :func:`pack_reads` + :class:`ShardedReadSet`.
- :mod:`repro.store.verify` — offline scrub (``repro verify-store``).
"""

from repro.store.cache import CacheStats, ShardCache
from repro.store.manifest import (
    MANIFEST_NAME,
    STORE_VERSION,
    ShardInfo,
    StoreManifest,
)
from repro.store.reads import (
    DEFAULT_SHARD_SIZE,
    OFFSETS_NAME,
    READS_KIND,
    ShardedReadSet,
    pack_reads,
)
from repro.store.sharded import (
    DEFAULT_CACHE_BUDGET,
    ShardedStore,
    ShardWriter,
    shard_name,
)
from repro.store.verify import ShardReport, VerifyReport, verify_store

__all__ = [
    "CacheStats",
    "ShardCache",
    "ShardInfo",
    "StoreManifest",
    "STORE_VERSION",
    "MANIFEST_NAME",
    "ShardWriter",
    "ShardedStore",
    "shard_name",
    "DEFAULT_CACHE_BUDGET",
    "DEFAULT_SHARD_SIZE",
    "OFFSETS_NAME",
    "READS_KIND",
    "ShardedReadSet",
    "pack_reads",
    "ShardReport",
    "VerifyReport",
    "verify_store",
]
