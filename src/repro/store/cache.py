"""LRU shard cache with a configurable byte budget.

Every out-of-core structure in :mod:`repro.store` funnels its shard
loads through one :class:`ShardCache`: the cache maps an opaque key
(shard id, or a derived entry such as a shard's packed k-mer array) to
a loaded value plus its byte size, evicts least-recently-used entries
when the budget is exceeded, and keeps hit/miss/eviction counters so
the scale bench can report locality.

A single entry larger than the whole budget is still admitted (the
caller needs the data to make progress) — it simply evicts everything
else and is itself evicted as soon as another entry arrives.  A budget
of 0 therefore degenerates to "load on every access", which is the
correct worst case, not an error.

One lock serialises every operation, so threads may share one read set
and so one cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "ShardCache"]


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's accounting."""

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    budget_bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
            "hit_rate": self.hit_rate,
        }


class ShardCache:
    """Byte-budgeted LRU cache for shard payloads and derived arrays."""

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        self.budget_bytes = int(budget_bytes)
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> list[Hashable]:
        """Current keys, least recently used first."""
        return list(self._entries)

    def get(self, key: Hashable, loader: Callable[[], tuple[Any, int]]) -> Any:
        """The cached value for ``key``, loading (and admitting) on miss.

        ``loader`` returns ``(value, nbytes)``; it only runs on a miss.
        A hit moves the entry to most-recently-used position.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[0]
            self.misses += 1
            value, nbytes = loader()
            self.put(key, value, nbytes)
            return value

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Admit (or refresh) an entry, evicting LRU entries over budget."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._entries[key] = (value, int(nbytes))
            self.current_bytes += int(nbytes)
            self._evict()

    def _evict(self) -> None:
        while self.current_bytes > self.budget_bytes and len(self._entries) > 1:
            _, (_, nbytes) = self._entries.popitem(last=False)
            self.current_bytes -= nbytes
            self.evictions += 1
        # A lone over-budget entry stays admitted (progress beats purity)
        # unless the budget is zero, in which case nothing is retained.
        if (
            self.budget_bytes == 0
            and self._entries
            and self.current_bytes > 0
        ):
            self._entries.popitem(last=False)
            self.current_bytes = 0
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
            current_bytes=self.current_bytes,
            budget_bytes=self.budget_bytes,
        )
