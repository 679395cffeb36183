"""Tests for the byte-budgeted LRU shard cache."""

import sys
import threading
import time

import pytest

from repro.store import ShardCache


def loader_of(value, nbytes):
    return lambda: (value, nbytes)


class TestLRUOrder:
    def test_eviction_is_least_recently_used_first(self):
        cache = ShardCache(budget_bytes=30)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        cache.put("c", "C", 10)
        # Touch "a" so "b" becomes the LRU entry.
        assert cache.get("a", loader_of(None, 0)) == "A"
        cache.put("d", "D", 10)
        assert "b" not in cache
        assert set(cache.keys()) == {"c", "a", "d"}

    def test_hit_moves_entry_to_mru(self):
        cache = ShardCache(budget_bytes=100)
        cache.put("a", "A", 1)
        cache.put("b", "B", 1)
        cache.get("a", loader_of(None, 0))
        assert cache.keys() == ["b", "a"]  # LRU first

    def test_refresh_updates_size_accounting(self):
        cache = ShardCache(budget_bytes=100)
        cache.put("a", "A", 10)
        cache.put("a", "A2", 30)
        assert cache.current_bytes == 30
        assert len(cache) == 1


class TestByteBudget:
    def test_interleaved_sizes_evict_until_under_budget(self):
        cache = ShardCache(budget_bytes=100)
        cache.put("small1", 1, 10)
        cache.put("big1", 2, 60)
        cache.put("small2", 3, 10)
        cache.put("big2", 4, 60)  # 140 total -> evict small1 (30 over), big1
        assert cache.current_bytes <= 100
        assert "small1" not in cache and "big1" not in cache
        assert "small2" in cache and "big2" in cache
        assert cache.stats().evictions == 2

    def test_lone_over_budget_entry_is_admitted(self):
        cache = ShardCache(budget_bytes=10)
        value = cache.get("huge", loader_of("X" * 50, 50))
        assert value == "X" * 50
        assert "huge" in cache  # progress beats purity
        cache.put("next", "Y", 5)
        assert "huge" not in cache  # but it goes first

    def test_zero_budget_retains_nothing(self):
        cache = ShardCache(budget_bytes=0)
        assert cache.get("a", loader_of("A", 10)) == "A"
        assert len(cache) == 0
        assert cache.current_bytes == 0
        # Every access is a miss: the loader runs again.
        calls = []

        def loader():
            calls.append(1)
            return "A", 10

        cache.get("a", loader)
        cache.get("a", loader)
        assert len(calls) == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ShardCache(budget_bytes=-1)

    def test_negative_nbytes_rejected(self):
        cache = ShardCache(budget_bytes=10)
        with pytest.raises(ValueError, match="non-negative"):
            cache.put("a", "A", -5)


class TestCounters:
    def test_hit_miss_eviction_counters(self):
        cache = ShardCache(budget_bytes=20)
        loads = []

        def loader(key):
            def load():
                loads.append(key)
                return key.upper(), 10

            return load

        cache.get("a", loader("a"))  # miss
        cache.get("a", loader("a"))  # hit
        cache.get("b", loader("b"))  # miss
        cache.get("c", loader("c"))  # miss -> evicts "a"
        cache.get("a", loader("a"))  # miss again -> evicts "b"
        s = cache.stats()
        assert (s.hits, s.misses, s.evictions) == (1, 4, 2)
        assert s.entries == 2
        assert s.current_bytes == 20
        assert s.budget_bytes == 20
        assert s.hit_rate == pytest.approx(1 / 5)
        assert loads == ["a", "b", "c", "a"]

    def test_stats_to_dict_roundtrip(self):
        cache = ShardCache(budget_bytes=5)
        d = cache.stats().to_dict()
        assert d["hit_rate"] == 0.0
        assert set(d) == {
            "hits",
            "misses",
            "evictions",
            "entries",
            "current_bytes",
            "budget_bytes",
            "hit_rate",
        }

    def test_clear(self):
        cache = ShardCache(budget_bytes=100)
        cache.put("a", "A", 10)
        cache.put("b", "B", 10)
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_concurrent_gets_keep_the_accounting_exact(self):
        # The lock keeps a cache shared between threads exact: more
        # threads than cores, a budget that evicts on nearly every load.
        cache = ShardCache(budget_bytes=30)

        def load(key):
            time.sleep(0)  # a shard read releases the GIL mid-miss
            return key, 10

        def hammer(seed):
            for i in range(2000):
                key = (seed * 7 + i * 3) % 11
                assert cache.get(key, lambda k=key: load(k)) == key

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        s = cache.stats()
        assert s.hits + s.misses == 8 * 2000
        assert s.current_bytes == 10 * s.entries <= 30
        assert s.misses - s.evictions == s.entries
