"""Shard-backed ReadSet: equivalence with in-RAM, pickling, memory."""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.io.records import Read
from repro.io.readset import ReadSet
from repro.store import ShardedReadSet, pack_reads


def make_reads(n=57, with_quals=True, seed=11):
    rng = np.random.default_rng(seed)
    reads = []
    for i in range(n):
        length = int(rng.integers(40, 120))
        codes = rng.integers(0, 4, length).astype(np.uint8)
        quals = rng.integers(10, 40, length) if with_quals else None
        reads.append(
            Read(f"r{i}", codes, quals=quals, meta={"lane": i % 3})
        )
    return reads


@pytest.fixture()
def stores(tmp_path):
    reads = make_reads()
    path = str(tmp_path / "reads.store")
    pack_reads(iter(reads), path, shard_size=10)
    return ReadSet(reads), ReadSet.open(path), path


class TestEquivalence:
    def test_open_returns_sharded_readset(self, stores):
        _, opened, _ = stores
        assert isinstance(opened, ShardedReadSet)
        assert isinstance(opened, ReadSet)

    def test_per_read_accessors_match(self, stores):
        ram, opened, _ = stores
        assert len(opened) == len(ram)
        for i in range(len(ram)):
            assert (opened.codes_of(i) == ram.codes_of(i)).all()
            assert (opened.quals_of(i) == ram.quals_of(i)).all()
            assert opened.ids[i] == ram.ids[i]
            assert opened.meta[i] == ram.meta[i]

    def test_bulk_primitives_match(self, stores):
        ram, opened, _ = stores
        assert (opened.to_array() == ram.data).all()
        assert (opened.offsets[:] == ram.offsets).all()
        flat = np.array([0, 5, 999, 1203, 17])
        assert (opened.gather_bases(flat) == ram.gather_bases(flat)).all()
        lo = int(ram.offsets[3])
        ln = int(ram.offsets[4] - ram.offsets[3])
        assert (opened.base_span(lo, ln) == ram.base_span(lo, ln)).all()

    def test_kmer_primitives_match(self, stores):
        ram, opened, _ = stores
        for i in (0, 9, 10, 56):  # shard interior and boundaries
            assert (
                opened.kmer_codes_of(i, 16) == ram.kmer_codes_of(i, 16)
            ).all()
        idx = np.array([3, 11, 29, 41])
        for a, b in zip(opened.kmer_table(16, idx), ram.kmer_table(16, idx)):
            assert (a == b).all()

    def test_many_small_shards_unsorted_positions(self, tmp_path):
        # 29 shards of two reads; positions and reads arrive shuffled
        # and repeated, so every shard's group is scattered.
        reads = make_reads()
        path = str(tmp_path / "small.store")
        pack_reads(iter(reads), path, shard_size=2)
        ram, opened = ReadSet(reads), ReadSet.open(path)
        assert opened.store.n_shards == 29
        rng = np.random.default_rng(5)
        flat = rng.integers(0, ram.total_bases, size=4000)
        gathered = opened.gather_bases(flat)
        assert gathered.dtype == np.uint8
        assert np.array_equal(gathered, ram.gather_bases(flat))
        assert opened.gather_bases(np.empty(0, dtype=np.int64)).size == 0
        idx = rng.integers(0, len(ram), size=80)
        for a, b in zip(opened.kmer_table(16, idx), ram.kmer_table(16, idx)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_derived_sets_match(self, stores):
        ram, opened, path = stores
        rt, ot = ram.trimmed(trim5=2, min_length=45), None
        ot = opened.trimmed(trim5=2, min_length=45)
        assert isinstance(ot, ShardedReadSet)
        assert len(ot) == len(rt)
        for i in range(len(rt)):
            assert (ot.codes_of(i) == rt.codes_of(i)).all()
        rrc, orc = ram.with_reverse_complements(), opened.with_reverse_complements()
        assert isinstance(orc, ShardedReadSet)
        assert len(orc) == len(rrc)
        for i in (0, len(rrc) - 1):
            assert (orc.codes_of(i) == rrc.codes_of(i)).all()

    def test_derived_store_is_reused(self, stores):
        _, opened, _ = stores
        first = opened.trimmed(trim5=2, min_length=45)
        again = opened.trimmed(trim5=2, min_length=45)
        assert first.store_path == again.store_path


class TestPickleContract:
    """Satellite: shard-backed sets ship as (path, budget), not arrays."""

    def test_pickle_is_tiny(self, stores):
        _, opened, _ = stores
        opened.to_array()  # materialize caches that must NOT be pickled
        blob = pickle.dumps(opened)
        assert len(blob) < 512

    def test_state_has_no_arrays(self, stores):
        _, opened, path = stores
        state = opened.__getstate__()
        assert set(state) == {"store_path", "cache_budget"}
        assert state["store_path"] == path

    def test_unpickled_set_reopens_and_matches(self, stores):
        ram, opened, _ = stores
        clone = pickle.loads(pickle.dumps(opened))
        assert isinstance(clone, ShardedReadSet)
        for i in (0, 13, 56):
            assert (clone.codes_of(i) == ram.codes_of(i)).all()

    def test_reopen_starts_with_cold_cache(self, stores):
        _, opened, _ = stores
        opened.to_array()
        fresh = opened.reopen()
        assert fresh.store.cache.stats().misses == 0
        assert len(fresh.store.cache) == 0


def _forked_scan(blob, budget, conn):
    import tracemalloc

    tracemalloc.start()
    reads = pickle.loads(blob)
    total = 0
    for i in range(len(reads)):
        total += int(reads.codes_of(i).sum())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    conn.send((total, peak, reads.store.cache.stats().evictions))
    conn.close()


class TestForkedWorkerMemory:
    def test_forked_worker_peak_stays_bounded(self, tmp_path):
        """A worker streaming a store must peak at O(cache budget).

        The store here is ~1.5 MB of reads; the worker's cache budget
        is 64 KiB.  If unpickling shipped the arrays, or the scan
        materialized the store, the child's tracked peak would be
        megabytes — the assertion pins it under 4x the store's largest
        shard, an order of magnitude below the whole store.
        """
        rng = np.random.default_rng(3)
        reads = [
            Read(f"x{i}", rng.integers(0, 4, 150).astype(np.uint8))
            for i in range(10_000)
        ]
        path = str(tmp_path / "big.store")
        pack_reads(iter(reads), path, shard_size=256)
        budget = 64 * 1024
        opened = ReadSet.open(path, cache_budget=budget)
        blob = pickle.dumps(opened)
        assert len(blob) < 512

        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_forked_scan, args=(blob, budget, child))
        proc.start()
        total, peak, evictions = parent.recv()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        expected = sum(int(r.codes.sum()) for r in reads)
        assert total == expected
        store_bytes = 10_000 * 150
        assert peak < store_bytes // 4  # nowhere near a full materialization
        assert evictions > 0  # the 64 KiB budget really was enforced
