"""Shard-backed ReadSet: equivalence with in-RAM, pickling, memory."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import Read
from repro.io.readset import ReadSet
from repro.store import ShardedReadSet, ShardedStore, pack_reads
from tests.store.test_sharded import rewrite_shard


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


def block_reads(reads, indices, quals=True):
    """A ``gather_reads`` block unpacked to per-request (codes, scores)."""
    codes, starts, scores = reads.gather_reads(indices, quals=quals)
    assert codes.dtype == np.uint8 and starts.dtype == np.int64
    spans = [
        slice(int(s), int(s) + int(n))
        for s, n in zip(starts, reads.lengths[np.asarray(indices, dtype=np.int64)])
    ]
    return [(codes[sp], None if scores is None else scores[sp]) for sp in spans]


def assert_same_block(opened, ram, indices, quals=True):
    got, want = block_reads(opened, indices, quals), block_reads(ram, indices, quals)
    assert len(got) == len(want) == len(indices)
    for (codes, scores), (ram_codes, ram_scores) in zip(got, want):
        assert np.array_equal(codes, ram_codes)
        assert (scores is None) == (ram_scores is None)
        if scores is not None:
            assert scores.dtype == np.int64 and np.array_equal(scores, ram_scores)


def assert_same_columns(opened, ram):
    """Every column of a shard-backed set equals the in-RAM set's."""
    assert len(opened) == len(ram) and opened.has_quals == ram.has_quals
    assert np.array_equal(opened.offsets, ram.offsets)
    assert np.array_equal(opened.to_array(), ram.data)
    if ram.has_quals:
        assert opened.quals.dtype == np.int64
        assert np.array_equal(opened.quals, ram.quals)
    assert list(opened.ids) == list(ram.ids)
    assert list(opened.meta) == list(ram.meta)


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
        assert np.array_equal(opened.lengths, ram.lengths)
        assert_same_block(opened, ram, np.array([0, 5, 56, 9, 10, 5]))

    def test_kmer_primitives_match(self, stores):
        ram, opened, _ = stores
        for i in (0, 9, 10, 56):  # shard interior and boundaries
            assert (
                opened.kmer_codes_of(i, 16) == ram.kmer_codes_of(i, 16)
            ).all()
        # All reads, then an unsorted subset that spans shards.
        for idx in (None, np.array([3, 11, 29, 41]), np.array([56, 9, 41, 10, 0, 29, 9])):
            for canonical in (False, True):
                got = opened.kmer_table(16, idx, canonical)
                want = ram.kmer_table(16, idx, canonical)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_many_small_shards_unsorted_positions(self, tmp_path):
        # 29 shards of two reads; reads arrive shuffled and repeated,
        # so every shard's group is scattered.
        reads = make_reads()
        path = str(tmp_path / "small.store")
        pack_reads(iter(reads), path, shard_size=2)
        ram, opened = ReadSet(reads), ReadSet.open(path)
        assert opened.store.n_shards == 29
        rng = np.random.default_rng(5)
        idx = rng.integers(0, len(ram), size=80)
        assert_same_block(opened, ram, idx)
        assert opened.gather_reads(np.empty(0, dtype=np.int64))[0].size == 0
        for a, b in zip(opened.kmer_table(16, idx), ram.kmer_table(16, idx)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_derived_sets_match(self, stores):
        ram, opened, path = stores
        rt = ram.trimmed(trim5=2, min_length=45)
        ot = opened.trimmed(trim5=2, min_length=45)
        assert isinstance(ot, ShardedReadSet)
        assert 0 < len(rt) < len(ram)  # some reads are dropped
        assert_same_columns(ot, rt)
        orc = ot.with_reverse_complements()
        assert isinstance(orc, ShardedReadSet)
        assert_same_columns(orc, rt.with_reverse_complements())

    def test_derived_shards_follow_the_source(self, tmp_path):
        # Shard 1's reads all fail the quality rule: no empty shard is
        # written, and the shards after it keep their own reads.
        reads = make_reads(n=40)
        for read in reads[10:20]:
            read.quals[:] = 2
        path = str(tmp_path / "reads.store")
        pack_reads(iter(reads), path, shard_size=10)
        ram, opened = ReadSet(reads), ReadSet.open(path)
        trimmed = opened.trimmed(min_length=30)
        assert [s.n_records for s in trimmed.store.manifest.shards] == [10, 10, 10]
        assert_same_columns(trimmed, ram.trimmed(min_length=30))
        both = trimmed.with_reverse_complements()
        # three store shards and their three mate shards, in the same
        # store: the mirror is a view, not a second store.
        assert both.n_shards == 6 and both.store_path == trimmed.store_path
        assert not os.path.exists(os.path.join(trimmed.store_path, "derived"))
        assert_same_columns(both, ram.trimmed(min_length=30).with_reverse_complements())

    def test_derived_store_is_reused(self, stores):
        _, opened, _ = stores
        first = opened.trimmed(trim5=2, min_length=45)
        again = opened.trimmed(trim5=2, min_length=45)
        assert first.store_path == again.store_path


@pytest.fixture(scope="module")
def ragged_stores(tmp_path_factory):
    """Two-read shards with empty reads; one set scored except for one
    whole shard (``has_quals`` false inside a store that has them), one
    unscored."""
    out = {}
    for scored in (True, False):
        reads = make_reads(n=24, with_quals=scored)
        for i in (0, 7, 8, 23):
            reads[i] = Read(f"r{i}", np.empty(0, dtype=np.uint8), [] if scored else None)
        for i in (4, 5):
            reads[i].quals = None
        path = str(tmp_path_factory.mktemp("ragged") / "reads.store")
        pack_reads(iter(reads), path, shard_size=2)
        out[scored] = ReadSet(reads), ReadSet.open(path, cache_budget=1)
    return out


class TestBlockGatherEqualsInRam:
    @given(
        st.lists(st.integers(0, 23), max_size=40),
        st.sampled_from(["drawn", "descending", "ascending"]),
        st.booleans(),
        st.booleans(),
    )
    def test_any_index_array(self, ragged_stores, indices, order, scored, quals):
        ram, opened = ragged_stores[scored]
        if order != "drawn":
            indices = sorted(indices, reverse=order == "descending")
        assert_same_block(opened, ram, np.array(indices, dtype=np.int64), quals)

    def test_unscored_shard_reads_as_zeros(self, ragged_stores):
        ram, opened = ragged_stores[True]
        assert not bool(opened.store.shard(2)["has_quals"])
        (_, zeros), (_, scores) = block_reads(opened, [4, 6])
        assert zeros.size and not zeros.any() and scores.any()

    def test_one_visit_per_requested_shard(self, ragged_stores):
        _, opened = ragged_stores[True]
        opened.store.cache.clear()
        before = opened.store.cache.stats().misses
        opened.gather_reads(np.array([21, 2, 3, 20, 2, 21]))  # shards 10, 1
        assert opened.store.cache.stats().misses - before == 2


class TestMirroredView:
    """A store's reverse complements are a view: mate shard ``S + s``
    is built from shard ``s`` when it loads, and every accessor of the
    view answers as the in-RAM set with its mates does."""

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 47), max_size=40),
        st.sampled_from([1, 5, 16]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_view_equals_the_in_ram_mates(self, ragged_stores, indices, k, scored, quals, canonical):
        ram, opened = ragged_stores[scored]
        view, both = opened.with_reverse_complements(), ram.with_reverse_complements()
        assert view.mirrored and both.mirrored and view.n_forward == len(opened)
        assert_same_columns(view, both)
        indices = np.array(indices, dtype=np.int64)
        assert_same_block(view, both, indices, quals)
        for got, want in zip(view.kmer_table(k, indices, canonical), both.kmer_table(k, indices, canonical)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for i in indices.tolist():
            assert np.array_equal(view.codes_of(i), both.codes_of(i))
            assert (view.quals_of(i) is None) == (both.quals_of(i) is None)
            if scored:
                assert np.array_equal(view.quals_of(i), both.quals_of(i))
            assert np.array_equal(view.kmer_codes_of(i, k, canonical), both.kmer_codes_of(i, k, canonical))

    def test_nothing_is_written(self, tmp_path):
        path = str(tmp_path / "reads.store")
        pack_reads(iter(make_reads()), path, shard_size=10)
        before = sorted(os.listdir(path))
        view = ReadSet.open(path).with_reverse_complements()
        assert view.to_array().size and sorted(os.listdir(path)) == before
        with pytest.raises(ValueError, match="already"):
            view.with_reverse_complements()


class TestQualityDtype:
    """Scores are stored narrow and always read back as ``int64``."""

    @pytest.mark.parametrize(
        "top, stored", [(40, np.uint8), (300, np.uint16), (-1, np.int64)]
    )
    def test_narrowest_dtype_that_holds_the_shard(self, tmp_path, top, stored):
        reads = make_reads(n=6)
        reads[2].quals[0] = top
        path = str(tmp_path / "reads.store")
        pack_reads(iter(reads), path, shard_size=3)
        opened = ReadSet.open(path)
        assert opened.store.shard(0)["quals"].dtype == stored
        assert opened.store.shard(1)["quals"].dtype == np.uint8
        assert opened.quals_of(2).dtype == np.int64
        assert_same_columns(opened, ReadSet(reads))

    def test_int64_scores_of_older_stores_still_open(self, tmp_path):
        reads = make_reads(n=6)
        path = str(tmp_path / "reads.store")
        pack_reads(iter(reads), path, shard_size=3)
        for index in (0, 1):
            quals = ShardedStore(path).load_shard(index)["quals"]
            rewrite_shard(path, index, {"quals": quals.astype(np.int64)})
        opened = ShardedReadSet(path)
        assert opened.store.shard(0)["quals"].dtype == np.int64
        ram = ReadSet(reads)
        assert_same_columns(opened, ram)
        assert_same_block(opened, ram, np.arange(6))
        assert_same_columns(opened.trimmed(min_length=30), ram.trimmed(min_length=30))


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
        assert state == {"store_path": path, "cache_budget": opened.cache_budget, "mirrored": False}
        mirrored = opened.with_reverse_complements()
        assert mirrored.__getstate__() == {**state, "mirrored": True}
        clone = pickle.loads(pickle.dumps(mirrored))
        assert clone.mirrored and len(clone) == 2 * len(opened)
        assert clone.store_fingerprint == mirrored.store_fingerprint != opened.store_fingerprint

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


class TestPackMemory:
    def test_pack_peak_is_per_shard_not_per_read(self, tmp_path):
        """Packing streams its input: 8x the reads, about the same peak.

        The tracked peak is one shard's reads and columns plus the
        global offsets (8 B per read); collecting the generator first
        would hold every ``Read`` at once, several times the bases.
        """
        import tracemalloc

        def reads(n):
            rng = np.random.default_rng(7)
            for lo in range(0, n, 1024):
                for i, codes in enumerate(rng.integers(0, 4, (1024, 100), dtype=np.uint8), lo):
                    yield Read(f"r{i}", codes)

        peaks = {}
        for n in (4096, 32768):
            tracemalloc.start()
            try:
                pack_reads(reads(n), str(tmp_path / f"{n}.store"), shard_size=1024)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32768] < 1.5 * peaks[4096]
        assert peaks[32768] < 32768 * 100 // 2


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
