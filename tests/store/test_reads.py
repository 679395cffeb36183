"""Shard-backed ReadSet: the per-read oracle, pickling, memory."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import Read
from repro.io.readset import ReadSet, read_columns
from repro.store import ShardedReadSet, ShardedStore, pack_reads
from tests.reference.per_read import assert_matches, expected_reads, trimmed_reads
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


def assert_block_matches(reads, want, indices, quals=True):
    """``gather_reads`` of ``indices`` against the per-read oracle."""
    codes, starts, scores = reads.gather_reads(np.asarray(indices, dtype=np.int64), quals=quals)
    assert codes.dtype == np.uint8 and starts.dtype == np.int64
    assert (scores is None) == (not quals or not reads.has_quals)
    for j, i in enumerate(indices):
        span = slice(int(starts[j]), int(starts[j]) + len(want[i]))
        assert np.array_equal(codes[span], want[i].codes)
        if scores is not None:
            assert scores.dtype == np.int64 and np.array_equal(scores[span], want[i].quals)


@pytest.fixture()
def stores(tmp_path):
    reads = make_reads()
    path = str(tmp_path / "reads.store")
    pack_reads(iter(reads), path, shard_size=10)
    return reads, ReadSet.open(path), path


class TestEquivalence:
    """A store-backed set answers as the reads it was packed from."""

    def test_open_returns_sharded_readset(self, stores):
        _, opened, _ = stores
        assert isinstance(opened, ShardedReadSet)
        assert isinstance(opened, ReadSet)

    def test_per_read_accessors_match(self, stores):
        reads, opened, _ = stores
        assert len(opened) == len(reads)
        for i, read in enumerate(reads):
            assert np.array_equal(opened.codes_of(i), read.codes)
            assert np.array_equal(opened.quals_of(i), read.quals)
            assert opened.ids[i] == read.id
            assert opened.meta[i] == read.meta

    def test_bulk_primitives_match(self, stores):
        reads, opened, _ = stores
        assert np.array_equal(opened.to_array(), np.concatenate([r.codes for r in reads]))
        assert np.array_equal(opened.lengths, [len(r) for r in reads])
        assert_block_matches(opened, reads, [0, 5, 56, 9, 10, 5])

    def test_kmer_primitives_match(self, stores):
        reads, opened, _ = stores
        # All reads, then an unsorted subset that spans shards, with
        # shard interiors and boundaries.
        for idx in (range(57), [3, 11, 29, 41], [56, 9, 41, 10, 0, 29, 9]):
            for canonical in (False, True):
                assert_matches(opened, reads, idx, k=16, canonical=canonical)

    def test_many_small_shards_unsorted_positions(self, tmp_path):
        # 29 shards of two reads; reads arrive shuffled and repeated,
        # so every shard's group is scattered.
        reads = make_reads()
        path = str(tmp_path / "small.store")
        pack_reads(iter(reads), path, shard_size=2)
        opened = ReadSet.open(path)
        assert opened.store.n_shards == 29
        idx = np.random.default_rng(5).integers(0, len(reads), size=80)
        assert_matches(opened, reads, idx, k=16)
        assert opened.gather_reads(np.empty(0, dtype=np.int64))[0].size == 0

    def test_requests_from_inside_one_large_shard(self, tmp_path):
        # Few reads and most of a run of reads, neither starting at the
        # shard's first read, repeated and out of order.
        reads = make_reads()
        path = str(tmp_path / "one.store")
        pack_reads(iter(reads), path, shard_size=len(reads))
        for rs in (ReadSet(reads), ReadSet.open(path)):
            assert rs.n_shards == 1
            assert_matches(rs, reads, [40, 3, 50, 3])
            assert_matches(rs, reads, [12, 11, 13, 12, 20])

    def test_derived_sets_match(self, stores):
        reads, opened, path = stores
        ot = opened.trimmed(trim5=2, min_length=45)
        assert isinstance(ot, ShardedReadSet)
        want = trimmed_reads(reads, trim5=2, min_length=45)
        assert 0 < len(want) < len(reads)  # some reads are dropped
        assert_matches(ot, want, [0, len(want) - 1, 3])
        orc = ot.with_reverse_complements()
        assert isinstance(orc, ShardedReadSet)
        assert_matches(orc, expected_reads(want, mirrored=True), [len(want), 0, 2 * len(want) - 1])

    def test_derived_shards_follow_the_source(self, tmp_path):
        # Shard 1's reads all fail the quality rule: no empty shard is
        # written, and the shards after it keep their own reads.
        reads = make_reads(n=40)
        for read in reads[10:20]:
            read.quals[:] = 2
        path = str(tmp_path / "reads.store")
        pack_reads(iter(reads), path, shard_size=10)
        trimmed = ReadSet.open(path).trimmed(min_length=30)
        assert [s.n_records for s in trimmed.store.manifest.shards] == [10, 10, 10]
        want = trimmed_reads(reads, min_length=30)
        assert_matches(trimmed, want, range(30))
        both = trimmed.with_reverse_complements()
        # three store shards and their three mate shards, in the same
        # store: the mirror is a view, not a second store.
        assert both.n_shards == 6 and both.store_path == trimmed.store_path
        assert not os.path.exists(os.path.join(trimmed.store_path, "derived"))
        assert_matches(both, expected_reads(want, mirrored=True), range(60))

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
        out[scored] = reads, ReadSet.open(path, cache_budget=1)
    return out


class TestBlockGatherEqualsInRam:
    """``gather_reads`` of any index array against the per-read oracle."""

    @given(
        st.lists(st.integers(0, 23), max_size=40),
        st.sampled_from(["drawn", "descending", "ascending"]),
        st.booleans(),
        st.booleans(),
    )
    def test_any_index_array(self, ragged_stores, indices, order, scored, quals):
        reads, opened = ragged_stores[scored]
        if order != "drawn":
            indices = sorted(indices, reverse=order == "descending")
        assert_block_matches(opened, expected_reads(reads), indices, quals)

    def test_unscored_shard_reads_as_zeros(self, ragged_stores):
        _, opened = ragged_stores[True]
        assert not bool(opened.store.shard(2)["has_quals"])
        codes, starts, scores = opened.gather_reads(np.array([4, 6]), quals=True)
        zeros, others = scores[: opened.length_of(4)], scores[opened.length_of(4) :]
        assert zeros.size and not zeros.any() and others.any()

    def test_one_visit_per_requested_shard(self, ragged_stores):
        _, opened = ragged_stores[True]
        opened.store.cache.clear()
        before = opened.store.cache.stats().misses
        opened.gather_reads(np.array([21, 2, 3, 20, 2, 21]))  # shards 10, 1
        assert opened.store.cache.stats().misses - before == 2


class TestMirroredView:
    """A store's reverse complements are a view: mate shard ``S + s``
    is built from shard ``s`` when it loads, and every accessor of the
    view answers as the reads and their ``Read.reverse_complement()``."""

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 47), max_size=40),
        st.sampled_from([1, 5, 16]),
        st.booleans(),
        st.booleans(),
    )
    def test_view_equals_the_in_ram_mates(self, ragged_stores, indices, k, scored, canonical):
        reads, opened = ragged_stores[scored]
        view = opened.with_reverse_complements()
        assert view.mirrored and view.n_forward == len(opened)
        assert_matches(view, expected_reads(reads, mirrored=True), indices, k, canonical)

    def test_materializing_goes_past_the_cache(self, ragged_stores):
        """``data`` / ``quals`` load every shard and mate without touching
        the cache's working set or its counters, and are read-only."""
        reads, opened = ragged_stores[True]
        view = opened.with_reverse_complements()
        view.gather_reads(np.array([3, 30]))
        before, held = view.store.cache.stats(), len(view.store.cache)
        want = expected_reads(reads, mirrored=True)
        assert np.array_equal(view.data, np.concatenate([r.codes for r in want]))
        assert np.array_equal(view.quals, np.concatenate([r.quals for r in want]))
        assert view.store.cache.stats() == before and len(view.store.cache) == held
        assert not view.data.flags.writeable and not view.quals.flags.writeable

    def test_nothing_is_written(self, tmp_path):
        path = str(tmp_path / "reads.store")
        pack_reads(iter(make_reads()), path, shard_size=10)
        before = sorted(os.listdir(path))
        view = ReadSet.open(path).with_reverse_complements()
        assert view.to_array().size and sorted(os.listdir(path)) == before
        with pytest.raises(ValueError, match="already"):
            view.with_reverse_complements()


@st.composite
def read_lists(draw):
    """0..9 reads of 0..25 bases (N included); scored, unscored or mixed."""
    scoring = draw(st.sampled_from(["all", "none", "mixed"]))
    reads = []
    for i in range(draw(st.integers(0, 9))):
        codes = draw(st.lists(st.integers(0, 4), max_size=25))
        scored = scoring == "all" or (scoring == "mixed" and draw(st.booleans()))
        quals = draw(st.lists(st.integers(0, 41), min_size=len(codes), max_size=len(codes))) if scored else None
        reads.append(Read(f"r{i}", np.array(codes, dtype=np.uint8), quals, {"n": i}))
    return reads


class TestOneImplementation:
    """In RAM and from a store, at shard sizes 1, 3 and all, with mates
    or without: every accessor answers as the per-read oracle."""

    @settings(deadline=None, max_examples=60)
    @given(
        read_lists(),
        st.sampled_from([1, 3, None]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1, 4, 9]),
        st.booleans(),
        st.data(),
    )
    def test_every_accessor_matches_the_per_read_oracle(
        self, tmp_path_factory, reads, shard_size, in_store, mirrored, k, canonical, data
    ):
        size = shard_size or max(len(reads), 1)
        if in_store:
            path = str(tmp_path_factory.mktemp("drawn") / "reads.store")
            pack_reads(iter(reads), path, shard_size=size)
            rs = ReadSet.open(path, cache_budget=data.draw(st.sampled_from([0, 1 << 20])))
        else:
            chunks = [reads[i : i + size] for i in range(0, len(reads), size)]
            rs = ReadSet._from_blocks(read_columns(chunk) for chunk in chunks)
        assert rs.n_shards == -(-len(reads) // size)
        if mirrored:
            rs = rs.with_reverse_complements()
        want = expected_reads(reads, mirrored)
        indices = data.draw(st.lists(st.integers(0, max(len(want) - 1, 0)), max_size=12)) if want else []
        assert_matches(rs, want, indices, k, canonical)
        rule = {"trim5": data.draw(st.integers(0, 3)), "window": 3, "min_quality": 20.0}
        trimmed = trimmed_reads(want, min_length=2, **rule)
        assert_matches(rs.trimmed(min_length=2, **rule), trimmed, range(len(trimmed)), k, canonical)


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
        assert_matches(opened, reads, range(6))

    def test_in_ram_set_holds_scores_as_a_store_does(self, tmp_path):
        """``ReadSet(reads)`` keeps its scores ``uint8`` too, every
        accessor still reads them back as ``int64``, and trimming gives
        the same set in RAM and from a store."""
        reads = make_reads(n=30)
        ram = ReadSet(reads)
        assert next(ram._blocks())[2].dtype == np.uint8
        assert ram.quals.dtype == ram.quals_of(3).dtype == ram[3].quals.dtype == np.int64
        assert_block_matches(ram, reads, range(30))
        path = str(tmp_path / "reads.store")
        pack_reads(iter(reads), path, shard_size=7)
        rule = {"trim5": 2, "window": 5, "min_quality": 25.0, "min_length": 30}
        in_ram = ram.trimmed(**rule).with_reverse_complements()
        stored = ReadSet.open(path).trimmed(**rule).with_reverse_complements()
        assert len(in_ram) == len(stored) > 0
        for a, b in zip(in_ram, stored):
            assert (a.id, a.codes.tolist(), a.quals.tolist(), a.meta) == (
                b.id, b.codes.tolist(), b.quals.tolist(), b.meta
            )
        assert all(block[2].dtype == np.uint8 for block in in_ram._blocks())

    def test_int64_scores_of_older_stores_still_open(self, tmp_path):
        reads = make_reads(n=6)
        path = str(tmp_path / "reads.store")
        pack_reads(iter(reads), path, shard_size=3)
        for index in (0, 1):
            quals = ShardedStore(path).load_shard(index)["quals"]
            rewrite_shard(path, index, {"quals": quals.astype(np.int64)})
        opened = ShardedReadSet(path)
        assert opened.store.shard(0)["quals"].dtype == np.int64
        assert_matches(opened, reads, range(6))
        want = trimmed_reads(reads, min_length=30)
        assert_matches(opened.trimmed(min_length=30), want, range(len(want)))


def test_dropped_store_set_is_freed_without_the_cyclic_collector(stores):
    import gc
    import weakref

    _, opened, _ = stores
    view = opened.with_reverse_complements()
    view.kmer_table(16, np.arange(len(view)))
    assert view.ids[70] == "r13/rc"
    gc.disable()
    try:
        ref = weakref.ref(view)
        del view
        assert ref() is None
    finally:
        gc.enable()


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
        reads, opened, _ = stores
        clone = pickle.loads(pickle.dumps(opened))
        assert isinstance(clone, ShardedReadSet)
        for i in (0, 13, 56):
            assert np.array_equal(clone.codes_of(i), reads[i].codes)

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
