"""Tests for the generic shard writer/store and manifest validation."""

import json
import os

import numpy as np
import pytest

import repro.store.sharded as sharded_mod
from repro.io.records import Read
from repro.io.readset import ReadSet
from repro.store import (
    MANIFEST_NAME,
    STORE_VERSION,
    ShardedStore,
    ShardWriter,
    StoreManifest,
    pack_reads,
    shard_name,
)


def rewrite_shard(store_path, index, columns=None, **stamp):
    """Re-encode shard ``index`` in place with some columns or stamp
    fields replaced, as another writer would have produced it."""
    store = ShardedStore(store_path)
    arrays = {**store.load_shard(index), **(columns or {})}
    fields = {
        "store_version": STORE_VERSION,
        "store_kind": store.kind,
        "shard_index": index,
        "n_records": store.manifest.shards[index].n_records,
        **stamp,
    }
    with open(store.shard_path(index), "wb") as fh:
        fh.write(sharded_mod.encode_arrays(arrays, **fields))


def replace_in_manifest(store_path, old, new):
    mpath = os.path.join(store_path, MANIFEST_NAME)
    with open(mpath, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(mpath, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def write_store(path, n_shards=3, kind="reads"):
    writer = ShardWriter(path, kind=kind, shard_size=4)
    for i in range(n_shards):
        writer.write_shard(
            {"data": np.full(8, i, dtype=np.uint8)}, n_records=4
        )
    return writer.finalize()


class TestWriterRoundtrip:
    def test_shards_and_manifest(self, tmp_path):
        path = str(tmp_path / "store")
        manifest = write_store(path)
        assert manifest.n_shards == 3
        assert manifest.n_records == 12
        store = ShardedStore(path, kind="reads")
        assert store.n_shards == 3
        for i, payload in store.iter_shards():
            assert (payload["data"] == i).all()
            # Stamp keys are stripped from the served payload.
            assert "store_version" not in payload

    def test_cached_shards_are_read_only(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        store = ShardedStore(path)
        with pytest.raises(ValueError, match="read-only"):
            store.shard(1)["data"][0] = 7
        assert (store.shard(1)["data"] == 1).all()

    def test_record_starts(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        store = ShardedStore(path)
        assert store.record_starts.tolist() == [0, 4, 8, 12]

    def test_fresh_pack_clears_stale_files(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path, n_shards=3)
        write_store(path, n_shards=1)  # smaller re-pack, no resume
        store = ShardedStore(path)
        assert store.n_shards == 1
        assert not os.path.exists(os.path.join(path, shard_name(2)))


class TestValidation:
    def test_missing_manifest_mentions_resume(self, tmp_path):
        with pytest.raises(ValueError, match="resume=True"):
            StoreManifest.load(tmp_path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        mpath = os.path.join(path, MANIFEST_NAME)
        with open(mpath, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["version"] = STORE_VERSION + 1
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=f"version {STORE_VERSION + 1}"):
            ShardedStore(path)

    def test_version_1_store_refused_with_a_re_pack_hint(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        replace_in_manifest(path, f'"version": {STORE_VERSION}', '"version": 1')
        with pytest.raises(ValueError, match="version 1 .*re-pack"):
            ShardedStore(path)

    def test_version_2_store_refused_with_a_re_pack_hint(self, tmp_path):
        # version 2 kept the reads store's offsets in an unchecked .npy
        path = str(tmp_path / "store")
        write_store(path)
        replace_in_manifest(path, f'"version": {STORE_VERSION}', '"version": 2')
        with pytest.raises(ValueError, match="version 2 .*re-pack"):
            ShardedStore(path)

    def test_mistyped_manifest_field_names_the_file(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        replace_in_manifest(path, '"shard_size"', '"shard_sizg"')
        with pytest.raises(ValueError, match="corrupt store manifest.*unknown key 'shard_sizg'"):
            ShardedStore(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path, kind="overlaps")
        with pytest.raises(ValueError, match="expected 'reads'"):
            ShardedStore(path, kind="reads")

    def test_corrupt_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
            fh.write("{not json")
        with pytest.raises(ValueError, match="corrupt store manifest"):
            ShardedStore(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = str(tmp_path / "store")
        os.makedirs(path)
        with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(ValueError, match="not a store manifest"):
            ShardedStore(path)

    def test_shard_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "store")
        write_store(path)
        # Rewrite shard 1 with a wrong embedded store_version.
        rewrite_shard(path, 1, store_version=STORE_VERSION + 7)
        store = ShardedStore(path)
        with pytest.raises(ValueError, match="shard version"):
            store.load_shard(1)

    def test_shard_swapped_between_stores_rejected(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        write_store(a)
        write_store(b)
        # Put b's shard 2 where a expects shard 1: the index stamp trips.
        os.replace(
            os.path.join(b, shard_name(2)), os.path.join(a, shard_name(1))
        )
        with pytest.raises(ValueError, match="shard"):
            ShardedStore(a).load_shard(1)


def some_reads(n):
    rng = np.random.default_rng(42)
    return [
        Read(f"r{i}", rng.integers(0, 4, 30 + (i % 7)).astype(np.uint8))
        for i in range(n)
    ]


class TestCrashMidPackResume:
    """A crash mid-pack leaves a resumable, never-corrupt directory."""

    @staticmethod
    def _crash_after(monkeypatch, n_shards):
        real = sharded_mod.atomic_write
        written = []

        def exploding(final, write, mode="wb"):
            if len(written) >= n_shards:
                raise RuntimeError("simulated crash mid-pack")
            written.append(final)
            real(final, write, mode)

        monkeypatch.setattr(sharded_mod, "atomic_write", exploding)

    def test_crashed_pack_has_no_manifest(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store")
        self._crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            pack_reads(iter(some_reads(40)), path, shard_size=10)
        assert not os.path.exists(os.path.join(path, MANIFEST_NAME))
        with pytest.raises(ValueError, match="resume=True"):
            ShardedStore(path)

    def test_resume_reuses_intact_shards(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store")
        reads = some_reads(40)
        self._crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            pack_reads(iter(reads), path, shard_size=10)
        survivors = {
            name: os.stat(os.path.join(path, name)).st_mtime_ns
            for name in os.listdir(path)
            if name.startswith("shard-")
        }
        assert len(survivors) == 2
        monkeypatch.undo()
        pack_reads(iter(reads), path, shard_size=10, resume=True)
        # The surviving shards were verified and reused, not rewritten.
        for name, mtime in survivors.items():
            assert os.stat(os.path.join(path, name)).st_mtime_ns == mtime
        opened = ReadSet.open(path)
        assert len(opened) == 40
        for i, read in enumerate(reads):
            assert (opened.codes_of(i) == read.codes).all()

    def test_resume_rewrites_truncated_shard(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store")
        reads = some_reads(40)
        self._crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            pack_reads(iter(reads), path, shard_size=10)
        # Corrupt one survivor as a torn write would.
        victim = os.path.join(path, shard_name(1))
        with open(victim, "wb") as fh:
            fh.write(b"PK\x03\x04 torn")
        monkeypatch.undo()
        pack_reads(iter(reads), path, shard_size=10, resume=True)
        opened = ReadSet.open(path)
        assert (opened.codes_of(15) == reads[15].codes).all()

    def test_resume_on_clean_directory_is_a_full_pack(self, tmp_path):
        path = str(tmp_path / "store")
        manifest = pack_reads(
            iter(some_reads(12)), path, shard_size=5, resume=True
        )
        assert manifest.n_records == 12
