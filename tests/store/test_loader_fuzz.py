"""Loader fuzzing: a damaged shard or manifest never loads as other data.

Every single-bit flip and every truncation of a shard file makes
``load_shard`` raise a ``ValueError`` naming the file — the CRC covers
the header as well as the columns, so no flip returns different
arrays.  The reads store's global offsets table is the same format and
gets the same treatment from ``ReadSet.open`` and ``verify-store``.  A damaged ``manifest.json`` either still loads or raises a
``ValueError`` naming the file, never a bare ``KeyError``/``TypeError``.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.readset import ReadSet
from repro.io.records import Read
from repro.store import MANIFEST_NAME, OFFSETS_NAME, ShardedStore, pack_reads, verify_store
from repro.store.sharded import shard_name
from repro.store.verify import main as verify_main

from tests.fuzz import assert_typed, damaged


def fuzz_reads(n=40):
    rng = np.random.default_rng(5)
    return [
        Read(
            f"r{i}",
            rng.integers(0, 4, 30 + i % 9).astype(np.uint8),
            quals=rng.integers(2, 41, 30 + i % 9),
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "reads.store")
    pack_reads(iter(fuzz_reads()), path, shard_size=10)
    return path


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_shard_is_refused_naming_the_file(store_dir, data):
    store = ShardedStore(store_dir, kind="reads", cache_budget=0)
    path = store.shard_path(1)
    with open(path, "rb") as fh:
        pristine = fh.read()
    try:
        with open(path, "wb") as fh:
            fh.write(damaged(pristine, data))
        with pytest.raises(ValueError) as info:
            store.load_shard(1)
        assert path in str(info.value)
    finally:
        with open(path, "wb") as fh:
            fh.write(pristine)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_offsets_are_refused_naming_the_file(store_dir, data):
    path = os.path.join(store_dir, OFFSETS_NAME)
    with open(path, "rb") as fh:
        pristine = fh.read()
    try:
        with open(path, "wb") as fh:
            fh.write(damaged(pristine, data))
        with pytest.raises(ValueError) as info:
            ReadSet.open(store_dir)
        assert path in str(info.value)
        report = verify_store(store_dir)
        assert not report.ok
        assert [s.name for s in report.shards if not s.ok] == [OFFSETS_NAME]
    finally:
        with open(path, "wb") as fh:
            fh.write(pristine)


def test_one_flipped_offsets_bit_fails_the_scrub(store_dir, tmp_path, capsys):
    # Offset 31 moved by 8: still ascending, but reads 30 and 31 would
    # open with lengths their shard data does not hold.
    path = str(tmp_path / "copy.store")
    shutil.copytree(store_dir, path)
    offsets = os.path.join(path, OFFSETS_NAME)
    with open(offsets, "rb") as fh:
        blob = bytearray(fh.read())
    at = bytes(blob).find(ReadSet.open(path).offsets.tobytes())
    assert at > 0
    blob[at + 8 * 31] ^= 1 << 3
    with open(offsets, "wb") as fh:
        fh.write(bytes(blob))
    assert verify_main(path) == 1
    assert f"BAD {OFFSETS_NAME}: corrupt" in capsys.readouterr().out
    with pytest.raises(ValueError, match="CRC mismatch") as info:
        ReadSet.open(path)
    assert offsets in str(info.value)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_manifest_loads_or_names_the_file(store_dir, data):
    path = os.path.join(store_dir, MANIFEST_NAME)
    with open(path, "rb") as fh:
        pristine = fh.read()
    try:
        with open(path, "wb") as fh:
            fh.write(damaged(pristine, data))
        try:
            store = ShardedStore(store_dir, kind="reads", cache_budget=0)
        except ValueError as exc:
            assert path in str(exc)
        else:
            assert store.n_shards == len(store.manifest.shards)
            assert_typed(store.manifest)
    finally:
        with open(path, "wb") as fh:
            fh.write(pristine)


def test_stray_shard_file_is_an_orphan(store_dir, tmp_path):
    path = str(tmp_path / "copy.store")
    shutil.copytree(store_dir, path)
    stray = shard_name(9)
    shutil.copy(os.path.join(path, shard_name(0)), os.path.join(path, stray))
    for other in ("notes.txt", f"{shard_name(1)}.tmp.1.0", "shard-1.bin"):
        with open(os.path.join(path, other), "wb") as fh:
            fh.write(b"x")
    report = verify_store(path)
    assert report.ok
    assert report.orphans == [stray]
