"""Tests for the stage checkpoint and the atomic writes under it."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.atomic import atomic_write, atomic_write_text
from repro.io.store import CheckpointState, load_checkpoint, save_checkpoint
from repro.store.sharded import encode_arrays, read_arrays

from tests.fuzz import damaged


def sample_state(paths=None):
    return CheckpointState(
        fingerprint={"n_reads": 10, "n_partitions": 4, "seed": 1},
        node_alive=np.array([True, False, True]),
        edge_alive=np.array([True, True, False, False]),
        stage_times={"transitive": 0.25, "containment": 0.5},
        paths=paths,
    )


def rewrite(path, columns=None, **header):
    """Re-encode the checkpoint at ``path`` with some columns or header
    fields replaced, as another writer would have produced it."""
    old_header, old_columns = read_arrays(path)
    path.write_bytes(
        encode_arrays({**old_columns, **(columns or {})}, **{**old_header, **header})
    )


class TestCorruptedArchives:
    """The loader must fail with ValueError, never a bare KeyError."""

    def test_not_an_archive(self, tmp_path):
        # What a torn copy looks like: the first half of a real checkpoint.
        path = tmp_path / "ck.bin"
        save_checkpoint(sample_state(), path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="CRC mismatch") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_missing_key_message_names_the_keys(self, tmp_path):
        path = tmp_path / "partial.bin"
        path.write_bytes(
            encode_arrays({"node_alive": np.ones(2, dtype=bool)}, checkpoint_version=3)
        )
        with pytest.raises(ValueError, match="missing keys.*edge_alive"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        # 2 is the byte-mask layout: its masks would unpack as garbage.
        path = tmp_path / "ck.bin"
        for version in (2, 99):
            save_checkpoint(sample_state(), path)
            rewrite(path, checkpoint_version=version)
            with pytest.raises(ValueError, match=f"version {version}") as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("pristine") / "ck.bin"
    save_checkpoint(sample_state(paths=(np.arange(5), np.array([3, 0, 2]))), path)
    return path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_identically_or_names_the_file(
    checkpoint_blob, tmp_path_factory, data
):
    """Any truncation or single-bit flip of a checkpoint either loads
    the state that was saved or raises a ``ValueError`` naming the file
    (each member's CRC-32 is checked, so a flip never loads as other
    state)."""
    path = tmp_path_factory.mktemp("fuzz") / "ck.bin"
    path.write_bytes(damaged(checkpoint_blob, data))
    try:
        state = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    want = sample_state()
    assert state.fingerprint == want.fingerprint
    assert state.stage_times == want.stage_times
    assert state.node_alive.tolist() == want.node_alive.tolist()
    assert state.edge_alive.tolist() == want.edge_alive.tolist()
    assert [a.tolist() for a in state.paths] == [[0, 1, 2, 3, 4], [3, 0, 2]]


class TestAtomicWrites:
    """A crash mid-write must never corrupt an existing file — through
    the text helper and the primitive under it."""

    WRITES = {
        "c.txt": lambda path, n: atomic_write_text(path, "x" * n),
        "c.bin": lambda path, n: atomic_write(path, lambda fh: fh.write(b"x" * n)),
    }

    @staticmethod
    def _crashing_writer(monkeypatch):
        # Simulate the process dying mid-write: the bytes are in the
        # temporary file, the flush to disk blows up.
        def exploding_fsync(fd):
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)

    def test_crash_preserves_previous_archive(self, tmp_path, monkeypatch):
        for name, write in self.WRITES.items():
            write(tmp_path / name, 5)
        before = {name: (tmp_path / name).read_bytes() for name in self.WRITES}
        self._crashing_writer(monkeypatch)
        for name, write in self.WRITES.items():
            with pytest.raises(RuntimeError, match="simulated crash"):
                write(tmp_path / name, 7)
            assert (tmp_path / name).read_bytes() == before[name]

    def test_crash_leaks_no_temp_files(self, tmp_path, monkeypatch):
        def raising_writer(fh):
            fh.write(b"PK\x03\x04 partial garbage")
            raise RuntimeError("simulated crash mid-write")

        with pytest.raises(RuntimeError):
            atomic_write(tmp_path / "c.bin", raising_writer)
        self._crashing_writer(monkeypatch)
        for name, write in self.WRITES.items():
            with pytest.raises(RuntimeError):
                write(tmp_path / name, 7)
        assert list(tmp_path.iterdir()) == []

    def test_success_leaves_only_the_archive(self, tmp_path, durable_ops):
        for name, write in self.WRITES.items():
            del durable_ops[:]
            write(tmp_path / name, 5)
            # file flushed to disk, renamed over the target, and the
            # rename itself flushed: in that order, nothing else.
            assert durable_ops == [
                ("fsync", name),
                ("replace", name),
                ("fsync", tmp_path.name),
            ]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.WRITES)


class TestCheckpointStore:
    """Stage-checkpoint persistence (docs/robustness.md)."""

    def test_roundtrip_without_paths(self, tmp_path):
        path = tmp_path / "ck.bin"
        state = sample_state()
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == state.fingerprint
        assert (loaded.node_alive == state.node_alive).all()
        assert (loaded.edge_alive == state.edge_alive).all()
        assert loaded.stage_times == state.stage_times
        assert loaded.paths is None
        # finish() clears mask bits in place, so the masks are copies.
        assert loaded.node_alive.flags.writeable and loaded.edge_alive.flags.writeable
        # Masks are stored as bits: a length off a byte boundary neither
        # gains the padding bits nor loses its last ones.
        for n in (0, 1, 8, 9, 1001):
            state.node_alive = np.arange(n) % 3 == 1
            state.edge_alive = np.ones(n + 6, dtype=bool)
            save_checkpoint(state, path)
            loaded = load_checkpoint(path)
            np.testing.assert_array_equal(loaded.node_alive, state.node_alive)
            np.testing.assert_array_equal(loaded.edge_alive, state.edge_alive)

    def test_written_at_exactly_the_given_path(self, tmp_path):
        save_checkpoint(sample_state(), tmp_path / "noext")
        assert [p.name for p in tmp_path.iterdir()] == ["noext"]
        assert load_checkpoint(tmp_path / "noext").stage_times == sample_state().stage_times

    def test_header_with_completed_list_still_loads(self, tmp_path):
        # Older writers also recorded the stage names as a "completed"
        # list; the version is the same, so those files still resume.
        path = tmp_path / "ck.bin"
        save_checkpoint(sample_state(), path)
        rewrite(path, completed=["transitive", "containment"])
        assert load_checkpoint(path).stage_times == sample_state().stage_times

    def test_roundtrip_with_paths(self, tmp_path):
        path = tmp_path / "ck.bin"
        paths = (np.array([0, 1, 2, 5, 4]), np.array([3, 0, 2]))
        save_checkpoint(sample_state(paths=paths), path)
        flat, lens = load_checkpoint(path).paths
        assert flat.dtype == lens.dtype == np.int64
        assert flat.tolist() == [0, 1, 2, 5, 4] and lens.tolist() == [3, 0, 2]
        assert read_arrays(path)[1]["paths_offsets"].tolist() == [0, 3, 3, 5]

    def test_empty_paths_distinct_from_missing(self, tmp_path):
        path = tmp_path / "ck.bin"
        empty = np.empty(0, dtype=np.int64)
        save_checkpoint(sample_state(paths=(empty, empty)), path)
        flat, lens = load_checkpoint(path).paths
        assert flat.size == 0 and lens.size == 0

    def test_masks_required(self, tmp_path):
        state = CheckpointState(fingerprint={})
        with pytest.raises(ValueError, match="alive-masks"):
            save_checkpoint(state, tmp_path / "ck.bin")

    def test_foreign_archive_rejected(self, tmp_path):
        # A store shard is a valid array file, but not a checkpoint.
        path = tmp_path / "shard-00000.bin"
        path.write_bytes(
            encode_arrays({"data": np.arange(4)}, store_version=3, store_kind="reads")
        )
        with pytest.raises(ValueError, match="missing keys"):
            load_checkpoint(path)

    def test_not_an_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="not a repro array file"):
            load_checkpoint(path)
