"""Unit tests for the communication cost model."""

import threading
import warnings

import numpy as np
import pytest

from repro.mpi import timing
from repro.mpi.timing import CommCostModel, payload_nbytes


class TestPayloadNbytes:
    def test_ndarray_fast_path(self):
        a = np.zeros(1000, dtype=np.float64)
        assert payload_nbytes(a) == 8000 + 96

    def test_generic_object(self):
        n = payload_nbytes({"a": 1, "b": [1, 2, 3]})
        assert n > 10

    def test_larger_object_larger_size(self):
        assert payload_nbytes(list(range(1000))) > payload_nbytes([1])

    @pytest.mark.parametrize(
        "buf", [b"x" * 4096, bytearray(b"y" * 4096), memoryview(b"z" * 4096)]
    )
    def test_byte_buffer_fast_path(self, buf):
        assert payload_nbytes(buf) == 4096 + timing._BYTES_OVERHEAD

    def test_memoryview_of_ndarray_uses_nbytes(self):
        mv = memoryview(np.zeros(100, dtype=np.int32))
        assert payload_nbytes(mv) == 400 + timing._BYTES_OVERHEAD

    def test_empty_buffer(self):
        assert payload_nbytes(b"") == timing._BYTES_OVERHEAD

    def test_unpicklable_warns_once_then_is_silent(self, monkeypatch):
        monkeypatch.setattr(timing, "_warned_unpicklable", False)
        lock = threading.Lock()  # locks cannot be pickled
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            assert payload_nbytes(lock) == timing._UNPICKLABLE_FALLBACK
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert payload_nbytes(lock) == timing._UNPICKLABLE_FALLBACK


class TestCommCostModel:
    def test_message_cost(self):
        m = CommCostModel(alpha=1e-5, beta=1e-9)
        assert m.message_cost(0) == pytest.approx(1e-5)
        assert m.message_cost(10**9) == pytest.approx(1e-5 + 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CommCostModel(alpha=-1)
        with pytest.raises(ValueError):
            CommCostModel().message_cost(-5)
