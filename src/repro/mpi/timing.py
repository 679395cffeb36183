"""Communication cost model and payload sizing."""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["CommCostModel", "payload_nbytes"]

#: pickling overhead assumed for a bare ndarray (header, dtype, shape).
_NDARRAY_OVERHEAD = 96

#: pickle framing overhead assumed for a raw byte buffer.
_BYTES_OVERHEAD = 32

#: wire size charged for unpicklable payloads (a guess — see warning).
_UNPICKLABLE_FALLBACK = 256

#: set after the first unpicklable-payload warning so a hot send loop
#: does not flood stderr; tests reset it.
_warned_unpicklable = False


def payload_nbytes(obj) -> int:
    """Approximate wire size of a Python object in bytes.

    numpy arrays and raw byte buffers (``bytes``/``bytearray``/
    ``memoryview``) take a fast path (``nbytes``/``len`` + fixed
    header) so sizing a large buffer never copies it through pickle;
    everything else is sized by pickling, exactly what mpi4py's
    lowercase API would transmit.  Unpicklable payloads are charged a
    flat fallback and warned about once per process.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + _NDARRAY_OVERHEAD
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + _BYTES_OVERHEAD
    if isinstance(obj, memoryview):
        return int(obj.nbytes) + _BYTES_OVERHEAD
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable payloads still need *a* size
        global _warned_unpicklable
        if not _warned_unpicklable:
            _warned_unpicklable = True
            warnings.warn(
                f"payload of type {type(obj).__name__!r} is unpicklable; "
                f"charging a flat {_UNPICKLABLE_FALLBACK} bytes in the "
                "communication cost model (further occurrences are silent)",
                RuntimeWarning,
                stacklevel=2,
            )
        return _UNPICKLABLE_FALLBACK


@dataclass(frozen=True)
class CommCostModel:
    """Alpha-beta (Hockney) point-to-point cost: alpha + beta * bytes.

    Defaults approximate a commodity cluster interconnect: 10 us
    latency, 10 GB/s effective bandwidth.
    """

    alpha: float = 10e-6
    beta: float = 1e-10

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("cost parameters must be non-negative")

    def message_cost(self, nbytes: int) -> float:
        """Seconds to move one message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.alpha + self.beta * nbytes
