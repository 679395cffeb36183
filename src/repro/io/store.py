"""The stage checkpoint (docs/robustness.md).

After each completed stage of the distributed finish pipeline the
assembler persists the alive-masks, the seconds of every completed
stage, and (after traversal) the packed paths in one flat array file —
the sharded store's format (:func:`repro.store.sharded.encode_arrays`):
the bit-packed masks and ``int32`` paths are raw columns, the rest
(with the mask lengths) is its JSON header, and a CRC-32 covers every
byte.  No pickle, no code execution on load, so
``repro assemble --resume`` and the job service restart from the last
good stage instead of the beginning.

The file is written through :func:`repro.io.atomic.atomic_write`, so a
crash mid-write can never leave a truncated or corrupt checkpoint:
either the previous file survives untouched or the new one is complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.io.atomic import atomic_write
from repro.store.sharded import encode_arrays, read_arrays

__all__ = ["CheckpointState", "save_checkpoint", "load_checkpoint"]

#: 1 was a compressed ``.npz`` archive; 2 the flat array file with
#: byte masks and ``int64`` paths; 3 packs the masks to bits and the
#: paths to ``int32``.
_CHECKPOINT_VERSION = 3

_HEADER_KEYS = (
    "checkpoint_version", "fingerprint", "stage_times", "n_nodes", "n_edges"
)
_COLUMNS = ("node_alive", "edge_alive", "paths_flat", "paths_offsets")


@dataclass
class CheckpointState:
    """Everything needed to resume a finish pipeline mid-stage-sequence.

    ``fingerprint`` identifies the run (read counts, partition count,
    finish plan, ...): a resume against a checkpoint from a
    different configuration is refused rather than silently producing
    wrong contigs.  ``stage_times`` holds the recorded seconds of every
    finished stage, in execution order;
    ``paths`` — packed as (flat node ids, per-path lengths) — is present
    once the traversal stage has completed.
    """

    fingerprint: dict
    node_alive: np.ndarray | None = None
    edge_alive: np.ndarray | None = None
    stage_times: dict = field(default_factory=dict)
    paths: tuple[np.ndarray, np.ndarray] | None = None


def save_checkpoint(state: CheckpointState, dest) -> None:
    """Persist a stage checkpoint atomically at exactly ``dest``."""
    if state.node_alive is None or state.edge_alive is None:
        raise ValueError("checkpoint needs both alive-masks")
    node_alive = np.asarray(state.node_alive, dtype=bool)
    edge_alive = np.asarray(state.edge_alive, dtype=bool)
    # Node ids and path offsets are below the node count: int32 holds them.
    flat = offsets = np.empty(0, dtype=np.int32)
    if state.paths is not None:
        flat, lens = (np.asarray(a, dtype=np.int32) for a in state.paths)
        offsets = np.concatenate([[0], np.cumsum(lens, dtype=np.int32)])
    blob = encode_arrays(
        {
            "node_alive": np.packbits(node_alive),
            "edge_alive": np.packbits(edge_alive),
            "paths_flat": flat,
            "paths_offsets": offsets,
        },
        checkpoint_version=_CHECKPOINT_VERSION,
        fingerprint=state.fingerprint,
        stage_times=state.stage_times,
        n_nodes=node_alive.size,
        n_edges=edge_alive.size,
    )
    atomic_write(dest, lambda fh: fh.write(blob))


def load_checkpoint(source) -> CheckpointState:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`ValueError` naming the file when it is not an array
    file, is damaged (the CRC covers every byte, so a damaged file is
    refused, never loaded as different state), lacks an expected key or
    column, or was written by an unsupported format version.  The
    arrays returned are writable copies.
    """
    path = str(source)
    header, columns = read_arrays(path)
    found = header.get("checkpoint_version")
    if found is not None and found != _CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {found} in {path!r} "
            f"(this build reads version {_CHECKPOINT_VERSION})"
        )
    missing = sorted(
        {*_HEADER_KEYS} - header.keys() | {*_COLUMNS} - columns.keys()
    )
    if missing:
        raise ValueError(
            f"corrupt or foreign checkpoint {path!r}: missing keys {missing}"
        )
    paths = None
    # Saved paths have at least the leading 0 offset, even when empty.
    if columns["paths_offsets"].size:
        paths = (
            columns["paths_flat"].astype(np.int64),
            np.diff(columns["paths_offsets"]).astype(np.int64),
        )
    return CheckpointState(
        fingerprint=header["fingerprint"],
        node_alive=np.unpackbits(columns["node_alive"], count=header["n_nodes"]) > 0,
        edge_alive=np.unpackbits(columns["edge_alive"], count=header["n_edges"]) > 0,
        stage_times=header["stage_times"],
        paths=paths,
    )
