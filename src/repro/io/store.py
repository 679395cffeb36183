"""The stage checkpoint (docs/robustness.md).

After each completed stage of the distributed finish pipeline the
assembler persists the alive-masks, completed stage list, per-stage
times, and (after traversal) the packed paths in one flat array file —
the sharded store's format (:func:`repro.store.sharded.encode_arrays`):
the masks and paths are raw columns, the rest is its JSON header, and a
CRC-32 covers every byte.  No pickle, no code execution on load, so
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

#: 1 was a compressed ``.npz`` archive; 2 is the flat array file.
_CHECKPOINT_VERSION = 2

_HEADER_KEYS = ("checkpoint_version", "fingerprint", "completed", "stage_times", "has_paths")
_COLUMNS = ("node_alive", "edge_alive", "paths_flat", "paths_offsets")


@dataclass
class CheckpointState:
    """Everything needed to resume a finish pipeline mid-stage-sequence.

    ``fingerprint`` identifies the run (read counts, partition count,
    trimming parameters, ...): a resume against a checkpoint from a
    different configuration is refused rather than silently producing
    wrong contigs.  ``completed`` lists finished stages in execution
    order; ``stage_times`` holds their recorded per-stage seconds;
    ``paths`` — packed as (flat node ids, per-path lengths) — is present
    once the traversal stage has completed.
    """

    fingerprint: dict
    completed: list[str] = field(default_factory=list)
    node_alive: np.ndarray | None = None
    edge_alive: np.ndarray | None = None
    stage_times: dict = field(default_factory=dict)
    paths: tuple[np.ndarray, np.ndarray] | None = None


def save_checkpoint(state: CheckpointState, dest) -> None:
    """Persist a stage checkpoint atomically at exactly ``dest``."""
    if state.node_alive is None or state.edge_alive is None:
        raise ValueError("checkpoint needs both alive-masks")
    flat = offsets = np.empty(0, dtype=np.int64)
    if state.paths is not None:
        flat, lens = (np.asarray(a, dtype=np.int64) for a in state.paths)
        offsets = np.concatenate([[0], np.cumsum(lens)])
    blob = encode_arrays(
        {
            "node_alive": np.asarray(state.node_alive, dtype=bool),
            "edge_alive": np.asarray(state.edge_alive, dtype=bool),
            "paths_flat": flat,
            "paths_offsets": offsets,
        },
        checkpoint_version=_CHECKPOINT_VERSION,
        fingerprint=state.fingerprint,
        completed=list(state.completed),
        stage_times=state.stage_times,
        has_paths=state.paths is not None,
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
    if header["has_paths"]:
        paths = (
            columns["paths_flat"].astype(np.int64),
            np.diff(columns["paths_offsets"]).astype(np.int64),
        )
    return CheckpointState(
        fingerprint=header["fingerprint"],
        completed=list(header["completed"]),
        node_alive=columns["node_alive"].astype(bool),
        edge_alive=columns["edge_alive"].astype(bool),
        stage_times=header["stage_times"],
        paths=paths,
    )
