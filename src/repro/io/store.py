"""The stage-checkpoint archive (docs/robustness.md).

After each completed stage of the distributed finish pipeline the
assembler persists the alive-masks, completed stage list, per-stage
times, and (after traversal) the packed paths in a single ``.npz``
archive of numpy arrays — no pickle, no code execution on load — so
``repro assemble --resume`` and the job service restart from the last
good stage instead of the beginning.

The archive is written through :func:`repro.io.atomic.atomic_savez`, so
a crash mid-write can never leave a truncated or corrupt checkpoint:
either the previous file survives untouched or the new one is complete.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.io.atomic import atomic_savez

__all__ = ["CheckpointState", "save_checkpoint", "load_checkpoint"]

_CHECKPOINT_VERSION = 1

_CHECKPOINT_KEYS = (
    "version",
    "fingerprint",
    "completed",
    "node_alive",
    "edge_alive",
    "stage_times",
    "has_paths",
    "paths_flat",
    "paths_offsets",
)


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


def _json_array(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode("utf-8"), dtype=np.uint8)


def _json_value(arr: np.ndarray):
    return json.loads(bytes(arr.tobytes()).decode("utf-8"))


def save_checkpoint(state: CheckpointState, dest) -> None:
    """Persist a stage checkpoint atomically (see :class:`CheckpointState`)."""
    if state.node_alive is None or state.edge_alive is None:
        raise ValueError("checkpoint needs both alive-masks")
    flat = offsets = np.empty(0, dtype=np.int64)
    if state.paths is not None:
        flat, lens = (np.asarray(a, dtype=np.int64) for a in state.paths)
        offsets = np.concatenate([[0], np.cumsum(lens)])
    atomic_savez(
        dest,
        version=np.int64(_CHECKPOINT_VERSION),
        fingerprint=_json_array(state.fingerprint),
        completed=_json_array(list(state.completed)),
        node_alive=np.asarray(state.node_alive, dtype=bool),
        edge_alive=np.asarray(state.edge_alive, dtype=bool),
        stage_times=_json_array(state.stage_times),
        has_paths=np.bool_(state.paths is not None),
        paths_flat=flat,
        paths_offsets=offsets,
    )


def load_checkpoint(source) -> CheckpointState:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`ValueError` naming the file — never a bare
    ``KeyError``, ``BadZipFile`` or ``zlib.error`` — when the file is
    not an archive, is damaged, is missing expected arrays, or was
    written by an unsupported format version.  Every member is read
    whole, so its CRC-32 is checked: a damaged archive is refused, never
    loaded as different state.
    """
    try:
        with zipfile.ZipFile(source) as archive:
            members = {
                name.removesuffix(".npy"): archive.read(name)
                for name in archive.namelist()
            }
    except (
        zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError,
        RuntimeError,  # a flipped "encrypted" flag
    ) as exc:
        raise ValueError(f"not a checkpoint archive: {source!r} ({exc})") from exc
    missing = sorted(set(_CHECKPOINT_KEYS) - set(members))
    if missing:
        raise ValueError(
            f"corrupt or foreign checkpoint archive {source!r}: "
            f"missing keys {missing}"
        )
    damage = (ValueError, TypeError, EOFError)
    try:
        data = {
            key: np.load(io.BytesIO(members[key]), allow_pickle=False)
            for key in _CHECKPOINT_KEYS
        }
        found = int(data["version"])
    except damage as exc:
        raise ValueError(f"corrupt checkpoint archive {source!r}: {exc}") from exc
    if found != _CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint archive version {found} in {source!r} "
            f"(this build reads version {_CHECKPOINT_VERSION})"
        )
    try:
        paths = None
        if bool(data["has_paths"]):
            paths = (
                data["paths_flat"].astype(np.int64),
                np.diff(data["paths_offsets"]).astype(np.int64),
            )
        return CheckpointState(
            fingerprint=_json_value(data["fingerprint"]),
            completed=list(_json_value(data["completed"])),
            node_alive=data["node_alive"].astype(bool),
            edge_alive=data["edge_alive"].astype(bool),
            stage_times=_json_value(data["stage_times"]),
            paths=paths,
        )
    except damage as exc:
        raise ValueError(f"corrupt checkpoint archive {source!r}: {exc}") from exc
