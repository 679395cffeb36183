"""Store manifests: the durable index of a sharded store directory.

A sharded store is a directory of fixed-capacity shard files (format
in :mod:`repro.store.sharded`) plus one ``manifest.json`` describing
them: format version, store kind (``reads``), shard capacity,
per-shard record counts, and free-form metadata.  The manifest is
written last — after every shard file has been atomically renamed into
place — so its presence certifies a complete store; a crash mid-pack
leaves shards without a manifest, which the writer detects and resumes
from.

Loading raises :class:`ValueError` naming the file (matching the
``repro.io.store`` conventions) when it is not a manifest, is torn or
mistyped, was written by an unsupported format version, or describes a
different store kind than the caller expects.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.io.atomic import atomic_write_text, fsync_dir
from repro.io.codec import decode, encode

__all__ = ["STORE_VERSION", "MANIFEST_NAME", "ShardInfo", "StoreManifest"]

#: format version of the sharded-store layout; bump on layout changes.
#: 2: flat CRC-checked shard files; version 1's ``.npz`` stores are
#: refused (re-pack them).  ``quals`` is any integer dtype, widened on read.
#: 3: the reads store's global offsets are a CRC-checked table
#: (``offsets.bin``) rather than an unchecked ``offsets.npy``; version-2
#: stores are refused the same way.
STORE_VERSION = 3

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ShardInfo:
    """One shard file as the manifest records it."""

    name: str
    n_records: int
    nbytes: int


@dataclass
class StoreManifest:
    """Everything needed to open a sharded store directory."""

    kind: str
    shard_size: int
    shards: list[ShardInfo] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    version: int = STORE_VERSION

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.shards)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def to_json(self) -> str:
        return json.dumps({"format": "repro.store", **encode(self)}, indent=2, sort_keys=True)

    def fingerprint(self) -> str:
        """Content digest identifying this exact store layout.

        Incorporated into assembly checkpoint fingerprints so a resume
        against a store whose shards changed underneath it is refused.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]

    def save(self, directory: str | Path) -> str:
        """Atomically write ``manifest.json`` into the store directory."""
        directory = str(directory)
        final = os.path.join(directory, MANIFEST_NAME)
        atomic_write_text(final, self.to_json() + "\n")
        fsync_dir(directory)
        return final

    @classmethod
    def load(cls, directory: str | Path, kind: str | None = None) -> "StoreManifest":
        """Read and validate a store manifest.

        Raises :class:`ValueError` when the manifest is missing, not a
        store manifest, version-mismatched, or (with ``kind`` given) of
        a different store kind.
        """
        path = os.path.join(str(directory), MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise ValueError(
                f"not a sharded store: {str(directory)!r} has no {MANIFEST_NAME} "
                "(incomplete pack? re-run with resume=True)"
            ) from None
        except (OSError, ValueError) as exc:  # ValueError: JSON or UTF-8
            raise ValueError(f"corrupt store manifest {path!r}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != "repro.store":
            raise ValueError(f"not a store manifest: {path!r}")
        found = payload.get("version")
        if found != STORE_VERSION:
            raise ValueError(
                f"unsupported store version {found} in {path!r} "
                f"(this build reads version {STORE_VERSION}; "
                "re-pack older stores with `repro pack`)"
            )
        if kind is not None and payload.get("kind") != kind:
            raise ValueError(
                f"store manifest {path!r} holds {payload.get('kind')!r} "
                f"records, expected {kind!r}"
            )
        payload.pop("format")
        try:
            return decode(cls, payload)
        except ValueError as exc:
            raise ValueError(f"corrupt store manifest {path!r}: {exc}") from exc
