"""Store scrubbing: re-validate every shard against its manifest.

``repro verify-store`` is the offline integrity pass for ``repro
pack`` output.  The pack path already writes defensively — shards are
stamped (version / kind / index / record count), renamed into place
atomically, and the manifest is written last — but disks rot, copies
truncate, and people move files between stores.  The scrub re-checks,
for every shard the manifest claims:

- the file exists and its size matches the manifest's ``nbytes``;
- the shard's CRC holds and its stamp fields agree with the manifest
  slot (version, kind, index, record count) — the same
  validation the hot read path performs in
  :meth:`~repro.store.sharded.ShardedStore.load_shard`;

plus, store-wide: a reads store's global offsets table passes the
same CRC and stamp check (it is reported like a shard, index -1), the
manifest fingerprint (which assembly checkpoints embed) recomputes to
a stable value, and no *orphan* shard files sit in the directory
unclaimed by the manifest (debris from an interrupted re-pack).

With ``quarantine=True`` corrupt shards are moved into
``<store>/quarantine/`` so a follow-up ``repro pack --resume`` of the
same input rebuilds exactly the damaged shards: the resume path treats
a missing shard as work to redo and reuses every intact one.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

from repro.store.manifest import MANIFEST_NAME, StoreManifest
from repro.store.reads import OFFSETS_NAME, READS_KIND
from repro.store.sharded import SHARD_PATTERN, ShardedStore

__all__ = ["ShardReport", "VerifyReport", "verify_store", "main"]

QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class ShardReport:
    """Scrub outcome for one manifest shard slot."""

    name: str
    index: int
    ok: bool
    #: "" when ok, else what failed (missing / size / stamp / corrupt).
    error: str = ""
    quarantined: bool = False


@dataclass
class VerifyReport:
    """Scrub outcome for a whole store directory."""

    path: str
    kind: str = ""
    fingerprint: str = ""
    n_shards: int = 0
    n_records: int = 0
    shards: list[ShardReport] = field(default_factory=list)
    #: shard-shaped files present on disk but absent from the manifest.
    orphans: list[str] = field(default_factory=list)
    #: store-level failure (missing/corrupt manifest), shards unchecked.
    fatal: str = ""

    @property
    def ok(self) -> bool:
        return not self.fatal and all(s.ok for s in self.shards)

    @property
    def n_bad(self) -> int:
        return sum(1 for s in self.shards if not s.ok)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _check_shard(store: ShardedStore, index: int) -> ShardReport:
    info = store.manifest.shards[index]
    path = store.shard_path(index)
    try:
        size = os.path.getsize(path)
    except OSError:
        return ShardReport(info.name, index, ok=False, error="missing")
    if size != info.nbytes:
        error = f"size {size} != manifest nbytes {info.nbytes}"
        return ShardReport(info.name, index, ok=False, error=error)
    try:
        store.load_shard(index)
    except ValueError as exc:
        return ShardReport(info.name, index, ok=False, error=str(exc))
    return ShardReport(info.name, index, ok=True)


def _check_table(store: ShardedStore, name: str) -> ShardReport:
    try:
        store.load_table(name)
    except ValueError as exc:
        return ShardReport(name, -1, ok=False, error=str(exc))
    return ShardReport(name, -1, ok=True)


def _find_orphans(path: str, manifest: StoreManifest) -> list[str]:
    claimed = {s.name for s in manifest.shards}
    return [
        e for e in sorted(os.listdir(path)) if SHARD_PATTERN.fullmatch(e) and e not in claimed
    ]


def _quarantine(store_path: str, shard_name: str) -> bool:
    pen = os.path.join(store_path, QUARANTINE_DIR)
    os.makedirs(pen, exist_ok=True)
    try:
        os.replace(
            os.path.join(store_path, shard_name),
            os.path.join(pen, shard_name),
        )
    except OSError:
        return False  # e.g. the shard is missing entirely
    return True


def verify_store(path: str, quarantine: bool = False) -> VerifyReport:
    """Scrub one store directory; never raises for data problems."""
    report = VerifyReport(path=str(path))
    try:
        store = ShardedStore(path, cache_budget=0)
    except ValueError as exc:
        report.fatal = str(exc)
        return report
    manifest = store.manifest
    report.kind = manifest.kind
    report.fingerprint = manifest.fingerprint()
    report.n_shards = manifest.n_shards
    report.n_records = store.n_records
    checks = [_check_shard(store, index) for index in range(manifest.n_shards)]
    if manifest.kind == READS_KIND:
        checks.append(_check_table(store, OFFSETS_NAME))
    for shard in checks:
        if not shard.ok and quarantine and shard.error != "missing":
            shard = replace(shard, quarantined=_quarantine(path, shard.name))
        report.shards.append(shard)
    report.orphans = _find_orphans(path, manifest)
    return report


def main(
    path: str, quarantine: bool = False, fmt: str = "text", stream=None
) -> int:
    """CLI entry for ``repro verify-store``; exit 1 on any failure."""
    stream = stream or sys.stdout
    report = verify_store(path, quarantine=quarantine)
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2), file=stream)
    else:
        if report.fatal:
            print(f"{path}: FATAL: {report.fatal}", file=stream)
        else:
            print(
                f"{path}: {report.kind} store, {report.n_shards} shards, "
                f"{report.n_records} records, fingerprint "
                f"{report.fingerprint}",
                file=stream,
            )
            for shard in report.shards:
                if shard.ok:
                    continue
                pen = " -> quarantined" if shard.quarantined else ""
                print(f"  BAD {shard.name}: {shard.error}{pen}", file=stream)
            for orphan in report.orphans:
                print(
                    f"  orphan {orphan}: not in {MANIFEST_NAME}", file=stream
                )
            verdict = "ok" if report.ok else f"{report.n_bad} bad shard(s)"
            print(f"  scrub: {verdict}", file=stream)
    return 0 if report.ok else 1
