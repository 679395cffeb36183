"""Lease files: exclusive, heartbeat-renewed job ownership.

A lease is a JSON file inside the job directory.  Its *existence* is
the mutual exclusion (claims go through ``os.link``, which the kernel
makes atomic: exactly one claimant wins, and the file appears with its
full content — there is no window where a half-written lease is
visible).  Its *content* is one :class:`Lease` record, written and read
by :mod:`repro.io.codec`: the owner token, the owner's PID, and an
expiry that heartbeats push forward.

Three operations cover the whole lifecycle:

- :func:`claim` — create the lease if absent (exactly-one-winner).
- :func:`heartbeat` — extend a held lease; fails with
  :class:`LeaseLostError` if the file no longer carries the caller's
  token (someone took the lease over), which is the worker's signal to
  stop touching the job.
- :func:`take_over` — compare-and-swap removal of a *stale* lease via
  ``os.rename`` to a caller-unique tombstone: when several supervisors
  spot the same dead job, exactly one rename succeeds and only that
  supervisor proceeds to requeue and re-claim.

Expiry uses the shared wall clock (``time.time``) — supervisors and
workers coordinating through one on-disk store are on one machine (or
one clock-synced filesystem), and the TTLs are seconds, not
milliseconds.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, replace

from repro.io.atomic import atomic_write_text, fsync_dir
from repro.io.codec import decode, encode

__all__ = [
    "LEASE_NAME",
    "LeaseLostError",
    "Lease",
    "new_token",
    "claim",
    "read",
    "heartbeat",
    "release",
    "take_over",
]

LEASE_NAME = "lease.json"


class LeaseLostError(RuntimeError):
    """The caller's lease token no longer owns the lease file."""


def new_token() -> str:
    """A unique ownership token (uniqueness, not determinism)."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class Lease:
    """One lease file's content."""

    owner: str
    token: str
    pid: int
    acquired: float
    expires: float
    beats: int = 0

    def stale(self, now: float | None = None) -> bool:
        return (now if now is not None else time.time()) >= self.expires


def _lease_path(job_dir: str) -> str:
    return os.path.join(job_dir, LEASE_NAME)


def _load(path: str) -> Lease:
    """The lease in the file at ``path``; ``ValueError`` naming it if
    the file is not one."""
    with open(path, encoding="utf-8") as fh:
        try:
            return decode(Lease, json.loads(fh.read()))
        except ValueError as exc:  # bad JSON, bad UTF-8 or bad fields
            raise ValueError(f"malformed lease {path!r}: {exc}") from exc


def claim(
    job_dir: str,
    owner: str,
    ttl: float,
    now: float | None = None,
    pid: int | None = None,
) -> Lease | None:
    """Atomically create the lease; ``None`` if someone else holds it.

    The content is written to a private temporary file first and
    ``os.link``-ed to the lease name — the link either succeeds
    (this caller owns the job, full content visible) or fails with
    ``FileExistsError`` (someone else does).  Unlike ``O_EXCL`` +
    ``write``, a crash between create and write can never leave an
    empty lease behind.
    """
    if ttl <= 0:
        raise ValueError("lease ttl must be positive")
    t = now if now is not None else time.time()
    lease = Lease(
        owner=owner,
        token=new_token(),
        pid=pid if pid is not None else os.getpid(),
        acquired=t,
        expires=t + ttl,
    )
    final = _lease_path(job_dir)
    tmp = f"{final}.claim.{os.getpid()}.{lease.token[:8]}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(encode(lease), sort_keys=True))
        fh.flush()
        os.fsync(fh.fileno())
    try:
        os.link(tmp, final)
    except FileExistsError:
        return None
    finally:
        os.unlink(tmp)
    fsync_dir(job_dir)
    return lease


def read(job_dir: str) -> Lease | None:
    """The current lease, or ``None`` when the job is unowned.

    A malformed lease file (which atomic writes should make
    impossible) is surfaced as :class:`ValueError` rather than
    guessed at.
    """
    try:
        return _load(_lease_path(job_dir))
    except FileNotFoundError:
        return None


def heartbeat(
    job_dir: str,
    lease: Lease,
    ttl: float,
    now: float | None = None,
    pid: int | None = None,
) -> Lease:
    """Extend a held lease; raise :class:`LeaseLostError` if taken over.

    The token check and the rewrite are not one atomic step, but a
    takeover only happens *after* expiry — a worker that heartbeats
    within the TTL can never race it, and a worker so stalled that it
    missed its window finds out here and must abandon the job.
    ``pid`` lets a supervisor hand the lease to the worker process it
    spawned (the chaos harness reads the pid to aim its SIGKILL).
    """
    current = read(job_dir)
    if current is None or current.token != lease.token:
        raise LeaseLostError(
            f"lease on {job_dir!r} is no longer held by {lease.owner!r}"
        )
    t = now if now is not None else time.time()
    renewed = replace(
        current,
        expires=t + ttl,
        beats=current.beats + 1,
        pid=pid if pid is not None else current.pid,
    )
    atomic_write_text(_lease_path(job_dir), json.dumps(encode(renewed), sort_keys=True))
    return renewed


def release(job_dir: str, lease: Lease) -> bool:
    """Drop a held lease; ``False`` if it was already lost/taken."""
    current = read(job_dir)
    if current is None or current.token != lease.token:
        return False
    os.unlink(_lease_path(job_dir))
    fsync_dir(job_dir)
    return True


def take_over(job_dir: str, now: float | None = None) -> bool:
    """Try to clear a stale lease; ``True`` iff this caller won.

    The compare-and-swap is ``os.rename`` to a caller-unique tombstone:
    when N supervisors race over one dead job, N-1 renames fail with
    ``FileNotFoundError`` and exactly one supervisor proceeds.  A lease
    that is absent entirely also returns ``True`` — the subsequent
    :func:`claim` is itself exclusive, so arbitration still holds.

    Read-then-rename is not one atomic step, so the tombstone is
    verified after the rename: if the lease this caller renamed is not
    the stale one it observed (the stale lease was cleared and a fresh
    claim landed in between), the fresh lease is restored via
    ``os.link`` and the takeover reports lost.  If a new claim already
    filled the gap before the restore, the stolen owner discovers the
    loss through its next heartbeat's token check — which is why every
    lease-guarded side effect must follow a claim or heartbeat, never
    a bare ``read``.
    """
    t = now if now is not None else time.time()
    current = read(job_dir)
    if current is None:
        return True
    if not current.stale(t):
        return False
    tomb = os.path.join(
        job_dir, f"{LEASE_NAME}.stale.{os.getpid()}.{new_token()[:8]}"
    )
    try:
        os.rename(_lease_path(job_dir), tomb)
    except FileNotFoundError:
        return False
    try:
        grabbed = _load(tomb)
    except (OSError, ValueError):
        grabbed = None
    if grabbed is not None and grabbed.token != current.token:
        try:
            os.link(tomb, _lease_path(job_dir))
        except FileExistsError:
            pass
        os.unlink(tomb)
        fsync_dir(job_dir)
        return False
    os.unlink(tomb)
    fsync_dir(job_dir)
    return True
