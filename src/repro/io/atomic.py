"""The one durable-write sequence (docs/robustness.md).

Every file this package replaces in place — stage checkpoints, store
shards and manifests, the job service's records and a job's contigs —
goes through :func:`atomic_write`: the bytes are written to a sibling
temporary file, flushed and fsynced, ``os.replace``d over the target,
and the containing directory is fsynced so the new name survives power
loss.  A crash at any point leaves either the previous file untouched
or the new one complete, never a torn file; a writer that raises
leaves no temporary file behind.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable
from contextlib import suppress
from pathlib import Path
from typing import IO

__all__ = ["fsync_dir", "atomic_write", "atomic_write_text"]

#: process-wide tmp-name disambiguator (``itertools.count`` increments
#: are atomic under the GIL, so threads never mint the same name).
_tmp_counter = itertools.count()


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a completed ``os.replace`` survives power loss.

    ``os.replace`` makes the rename atomic with respect to crashes of
    this process, but the *directory entry* itself lives in the parent
    directory's data — until that is flushed, a power loss can roll the
    rename back.  Platforms whose directories cannot be opened or
    fsynced (some network filesystems, Windows) are silently skipped:
    the write is still atomic, just not power-loss durable.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir-fsync
        pass
    finally:
        os.close(fd)


def atomic_write(path: str | Path, write: Callable[[IO], None], mode: str = "wb") -> None:
    """Durably replace ``path`` with what ``write(file)`` produces.

    ``mode`` is ``"wb"`` or ``"w"`` (UTF-8 text).  The temporary name is
    unique per call, not just per process: concurrent writers in one
    process (supervisor threads) must not share it.
    """
    final = str(path)
    tmp = f"{final}.tmp.{os.getpid()}.{next(_tmp_counter)}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        fsync_dir(os.path.dirname(final) or ".")
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Durably replace a small text file."""
    atomic_write(path, lambda fh: fh.write(text), mode="w")
