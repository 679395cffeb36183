"""Repository-wide test configuration.

Hypothesis deadlines are disabled: property tests share the machine
with benchmark runs and simulated-cluster threads, and wall-clock
deadlines turn load spikes into spurious failures.
"""

import os
import re

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def durable_ops(monkeypatch):
    """Every ``os.fsync`` / ``os.replace`` while the test runs, in
    order, as ``("fsync" | "replace", name)``: the base name of the
    fsynced file or directory (looked up through ``/proc/self/fd``) or
    of the replace target, with an atomic-write ``.tmp.<pid>.<n>``
    suffix stripped."""
    ops = []
    real_fsync, real_replace = os.fsync, os.replace

    def name(path):
        return re.sub(r"\.tmp\.\d+\.\d+$", "", os.path.basename(path))

    def fsync(fd):
        ops.append(("fsync", name(os.readlink(f"/proc/self/fd/{fd}"))))
        real_fsync(fd)

    def replace(src, dst):
        ops.append(("replace", name(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return ops
