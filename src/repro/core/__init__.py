"""The Focus assembler: end-to-end pipeline and assembly statistics."""

from repro.core.config import AssemblyConfig
from repro.core.focus import AssemblyResult, FocusAssembler, finish_plan, run_plan
from repro.core.pipeline import StageTimer
from repro.core.stats import AssemblyStats, n50

__all__ = [
    "AssemblyConfig",
    "FocusAssembler",
    "AssemblyResult",
    "finish_plan",
    "run_plan",
    "StageTimer",
    "AssemblyStats",
    "n50",
]
