"""Interprocedural purity rules: PURE001, PURE002, ARCH002.

The kernel/merge split (``docs/architecture.md``) makes every
execution backend — serial loop, simulated MPI cluster, forked process
pool — interchangeable **only if kernels are pure**: the process
backend runs kernels in workers that inherit the enriched assembly
copy-on-write and resolve kernels by name, so a kernel that mutates
its inputs or module globals diverges silently from the serial
backend, and one that reaches hidden nondeterminism (unseeded RNG,
the wall clock, the filesystem) breaks the paper's Table III
invariance claim (identical assembly quality at every partition
count).  ARCH001 checks the *import* discipline per file; these rules
walk the whole-program call graph, so a kernel calling a helper in
another module that mutates shared state is caught too.

- **PURE001** — a ``*_kernel`` function, directly or via any
  transitively called helper, mutates one of its parameters or a
  module global.
- **PURE002** — a ``*_kernel`` function transitively reaches an
  unseeded RNG draw, a wall-clock read, or filesystem/network I/O
  (the interprocedural generalization of DET001).
- **ARCH002** — a ``repro.distributed.stages.register_stage`` call
  whose kernel/merge do not satisfy the registry contract:
  module-level named functions, kernel named ``*_kernel`` and callable
  as ``kernel(subject, part, **params)``, merge callable as
  ``merge(subject, proposals, **params)``.

The underlying analysis is optimistic about calls it cannot resolve
(object methods, out-of-tree imports) — see ``repro.lint.project`` —
so every finding here points at a concrete mutation/effect site.
Findings anchor at the kernel ``def`` (PURE001/PURE002) or the
``register_stage`` call (ARCH002); suppress a deliberate exception
with ``# noqa: RULEID`` on that line.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.project import (
    ArgRef,
    CallSite,
    FileSummary,
    FunctionInfo,
    ProjectContext,
)
from repro.lint.registry import ProjectRule, register

__all__ = ["KernelMutatesState", "KernelReachesNondeterminism", "StageContract"]

REGISTER_STAGE_FQ = "repro.distributed.stages.register_stage"

_AMBIENT_LABEL = {
    "rng": "an unseeded RNG draw",
    "clock": "a wall-clock read",
    "io": "filesystem/network I/O",
}


def _iter_kernels(project: ProjectContext) -> Iterator[FunctionInfo]:
    for info in project.functions.values():
        if info.name.endswith("_kernel") and info.is_module_level:
            yield info


def _chain_text(project: ProjectContext, via: tuple[str, ...], owner: str) -> str:
    """Human-readable call chain ``via helper -> helper2`` for a witness."""
    if not via:
        return ""
    names = []
    for fq in via:
        info = project.functions.get(fq)
        names.append(f"`{info.name if info else fq}`")
    return " via " + " -> ".join(names)


def _site_text(project: ProjectContext, owner: str, lineno: int) -> str:
    info = project.functions.get(owner)
    return f"{info.path if info else owner}:{lineno}"


@register
class KernelMutatesState(ProjectRule):
    id = "PURE001"
    severity = Severity.ERROR
    summary = "kernel (or a transitive helper) mutates a parameter or module global"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in _iter_kernels(project):
            s = project.summary(info.fq)
            for pname, (via, eff, owner) in sorted(s.mutated_params.items()):
                yield self.finding_at(
                    info.path,
                    info.lineno,
                    info.col,
                    f"kernel `{info.name}` mutates its parameter `{pname}`"
                    f"{_chain_text(project, via, owner)}: {eff.detail} at "
                    f"{_site_text(project, owner, eff.lineno)} — kernels must "
                    "return proposals, never mutate shared state, or the "
                    "process backend diverges from the serial backend",
                )
            for gname, (via, eff, owner) in sorted(s.mutated_globals.items()):
                yield self.finding_at(
                    info.path,
                    info.lineno,
                    info.col,
                    f"kernel `{info.name}` mutates module global `{gname}`"
                    f"{_chain_text(project, via, owner)}: {eff.detail} at "
                    f"{_site_text(project, owner, eff.lineno)} — forked "
                    "workers never see master-side global state, so this "
                    "breaks serial-vs-process equivalence",
                )


@register
class KernelReachesNondeterminism(ProjectRule):
    id = "PURE002"
    severity = Severity.ERROR
    summary = "kernel transitively reaches unseeded RNG, wall clock, or I/O"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in _iter_kernels(project):
            s = project.summary(info.fq)
            for kind in ("rng", "clock", "io"):
                hit = s.ambient.get(kind)
                if hit is None:
                    continue
                via, eff, owner = hit
                yield self.finding_at(
                    info.path,
                    info.lineno,
                    info.col,
                    f"kernel `{info.name}` reaches {_AMBIENT_LABEL[kind]}"
                    f"{_chain_text(project, via, owner)}: {eff.detail} at "
                    f"{_site_text(project, owner, eff.lineno)} — kernel "
                    "output must be a pure function of (subject, part, params) "
                    "so every backend produces identical proposals",
                )


def _stage_arg(cs: CallSite, index: int, kwname: str) -> ArgRef | None:
    if len(cs.pos) > index:
        return cs.pos[index]
    for name, ref in cs.kw:
        if name == kwname:
            return ref
    return None


@register
class StageContract(ProjectRule):
    id = "ARCH002"
    severity = Severity.ERROR
    summary = "register_stage kernel/merge does not match the registry contract"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for summary in project.files.values():
            calls = list(summary.module_calls)
            for info in summary.functions.values():
                calls.extend(info.calls)
            for cs in calls:
                fq = project.resolve_import_target(summary.module, cs.callee)
                if fq != REGISTER_STAGE_FQ:
                    continue
                yield from self._check_registration(project, summary, cs)

    def _check_registration(
        self, project: ProjectContext, summary: FileSummary, cs: CallSite
    ) -> Iterator[Finding]:
        for role, index, checker in (
            ("kernel", 1, self._check_kernel),
            ("merge", 2, self._check_merge),
        ):
            ref = _stage_arg(cs, index, role)
            if ref is None:
                continue
            if ref.kind == "lambda":
                yield self._contract_finding(
                    summary, cs,
                    f"{role} is a lambda — stages must register module-level "
                    "named functions so forked workers can resolve them by "
                    "name",
                )
                continue
            if ref.kind not in ("name", "attr") or ref.text is None:
                continue  # dynamically built callable: cannot verify
            fn = project.resolve_call(summary.module, ref.text)
            if fn is None:
                continue  # out-of-project function: cannot verify
            if not fn.is_module_level:
                yield self._contract_finding(
                    summary, cs,
                    f"{role} `{ref.text}` resolves to `{fn.qualname}`, which "
                    "is not a module-level function — forked workers resolve "
                    "stages by name at import time",
                )
                continue
            yield from checker(summary, cs, fn)

    def _check_kernel(
        self, summary: FileSummary, cs: CallSite, fn: FunctionInfo
    ) -> Iterator[Finding]:
        if not fn.name.endswith("_kernel"):
            yield self._contract_finding(
                summary, cs,
                f"kernel `{fn.name}` is not named `*_kernel` — the naming "
                "convention is what ARCH001/PURE001 key their static "
                "guarantees on",
            )
        if len(fn.pos_params) < 2 and not fn.has_vararg:
            yield self._contract_finding(
                summary, cs,
                f"kernel `{fn.name}` takes {len(fn.pos_params)} positional "
                "parameter(s); backends invoke `kernel(subject, part, **params)`",
            )

    def _check_merge(
        self, summary: FileSummary, cs: CallSite, fn: FunctionInfo
    ) -> Iterator[Finding]:
        if len(fn.pos_params) < 2 and not fn.has_vararg:
            yield self._contract_finding(
                summary, cs,
                f"merge `{fn.name}` takes {len(fn.pos_params)} positional "
                "parameter(s); backends invoke "
                "`merge(subject, proposals, **params)`",
            )

    def _contract_finding(
        self, summary: FileSummary, cs: CallSite, detail: str
    ) -> Finding:
        return self.finding_at(
            summary.path,
            cs.lineno,
            cs.col,
            f"stage registration violates the StageSpec contract: {detail}",
        )
