"""File and directory drivers, output formatting, exit codes.

`lint_source` runs the per-file rules over one unit of source;
`analyze_paths` is the whole-program pass — it walks files through the
content-hash cache, runs the file rules per module and the project
rules (PURE001/PURE002/ARCH002) over the resolved call graph, and
returns findings plus run statistics.  `lint_paths` is its
findings-only wrapper; `run` is the CLI entry point used by
``python -m repro lint``.

Exit codes: 0 clean, 1 findings at or above the failing severity
(errors by default, everything under ``--strict``), 2 on bad input
(missing paths, non-Python file arguments).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.cache import DEFAULT_CACHE, LintCache
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectContext
from repro.lint.registry import ProjectRule, Rule, file_rules, project_rules

__all__ = [
    "UsageError",
    "LintStats",
    "LintRun",
    "lint_source",
    "analyze_paths",
    "lint_paths",
    "iter_python_files",
    "run",
]

#: directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


class UsageError(ValueError):
    """Bad command-line input (exit code 2), e.g. a non-Python file."""


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule="E999",
        message=f"syntax error: {exc.msg}",
        severity=Severity.ERROR,
    )


def _split_rules(
    rules: Sequence[Rule] | None,
) -> tuple[list[Rule], list[ProjectRule]]:
    if rules is None:
        return file_rules(), project_rules()
    return (
        [r for r in rules if not isinstance(r, ProjectRule)],
        [r for r in rules if isinstance(r, ProjectRule)],
    )


def lint_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one source string with the per-file rules.

    Project rules need the whole-program context and are inert here —
    use :func:`analyze_paths` / :func:`lint_paths` for them.
    """
    frules, _ = _split_rules(rules)
    try:
        ctx = FileContext.from_source(source, path=path)
    except SyntaxError as exc:
        return [_syntax_finding(path, exc)]
    findings = [
        f
        for rule in frules
        for f in rule.check(ctx)
        if not ctx.suppressed(f.line, f.rule)
    ]
    return sorted(findings)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list.

    Directories are walked recursively; an explicit file argument must
    be a ``.py`` file — anything else is a :class:`UsageError` rather
    than a silently-"clean" no-op.
    """
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(
                f
                for f in p.rglob("*.py")
                if not (set(f.parts) & _SKIP_DIRS)
            )
        elif p.suffix == ".py" and p.exists():
            out.add(p)
        elif p.exists():
            raise UsageError(
                f"not a python file: {p} (arguments must be .py files or "
                "directories)"
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    return sorted(out)


@dataclass
class LintStats:
    """Statistics of one :func:`analyze_paths` run."""

    files: int = 0
    parses: int = 0
    cache_hits: int = 0
    project_functions: int = 0
    rule_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.parses + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def report(self) -> str:
        lines = [
            f"files analyzed:    {self.files}",
            f"parsed this run:   {self.parses}",
            f"cache hits:        {self.cache_hits} "
            f"({self.cache_hit_rate:.0%} hit rate)",
            f"project functions: {self.project_functions}",
        ]
        if self.rule_counts:
            lines.append("findings by rule:")
            for rid in sorted(self.rule_counts):
                lines.append(f"  {rid}: {self.rule_counts[rid]}")
        return "\n".join(lines)


@dataclass
class LintRun:
    """Findings plus run statistics from one whole-program pass."""

    findings: list[Finding]
    stats: LintStats


def analyze_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    cache: LintCache | None = None,
) -> LintRun:
    """Whole-program lint of every python file under ``paths``.

    Per-file rules run on each parsed module; project rules run once
    over the :class:`~repro.lint.project.ProjectContext` built from
    all of them, so cross-module kernel purity is checked whenever at
    least two related files are linted together.  Parsed files and
    effect summaries come from the content-hash ``cache`` (the
    process-global default unless one is passed), so re-linting an
    unchanged tree parses nothing.
    """
    cache = cache if cache is not None else DEFAULT_CACHE
    frules, prules = _split_rules(rules)
    files = iter_python_files(paths)
    parses0, hits0 = cache.parses, cache.hits

    findings: list[Finding] = []
    contexts: dict[str, FileContext] = {}
    summaries = []
    for f in files:
        path = str(f)
        source = f.read_text(encoding="utf-8")
        try:
            entry = cache.file_entry(path, source)
        except SyntaxError as exc:
            findings.append(_syntax_finding(path, exc))
            continue
        contexts[path] = entry.ctx
        summaries.append(entry.summary)
        findings.extend(
            fd
            for rule in frules
            for fd in rule.check(entry.ctx)
            if not entry.ctx.suppressed(fd.line, fd.rule)
        )

    if prules and summaries:
        project = ProjectContext(summaries)
        for rule in prules:
            for fd in rule.check_project(project):
                ctx = contexts.get(fd.path)
                if ctx is not None and ctx.suppressed(fd.line, fd.rule):
                    continue
                findings.append(fd)

    findings.sort()
    counts: dict[str, int] = {}
    for fd in findings:
        counts[fd.rule] = counts.get(fd.rule, 0) + 1
    stats = LintStats(
        files=len(files),
        parses=cache.parses - parses0,
        cache_hits=cache.hits - hits0,
        project_functions=sum(len(s.functions) for s in summaries),
        rule_counts=counts,
    )
    return LintRun(findings=findings, stats=stats)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    cache: LintCache | None = None,
) -> list[Finding]:
    """Findings of a whole-program lint (see :func:`analyze_paths`)."""
    return analyze_paths(paths, rules=rules, cache=cache).findings


# -- CLI entry point --------------------------------------------------------


def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps([f.to_dict() for f in findings], indent=2)
    return "\n".join(f.format_text() for f in findings)


def run(
    paths: Sequence[str],
    fmt: str = "text",
    strict: bool = False,
    stream=None,
    stats: bool = False,
) -> int:
    """CLI driver; prints findings and returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    try:
        result = analyze_paths(paths)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = result.findings

    if findings or fmt == "json":
        print(format_findings(findings, fmt=fmt), file=stream)
    floor = Severity.WARNING if strict else Severity.ERROR
    failing = sum(1 for f in findings if f.severity >= floor)
    if findings and fmt == "text":
        errors = sum(1 for f in findings if f.severity >= Severity.ERROR)
        print(
            f"{len(findings)} finding(s): {errors} error(s), "
            f"{len(findings) - errors} warning(s)",
            file=stream,
        )
    if stats and fmt == "text":
        print(result.stats.report(), file=stream)
    return 1 if failing else 0
