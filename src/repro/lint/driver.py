"""File and directory drivers, output formatting, exit codes.

`lint_source` runs every rule over one unit of source; `lint_paths`
runs it over each python file under the given paths; `run` is the CLI
entry point used by ``python -m repro lint``.

Exit codes: 0 clean, 1 findings at or above the failing severity
(errors by default, everything under ``--strict``), 2 on bad input
(missing paths, non-Python file arguments).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules

__all__ = [
    "UsageError",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "run",
]

#: directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


class UsageError(ValueError):
    """Bad command-line input (exit code 2), e.g. a non-Python file."""


def lint_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one source string; findings sorted by location."""
    rules = all_rules() if rules is None else rules
    try:
        ctx = FileContext.from_source(source, path=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="E999",
                message=f"syntax error: {exc.msg}",
                severity=Severity.ERROR,
            )
        ]
    findings = [
        f
        for rule in rules
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


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Findings of every python file under ``paths``, sorted by location."""
    rules = all_rules() if rules is None else rules
    return sorted(
        f
        for path in iter_python_files(paths)
        for f in lint_source(path.read_text(encoding="utf-8"), str(path), rules)
    )


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
) -> int:
    """CLI driver; prints findings and returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    try:
        findings = lint_paths(paths)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
    return 1 if failing else 0
