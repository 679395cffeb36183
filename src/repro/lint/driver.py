"""File and directory drivers and the CLI entry point.

`lint_source` runs every rule over one unit of source; `lint_paths`
runs it over each python file under the given paths; `run` is the CLI
entry point used by ``python -m repro lint``.

Exit codes: 0 clean, 1 any finding, 2 on bad input (missing paths,
non-Python file arguments).
"""

from __future__ import annotations

import sys
from importlib.util import decode_source
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import FileContext
from repro.lint.findings import Finding
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


def _lint_file(path: Path, rules: Sequence[Rule]) -> list[Finding]:
    """Findings of one file, decoded the way Python decodes it (PEP 263)."""
    try:
        source = decode_source(path.read_bytes())
    except (SyntaxError, UnicodeDecodeError) as exc:
        return [Finding(str(path), 1, 0, "E999", f"cannot decode source: {exc}")]
    return lint_source(source, str(path), rules)


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Findings of every python file under ``paths``, sorted by location."""
    rules = all_rules() if rules is None else rules
    return sorted(
        f for path in iter_python_files(paths) for f in _lint_file(path, rules)
    )


def run(paths: Sequence[str], stream=None) -> int:
    """CLI driver; prints findings and returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    try:
        findings = lint_paths(paths)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not findings:
        return 0
    for f in findings:
        print(f.format_text(), file=stream)
    print(f"{len(findings)} finding(s)", file=stream)
    return 1
