"""Finding and severity types for the repro linter."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Severity", "Finding"]


class Severity(enum.IntEnum):
    """Finding severity; ordering lets callers filter with ``>=``."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error" / "warning" in text output
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: rule id, location, and a human-readable message.

    Ordering is (path, line, col, rule) so sorted output groups by file
    and reads top-to-bottom, pyflakes style.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    severity: Severity = field(compare=False, default=Severity.ERROR)

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
        }
