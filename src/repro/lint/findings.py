"""The finding type of the repro linter."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


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

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
