"""Per-file analysis context and shared AST helpers."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = ["FileContext", "dotted_name"]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass
class FileContext:
    """One parsed source file plus derived lookup tables."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree, lines=source.splitlines())

    # -- suppressions ------------------------------------------------------

    def suppressed(self, line: int, rule_id: str) -> bool:
        """True when the physical line carries ``# noqa`` for this rule.

        Bare ``# noqa`` silences every rule on the line;
        ``# noqa: DET001,ROB001`` silences only the listed ids.
        """
        if not 1 <= line <= len(self.lines):
            return False
        m = _NOQA_RE.search(self.lines[line - 1])
        if m is None:
            return False
        rules = m.group("rules")
        if rules is None:
            return True
        return rule_id.upper() in {r.strip().upper() for r in rules.split(",") if r.strip()}

    # -- traversal ---------------------------------------------------------

    def functions(self):
        """Every function/method definition in the file, outermost first."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

