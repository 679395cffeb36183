"""Per-file analysis context and shared AST helpers.

A *communicator-taking function* is any ``def`` whose parameter list
contains an argument named ``comm`` or annotated ``SimComm`` — the SPMD
rank functions that :class:`~repro.mpi.cluster.SimCluster` launches
and the distributed-algorithm drivers that receive one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = ["FileContext", "comm_param_name", "dotted_name", "references_name"]

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


def _annotation_is_simcomm(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "SimComm"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "SimComm"
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return "SimComm" in annotation.value
    return False


def comm_param_name(func: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """The communicator parameter of ``func``, or None.

    Matches an argument annotated ``SimComm`` in any position, or one
    named ``comm`` that is unannotated (rank-function closures) — a
    ``comm`` annotated with some other type is *not* a communicator.
    """
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if _annotation_is_simcomm(arg.annotation):
            return arg.arg
        if arg.arg == "comm" and arg.annotation is None:
            return arg.arg
    return None


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


def references_name(node: ast.AST, name: str) -> bool:
    """True when ``name`` is read anywhere under ``node``."""
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )
