"""Per-file analysis context and shared AST helpers.

The helpers encode the project's simulated-MPI programming model:

- a *communicator-taking function* is any ``def`` whose parameter list
  contains an argument named ``comm`` or annotated ``SimComm`` — the
  SPMD rank functions that :class:`~repro.mpi.cluster.SimCluster`
  launches and the distributed-algorithm drivers that receive one;
- an expression is *rank-dependent* if it mentions ``<comm>.rank``,
  ``<comm>.get_rank()``, or a local name assigned from either.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = [
    "FileContext",
    "comm_param_name",
    "rank_alias_names",
    "is_rank_dependent",
    "dotted_name",
    "literal_int",
    "MUTATING_METHODS",
]

#: collective operations of the simulated runtime.
COLLECTIVE_METHODS = frozenset(
    {"bcast", "gather", "scatter", "allgather", "reduce", "allreduce", "alltoall", "barrier"}
)

#: method calls that mutate their receiver in place (the
#: mutate-after-send rule's list).
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "sort", "reverse", "update", "add", "discard", "setdefault",
        "fill", "resize", "put", "itemset",
    }
)

#: point-to-point operations, mapped to the positional index of their
#: ``tag`` argument (after the implicit first ``comm.`` receiver).
P2P_TAG_POSITION = {
    "send": 2,
    "isend": 2,
    "recv": 1,
    "irecv": 1,
    "sendrecv": 3,
}

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
        ``# noqa: MPI001,DET001`` silences only the listed ids.
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


def rank_alias_names(func: ast.AST, comm: str) -> set[str]:
    """Local names assigned from ``comm.rank`` / ``comm.get_rank()``."""
    aliases: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_rank_expr(node.value, comm, aliases):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _is_rank_expr(node: ast.expr, comm: str, aliases: set[str]) -> bool:
    """True for ``comm.rank``, ``comm.get_rank()``, or a known alias."""
    if isinstance(node, ast.Attribute) and node.attr == "rank":
        return isinstance(node.value, ast.Name) and node.value.id == comm
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "get_rank":
            return isinstance(f.value, ast.Name) and f.value.id == comm
    if isinstance(node, ast.Name):
        return node.id in aliases
    return False


def is_rank_dependent(test: ast.expr, comm: str, aliases: set[str]) -> bool:
    """True when any subexpression of ``test`` reads the rank."""
    return any(_is_rank_expr(sub, comm, aliases) for sub in ast.walk(test))


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


def literal_int(node: ast.expr) -> int | None:
    """The value of an integer literal, handling unary minus."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = literal_int(node.operand)
        if inner is not None:
            return -inner
    return None


def references_name(node: ast.AST, name: str) -> bool:
    """True when ``name`` is read anywhere under ``node``."""
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )
