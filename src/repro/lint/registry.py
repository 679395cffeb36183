"""Rule base classes and the global rule registry.

A *file rule* is a small object with an ``id``, a default
``severity``, a one-line ``summary``, and a ``check(ctx)`` generator
yielding :class:`~repro.lint.findings.Finding` objects for one parsed
file.  A *project rule* (:class:`ProjectRule`) instead implements
``check_project(project)`` over the whole-program
:class:`~repro.lint.project.ProjectContext` — call graph, symbol
table, interprocedural effect summaries — and so can see a kernel in
one module calling a state-mutating helper in another.

Both kinds self-register at import time via the :func:`register`
decorator and share the id namespace; ``repro.lint.rules`` imports
every rule module so that :func:`all_rules` is complete after
``import repro.lint``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import FileContext
    from repro.lint.project import ProjectContext

__all__ = [
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "file_rules",
    "project_rules",
    "rule_table",
    "select_rules",
]


class Rule:
    """Base class for AST checks.  Subclasses set the class attributes."""

    id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node, message: str) -> Finding:
        """Build a Finding for an AST node (1-based line, 0-based col)."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """Base class for whole-program checks over a ProjectContext.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`check` is a no-op so a project rule passed to
    ``lint_source`` is silently inert rather than an error.
    """

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule (file and project), sorted by id."""
    # Importing the rules package populates the registry on first use.
    import repro.lint.rules  # noqa: F401 (import for side effect)

    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def file_rules() -> list[Rule]:
    """Registered per-file rules, sorted by id."""
    return [r for r in all_rules() if not isinstance(r, ProjectRule)]


def project_rules() -> list[ProjectRule]:
    """Registered whole-program rules, sorted by id."""
    return [r for r in all_rules() if isinstance(r, ProjectRule)]


def rule_table() -> str:
    """``id  [severity]  summary`` for every registered rule, one per line.

    The one rule listing: ``repro lint --list-rules`` (which the
    ``lint`` subcommand's help points to) and the package docstring
    both print this.
    """
    return "\n".join(
        f"{r.id:<8} {f'[{r.severity}]':<10} {r.summary}" for r in all_rules()
    )


def select_rules(ids: Iterable[str] | None = None) -> list[Rule]:
    """Rules restricted to ``ids`` (all rules when ``ids`` is None)."""
    rules = all_rules()
    if ids is None:
        return rules
    wanted = set(ids)
    unknown = wanted - {r.id for r in rules}
    if unknown:
        raise KeyError(f"unknown rule ids: {sorted(unknown)}")
    return [r for r in rules if r.id in wanted]
