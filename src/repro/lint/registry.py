"""Rule base class and the global rule registry.

A rule is a small object with an ``id``, a one-line ``summary``, and
a ``check(ctx)`` generator yielding
:class:`~repro.lint.findings.Finding` objects for one parsed file.
Rules self-register at import time via the :func:`register` decorator;
``repro.lint.rules`` imports every rule module so that
:func:`all_rules` is complete after ``import repro.lint``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import FileContext

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "rule_table",
    "select_rules",
]


class Rule:
    """Base class for AST checks.  Subclasses set the class attributes."""

    id: str = ""
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
    """Every registered rule, sorted by id."""
    # Importing the rules package populates the registry on first use.
    import repro.lint.rules  # noqa: F401 (import for side effect)

    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def rule_table() -> str:
    """``id  summary`` for every registered rule, one per line.

    The one rule listing: ``repro lint --list-rules`` (which the
    ``lint`` subcommand's help points to) and the package docstring
    both print this.
    """
    return "\n".join(f"{r.id:<8} {r.summary}" for r in all_rules())


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
