"""`repro lint`: per-file AST checks for what the test suite cannot see.

Some bugs corrupt no value that a test asserts: hidden-global or
seedless RNG, a per-element loop back on a vectorized hot path, a
kernel that pulls the whole read store into RAM, a swallowed
exception, a poll loop that can never leave.  This package catches
them at the AST level:

{rule_table}

Every rule sees one parsed file at a time.  The stage-kernel contract
(a kernel reads its part and returns proposals, mutating nothing and
drawing on no ambient state) is checked where kernels run, by the
contract test in ``tests/distributed/test_stages.py``, not here.

Run it as ``python -m repro lint [paths]`` (any finding exits 1), or
from code via :func:`lint_paths` / :func:`lint_source`.  Suppress a
finding with a trailing ``# noqa: RULEID`` comment.
"""

from repro.lint.context import FileContext
from repro.lint.driver import (
    UsageError,
    iter_python_files,
    lint_paths,
    lint_source,
    run,
)
from repro.lint.findings import Finding
from repro.lint.registry import (
    Rule,
    all_rules,
    register,
    rule_table,
    select_rules,
)

__doc__ = __doc__.format(rule_table=rule_table())

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "register",
    "all_rules",
    "rule_table",
    "select_rules",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "run",
    "UsageError",
]
