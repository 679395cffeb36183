"""`repro lint`: a static analyzer for the simulated-MPI programming model.

The distributed algorithms in this reproduction (recursive bisection,
per-partition trimming, master-merge traversal) run as SPMD rank
functions on :class:`~repro.mpi.SimCluster`.  The classic SPMD bug
classes — collectives under rank-dependent branches, payloads mutated
after an eager send, hidden-global RNG, compute outside the virtual
clock — survive the test suite because they corrupt *timing* and
*determinism* rather than values.  This package catches them at the
AST level:

{rule_table}

The PURE/ARCH002 rules are *whole-program*: ``repro.lint.project``
parses every linted file once, resolves imports into a package-level
symbol table, builds a call graph, and propagates per-function effect
summaries (parameter/global mutation, RNG, clock, I/O, ``repro.mpi``
use) interprocedurally — a kernel calling a helper in another module
that mutates shared state is caught, which no per-file rule can do.
Parsed files and summaries are cached by content hash
(``repro.lint.cache``), so a second run over an unchanged tree
re-parses nothing.

Run it as ``python -m repro lint [paths] [--format text|json]
[--strict] [--stats]``, or from code via :func:`lint_paths` /
:func:`analyze_paths` / :func:`lint_source`.  Suppress a finding with
a trailing ``# noqa: RULEID`` comment.

Communication *protocols* — who sends what to whom, and whether every
rank reaches the same collectives — are checked where they execute,
by the simulated runtime: a receive from a rank that has already
returned raises :class:`~repro.mpi.simcomm.DeadlockError` at once (a
cycle among live ranks after the timeout), and
``SimCluster(..., sanitize=True)`` fingerprints every payload at send
and re-verifies it at receive
(:class:`~repro.mpi.simcomm.PayloadMutationError`) and reports
unconsumed mailbox messages at shutdown as
:class:`~repro.mpi.simcomm.MessageLeakError`.
"""

from repro.lint.cache import DEFAULT_CACHE, LintCache
from repro.lint.context import FileContext
from repro.lint.driver import (
    LintRun,
    LintStats,
    UsageError,
    analyze_paths,
    format_findings,
    iter_python_files,
    lint_paths,
    lint_source,
    run,
)
from repro.lint.findings import Finding, Severity
from repro.lint.project import SUMMARY_VERSION, ProjectContext, summarize_file
from repro.lint.registry import (
    ProjectRule,
    Rule,
    all_rules,
    file_rules,
    project_rules,
    register,
    rule_table,
    select_rules,
)

__doc__ = __doc__.format(rule_table=rule_table())

__all__ = [
    "FileContext",
    "ProjectContext",
    "SUMMARY_VERSION",
    "summarize_file",
    "Finding",
    "Severity",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "file_rules",
    "project_rules",
    "rule_table",
    "select_rules",
    "lint_source",
    "lint_paths",
    "analyze_paths",
    "iter_python_files",
    "format_findings",
    "run",
    "LintCache",
    "DEFAULT_CACHE",
    "LintRun",
    "LintStats",
    "UsageError",
]
