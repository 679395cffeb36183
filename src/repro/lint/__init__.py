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

Every rule sees one parsed file at a time.  The stage-kernel contract
(a kernel reads its part and returns proposals, mutating nothing and
drawing on no ambient state) is checked where kernels run, by the
contract test in ``tests/distributed/test_stages.py``, not here.

Run it as ``python -m repro lint [paths] [--format text|json]
[--strict]``, or from code via :func:`lint_paths` /
:func:`lint_source`.  Suppress a finding with a trailing
``# noqa: RULEID`` comment.

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

from repro.lint.context import FileContext
from repro.lint.driver import (
    UsageError,
    format_findings,
    iter_python_files,
    lint_paths,
    lint_source,
    run,
)
from repro.lint.findings import Finding, Severity
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
    "Severity",
    "Rule",
    "register",
    "all_rules",
    "rule_table",
    "select_rules",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "format_findings",
    "run",
    "UsageError",
]
