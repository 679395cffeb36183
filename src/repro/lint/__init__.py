"""`repro lint`: a static analyzer for the simulated-MPI programming model.

The distributed algorithms in this reproduction (recursive bisection,
per-partition trimming, master-merge traversal) run as SPMD rank
functions on :class:`~repro.mpi.SimCluster`.  Bugs that corrupt
*timing* and *determinism* rather than values — hidden-global RNG,
compute outside the virtual clock, a kernel that imports the runtime —
survive the test suite, so this package catches them at the AST level:

{rule_table}

Every rule sees one parsed file at a time.  The stage-kernel contract
(a kernel reads its part and returns proposals, mutating nothing and
drawing on no ambient state) is checked where kernels run, by the
contract test in ``tests/distributed/test_stages.py``, not here.

Run it as ``python -m repro lint [paths] [--format text|json]
[--strict]``, or from code via :func:`lint_paths` /
:func:`lint_source`.  Suppress a finding with a trailing
``# noqa: RULEID`` comment.

Communication *protocols* — whether every rank reaches the same
collectives — are checked where they execute, by the simulated
runtime: a collective whose ranks disagree, or that a rank which has
already returned can never join, raises
:class:`~repro.mpi.simcomm.DeadlockError` at once, naming the ranks
and their calls.
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
