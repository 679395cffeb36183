"""Performance rules: PERF001 untimed compute, PERF002 scalarized hot loop.

PERF001 — in a rank function every nontrivial compute block must run
under ``with comm.timed():`` (or account itself via ``comm.advance``) —
work done outside the clock is free in model time, which silently
*inflates* the speedup curves the benchmarks exist to reproduce.  The
rule flags ``for``/``while`` loops in communicator-taking functions
that neither run under ``timed()`` nor touch the communicator in their
body (a loop that sends/receives is communication, not untimed compute).

PERF002 — the vectorized hot paths must stay vectorized.  Four kinds
of function carry the contract: overlap detection
(``src/repro/align/``, overlap/seed/vote/candidate functions), the finish
kernels (every function of
``src/repro/distributed/{dgraph,transitive,containment,trimming,traversal}.py``,
the masked CSR reader included),
cluster layout (``layout_*`` / ``*_layout_*`` in
``src/repro/graph/contigs.py``, ``_select_*`` in
``src/repro/graph/hybrid.py``) and the k-mer packer (``kmer_codes`` in
``src/repro/sequence/kmers.py``).  Iterating ``.tolist()`` output there
reintroduces a per-element Python loop on the innermost path.  The
scalar reference implementations live under ``tests/reference/``,
outside the rule's scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, comm_param_name, references_name
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

__all__ = ["UntimedComputeLoop", "ScalarizedHotLoop"]


def _is_timed_with(node: ast.AST, comm: str) -> bool:
    """True for ``with comm.timed():`` (possibly among other items)."""
    if not isinstance(node, ast.With):
        return False
    for item in node.items:
        call = item.context_expr
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "timed"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == comm
        ):
            return True
    return False


@register
class UntimedComputeLoop(Rule):
    id = "PERF001"
    severity = Severity.WARNING
    summary = "compute loop in a rank function outside comm.timed()/advance()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in ctx.functions():
            comm = comm_param_name(func)
            if comm is None:
                continue
            yield from self._scan(ctx, func, comm)

    def _scan(self, ctx: FileContext, node: ast.AST, comm: str) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested defs are checked as their own functions
            if _is_timed_with(child, comm):
                continue  # everything under the clock is accounted for
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                if not references_name(child, comm):
                    yield self.finding(
                        ctx,
                        child,
                        "loop runs compute outside the virtual clock — wrap it "
                        f"in `with {comm}.timed():` (or account it via "
                        f"`{comm}.advance`) so the speedup curves stay honest",
                    )
                    continue  # do not re-flag nested loops of the same block
            yield from self._scan(ctx, child, comm)


def _is_hot_function(name: str) -> bool:
    """Functions on the overlap hot path by naming convention: the
    work-unit drivers (``overlap_*``), the seed side (``*_seeds``,
    ``*_ranges``, ``*_triples``, ``self_join``) and the vote side
    (``*_votes``, ``*_tile``, ``*_candidates``)."""
    return (
        name.startswith("overlap_")
        or name == "self_join"
        or name.endswith(("_seeds", "_ranges", "_triples", "_votes", "_tile", "_candidates"))
    )


def _is_layout_function(name: str) -> bool:
    """The batched cluster layout and its one-cluster calls; not
    ``consensus_of_layouts``, which loops over clusters, not edges."""
    return name.startswith("layout_") or "_layout_" in name


def _is_selection_function(name: str) -> bool:
    """The level-synchronous representative descent."""
    return name.startswith("_select_")


def _is_kmer_kernel(name: str) -> bool:
    """The window packer every index build, store shard and dedupe
    pass runs; not ``pack_kmer``, the one-k-mer scalar it is tested
    against."""
    return name in ("kmer_codes", "_pack_windows")


#: path fragment -> which functions of a matching file are hot, by name.
_NAME_SCOPED = (
    ("repro/align/", _is_hot_function),
    ("repro/graph/contigs.py", _is_layout_function),
    ("repro/graph/hybrid.py", _is_selection_function),
    ("repro/sequence/kmers.py", _is_kmer_kernel),
)

#: modules whose every function is a vectorized finish-kernel path.
_FINISH_KERNEL_MODULES = (
    "repro/distributed/dgraph.py",
    "repro/distributed/transitive.py",
    "repro/distributed/containment.py",
    "repro/distributed/trimming.py",
    "repro/distributed/traversal.py",
)


def _iter_calls_tolist(node: ast.expr) -> bool:
    """True when the expression contains a ``.tolist()`` call."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "tolist"
        ):
            return True
    return False


@register
class ScalarizedHotLoop(Rule):
    id = "PERF002"
    severity = Severity.WARNING
    summary = "per-element `for ... in ....tolist()` loop on a vectorized hot path"

    def _hot_functions(self, ctx: FileContext):
        path = ctx.path.replace("\\", "/")
        if path.endswith(_FINISH_KERNEL_MODULES):
            yield from ctx.functions()
            return
        for fragment, is_hot in _NAME_SCOPED:
            if fragment in path:
                yield from (f for f in ctx.functions() if is_hot(f.name))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in self._hot_functions(ctx):
            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.AsyncFor)) and _iter_calls_tolist(
                    node.iter
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "hot-path function iterates `.tolist()` element by "
                        "element — batch the work with array operations (see "
                        "the overlap detector, the finish kernels and the "
                        "cluster layout), or mark a "
                        "deliberate scalar fallback with `# noqa: PERF002`",
                    )
