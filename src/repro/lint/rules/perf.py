"""Performance rule: PERF002 scalarized hot loop.

The vectorized hot paths must stay vectorized.  Every function under
``repro/align/``, ``repro/distributed/``, ``repro/graph/`` and
``repro/sequence/`` carries the contract: overlap detection, the finish
kernels, graph building and coarsening, cluster layout and the k-mer
packer.  Iterating ``.tolist()`` output there reintroduces a
per-element Python loop on the innermost path.  A deliberate scalar
loop says so with ``# noqa: PERF002 - <reason>``; the scalar reference
implementations live under ``tests/reference/``, outside the rule's
scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["ScalarizedHotLoop"]

#: packages whose every function is a vectorized hot path.
_HOT_PACKAGES = ("repro/align/", "repro/distributed/", "repro/graph/", "repro/sequence/")


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
    summary = "per-element `for ... in ....tolist()` loop on a vectorized hot path"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        path = ctx.path.replace("\\", "/")
        if not any(package in path for package in _HOT_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _iter_calls_tolist(
                node.iter
            ):
                yield self.finding(
                    ctx,
                    node,
                    "hot-path loop iterates `.tolist()` element by element — "
                    "batch the work with array operations (see the overlap "
                    "detector, the finish kernels and the cluster layout), "
                    "or mark a deliberate scalar loop with "
                    "`# noqa: PERF002 - <reason>`",
                )
