"""Memory rule: MEM001 whole-store materialization in a partition kernel.

The out-of-core contract (docs/architecture.md, storage layer): a
per-partition kernel sees O(partition) data, never O(dataset).  The
sharded store keeps that true by handing kernels shard-sized views;
the escape hatch that rebuilds the full in-RAM array —
``ReadSet.to_array()`` — exists for tooling and tests, not for
kernels.  One such call inside a kernel silently restores the O(reads)
peak memory the store was built to remove, on *every* partition at
once.

MEM001 flags, inside any function named ``*_kernel``:

- calls to the materialization method ``.to_array()``;
- a full-concatenate of a shard stream: ``np.concatenate`` /
  ``np.vstack`` / ``np.hstack`` fed (anywhere in its arguments) by an
  ``iter_shards()`` call — gluing every shard back together is
  materialization with extra steps.

Kernels that genuinely need a full view (none today) must say so with
``# noqa: MEM001`` at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["WholeStoreMaterialization"]

#: sharded-store methods that rebuild the full in-RAM object.
MATERIALIZE_METHODS = frozenset({"to_array"})

#: shard-stream iterators of the sharded store.
SHARD_ITERATORS = frozenset({"iter_shards"})

#: array-gluing callables (bare or ``np.``-qualified).
CONCATENATORS = frozenset({"concatenate", "vstack", "hstack"})


def _call_name(call: ast.Call) -> str | None:
    """Trailing name of the called expression (``np.vstack`` -> ``vstack``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _feeds_on_shard_stream(call: ast.Call) -> bool:
    """True when any argument contains an ``iter_*shards*()``-style call."""
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for sub in ast.walk(arg):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in SHARD_ITERATORS
            ):
                return True
    return False


@register
class WholeStoreMaterialization(Rule):
    id = "MEM001"
    summary = "partition kernel materializes a whole sharded store"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in ctx.functions():
            if not func.name.endswith("_kernel"):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if (
                    isinstance(node.func, ast.Attribute)
                    and name in MATERIALIZE_METHODS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"kernel calls `.{name}()`, rebuilding the whole "
                        "store in RAM — stream shard views instead "
                        "(`shard()` / `iter_shards()`), "
                        "or mark a deliberate full view with "
                        "`# noqa: MEM001`",
                    )
                elif name in CONCATENATORS and _feeds_on_shard_stream(node):
                    yield self.finding(
                        ctx,
                        node,
                        f"kernel `{name}`s a full shard stream back into one "
                        "array — that is whole-store materialization; "
                        "process shards independently or mark a deliberate "
                        "full view with `# noqa: MEM001`",
                    )
