"""Robustness rules: ROB001 swallowed exception, ROB002 unbounded poll.

ROB001: a ``try`` handler that catches everything (bare ``except:`` or
``except Exception``/``except BaseException``) and whose body does
nothing but ``pass`` (or a bare ``...``) erases the failure entirely:
no retry, no fallback, no record in the fault report, no message —
the pipeline continues on state of unknown validity.  In a
fault-tolerant assembler every failure must be either handled
(retried, rolled back, recorded) or propagated (see
docs/robustness.md).  Narrow handlers (``except OSError: pass``) are
allowed — swallowing a *specific* anticipated error is a decision;
swallowing *everything* is a bug magnet — and so are broad handlers
that actually do something (log, re-raise, record, fall back).
Prefer ``contextlib.suppress(SpecificError)`` for intentional
narrow suppression.

ROB002: a ``while True`` loop that sleeps but can never leave — no
``break`` of its own, no ``return``, no ``raise`` — polls forever
when the condition it is waiting for never arrives.  The job service
is built from polling loops (supervisor passes, chaos waits,
heartbeats), and each one is bounded by a deadline, a stop flag, or an
escape statement; an unbounded one turns a dead peer into a hung
process, which is strictly worse (nothing requeues a process that is
merely asleep).  Put the bound in the loop condition (``while
time.time() < deadline``), or keep ``while True`` and add an explicit
escape (``if ...: break`` / ``raise TimeoutError``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["SwallowedException", "UnboundedPollLoop"]

#: names whose catch-all handlers ROB001 flags when the body is empty.
_BROAD_NAMES = ("Exception", "BaseException")


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:`` or ``except Exception``/``BaseException``."""
    etype = handler.type
    if etype is None:
        return True
    if isinstance(etype, ast.Name):
        return etype.id in _BROAD_NAMES
    if isinstance(etype, ast.Tuple):
        return any(
            isinstance(el, ast.Name) and el.id in _BROAD_NAMES
            for el in etype.elts
        )
    return False


def _body_swallows(body: list[ast.stmt]) -> bool:
    """True when every statement is ``pass``, ``...``, or a docstring."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            # `...` or a bare string; neither handles the error.
            continue
        return False
    return True


@register
class SwallowedException(Rule):
    id = "ROB001"
    summary = "broad except handler silently swallows the exception"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            if not _body_swallows(node.body):
                continue
            caught = (
                ast.unparse(node.type) if node.type is not None else "everything"
            )
            yield self.finding(
                ctx,
                node,
                f"handler catches {caught} and does nothing — the failure "
                "is erased with no retry, record, or message; handle it "
                "(retry/fallback/log), narrow the exception type, or use "
                "contextlib.suppress(SpecificError) to make intentional "
                "suppression explicit",
            )


def _is_while_true(node: ast.While) -> bool:
    test = node.test
    return isinstance(test, ast.Constant) and bool(test.value) is True


def _is_sleep_call(node: ast.Call) -> bool:
    """``sleep(...)`` or ``<anything>.sleep(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "sleep"
    if isinstance(func, ast.Attribute):
        return func.attr == "sleep"
    return False


def _loop_traits(body: list[ast.stmt]) -> tuple[bool, bool]:
    """(sleeps, escapes) for a ``while`` body.

    ``escapes`` means the loop itself can end: a ``break`` belonging to
    *this* loop (not to a nested ``for``/``while``), or a ``return`` /
    ``raise`` anywhere in the body outside nested function and class
    definitions (those run on their own call stack and cannot end this
    loop's iteration).
    """
    sleeps = False
    escapes = False
    stack: list[tuple[ast.AST, bool]] = [(stmt, True) for stmt in body]
    while stack:
        node, this_loop = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Break):
            if this_loop:
                escapes = True
            continue
        if isinstance(node, (ast.Return, ast.Raise)):
            escapes = True
            continue
        if isinstance(node, ast.Call) and _is_sleep_call(node):
            sleeps = True
        nested = isinstance(node, (ast.While, ast.For, ast.AsyncFor))
        for child in ast.iter_child_nodes(node):
            stack.append((child, this_loop and not nested))
    return sleeps, escapes


@register
class UnboundedPollLoop(Rule):
    id = "ROB002"
    summary = "unbounded poll loop: while True + sleep with no escape"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While) or not _is_while_true(node):
                continue
            sleeps, escapes = _loop_traits(node.body)
            if not sleeps or escapes:
                continue
            yield self.finding(
                ctx,
                node,
                "while True sleeps but has no break/return/raise — if the "
                "awaited condition never arrives this process hangs "
                "forever; bound the loop with a deadline or stop flag in "
                "the condition, or add an explicit escape",
            )
