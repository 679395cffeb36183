"""Whole-program analysis: symbol table, call graph, effect summaries.

Per-file rules (``repro.lint.rules``) see one AST at a time; the
purity contract of the distributed stages is *interprocedural* — a
``*_kernel`` function is only safe to run on any execution backend if
nothing it calls, in any module, mutates shared state or reaches
hidden nondeterminism.  This module parses the whole linted tree once
and derives:

- a **symbol table** per module: functions (qualified by class
  nesting), module-level names, and an import map from local names to
  fully-dotted targets (``np`` → ``numpy``, ``shuffle`` →
  ``random.shuffle``);
- a **call graph** over module-level and nested functions, resolved
  through the import map (``trimming.find_dead_ends`` from another
  module resolves to that module's function);
- per-function **effect summaries**: parameters and module globals
  mutated in place, unseeded-RNG draws, wall-clock reads, filesystem
  and network I/O, and references to ``repro.mpi``;
- an **interprocedural walk**: :meth:`ProjectContext.reachable_from`
  and :meth:`ProjectContext.summary`, which propagates callee effects
  to callers across argument bindings to a fixpoint (a helper that
  mutates its second parameter taints exactly the caller expressions
  bound to it).

The analysis is deliberately *optimistic* about what it cannot see:
calls through objects (``dag.partition_nodes(...)``), dynamic
dispatch, and functions outside the linted tree are assumed pure.
That keeps the purity rules (PURE001/PURE002, ``rules/purity.py``)
free of false positives at the cost of missed exotic effects — the
runtime sanitizer remains the dynamic backstop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.context import (
    MUTATING_METHODS,
    FileContext,
    dotted_name,
)

__all__ = [
    "ArgRef",
    "CallSite",
    "Effect",
    "FunctionInfo",
    "FileSummary",
    "EffectSummary",
    "ProjectContext",
    "SUMMARY_VERSION",
    "module_name_for",
    "summarize_file",
]

#: schema version of :class:`FileSummary`/:class:`FunctionInfo`.  Folded
#: into every :class:`~repro.lint.cache.LintCache` digest so extending
#: the summaries invalidates long-lived process-global caches instead
#: of serving stale shapes to daemon/editor runs.  Bump on any field
#: change.
SUMMARY_VERSION = 3

#: RNG constructors/types that are explicitly seeded or stateless —
#: calls resolving to these are *not* hidden-global-state draws.
SEEDED_RNG_TAILS = frozenset(
    {"Random", "SystemRandom", "default_rng", "Generator", "SeedSequence",
     "PCG64", "Philox", "SFC64", "MT19937", "BitGenerator", "RandomState"}
)

#: fully-dotted calls that read the wall clock.
CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: top-level modules whose use is filesystem/network I/O.
IO_MODULES = frozenset(
    {"socket", "shutil", "subprocess", "urllib", "http", "requests",
     "ftplib", "smtplib"}
)

#: ``os.*`` calls that touch the filesystem or spawn processes.
OS_IO_CALLS = frozenset(
    {
        "os.open", "os.remove", "os.unlink", "os.rename", "os.replace",
        "os.mkdir", "os.makedirs", "os.rmdir", "os.removedirs",
        "os.system", "os.popen", "os.chdir", "os.truncate",
    }
)

#: method names that are file I/O on any receiver (pathlib idiom).
PATH_IO_METHODS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes"}
)

#: repo-specific graph mutators, added to the generic in-place set so a
#: kernel *applying* removals (instead of proposing them) is caught.
GRAPH_MUTATING_METHODS = frozenset({"remove_nodes", "remove_edges"})

_ALL_MUTATING_METHODS = MUTATING_METHODS | GRAPH_MUTATING_METHODS


def module_name_for(path: str | Path) -> str:
    """Dotted module name inferred from ``__init__.py`` package dirs."""
    p = Path(path)
    parts = [] if p.name == "__init__.py" else [p.stem]
    d = p.parent
    while (d / "__init__.py").exists():
        parts.append(d.name)
        parent = d.parent
        if parent == d:  # filesystem root
            break
        d = parent
    return ".".join(reversed(parts)) or p.stem


@dataclass(frozen=True)
class ArgRef:
    """One call argument, reduced to what effect propagation needs."""

    #: "name" / "attr" for name-or-attribute chains, "lambda", "other".
    kind: str
    #: dotted source text ("a.b.c") when kind is "name"/"attr".
    text: str | None
    #: root name of the chain ("a"), else None.
    root: str | None
    #: root is a live (not yet rebound) parameter of the caller.
    root_is_param: bool
    #: root is a module-level name (assignment, def, or import).
    root_is_global: bool


@dataclass(frozen=True)
class CallSite:
    """One syntactic call with its argument bindings."""

    lineno: int
    col: int
    #: callee as written: "helper" or "mod.helper".
    callee: str
    pos: tuple[ArgRef, ...]
    kw: tuple[tuple[str, ArgRef], ...]


@dataclass(frozen=True)
class Effect:
    """One direct effect observed in a function body."""

    #: "mutates-param" | "mutates-global" | "rng" | "clock" | "io" | "mpi"
    kind: str
    detail: str
    lineno: int
    #: parameter/global name for the mutation kinds.
    target: str | None = None


@dataclass
class FunctionInfo:
    """One analyzed function: signature, direct effects, call sites."""

    module: str
    qualname: str  # "fn", "Class.method", "outer.<locals>.inner"
    name: str
    path: str
    lineno: int
    col: int
    pos_params: tuple[str, ...]  # positional-or-keyword (incl. posonly)
    kwonly_params: tuple[str, ...]
    has_vararg: bool
    has_kwarg: bool
    is_method: bool
    effects: list[Effect] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def is_module_level(self) -> bool:
        return "." not in self.qualname

    def param_names(self) -> tuple[str, ...]:
        return self.pos_params + self.kwonly_params


@dataclass
class FileSummary:
    """Everything project analysis needs from one parsed file."""

    path: str
    module: str
    functions: dict[str, FunctionInfo]  # keyed by qualname
    imports: dict[str, str]  # local name -> fully dotted target
    module_globals: set[str]
    module_calls: list[CallSite]


# -- per-file summarization -------------------------------------------------


def _chain_root(expr: ast.expr) -> tuple[str, str] | None:
    """``(root, "root.b.c")`` for a Name/Attribute chain, else None."""
    text = dotted_name(expr)
    if text is None:
        return None
    return text.split(".", 1)[0], text


def _collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname is not None:
                    out[a.asname] = a.name
                else:
                    # `import a.b.c` binds the top package name `a`.
                    out[a.name.split(".", 1)[0]] = a.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative import, resolved against `module`
                pkg = module.split(".")
                pkg = pkg[: len(pkg) - node.level]
                base = ".".join(pkg + ([node.module] if node.module else []))
            for a in node.names:
                if a.name == "*":
                    continue
                out[a.asname or a.name] = f"{base}.{a.name}" if base else a.name
    return out


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound at module scope (assignments, defs, imports)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if a.name == "*":
                    continue
                names.add(a.asname or a.name.split(".", 1)[0])
        else:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
    return names


def _own_nodes(body: list[ast.stmt]):
    """Statements/expressions of one scope, not descending into defs."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


class _ScopeWalker:
    """Shared effect/call extraction for a function body or module."""

    def __init__(
        self,
        summary_imports: dict[str, str],
        module_globals: set[str],
        params: tuple[str, ...] = (),
        body: list[ast.stmt] | None = None,
    ) -> None:
        self.imports = summary_imports
        self.module_globals = module_globals
        self.params = params
        self.body = body or []
        self.effects: list[Effect] = []
        self.calls: list[CallSite] = []
        # names bound in this scope (params + any Name store)
        self.locals: set[str] = set(params)
        self.declared_global: set[str] = set()
        # first line a name is *rebound* whole (plain store, not augmented)
        self.rebind_line: dict[str, int] = {}
        self._mpi_locals = {
            local
            for local, target in summary_imports.items()
            if target == "repro.mpi" or target.startswith("repro.mpi.")
        }

    # -- name classification ------------------------------------------

    def _param_live(self, name: str, lineno: int) -> bool:
        if name not in self.params:
            return False
        first = self.rebind_line.get(name)
        return first is None or lineno < first

    def _classify_root(self, root: str, lineno: int) -> tuple[bool, bool]:
        """(is live param, is module global) for a chain root name."""
        if self._param_live(root, lineno):
            return True, False
        if root in self.declared_global:
            return False, True
        if root not in self.locals and (
            root in self.module_globals or root in self.imports
        ):
            return False, True
        return False, False

    def _arg_ref(self, expr: ast.expr, lineno: int) -> ArgRef:
        if isinstance(expr, ast.Lambda):
            return ArgRef("lambda", None, None, False, False)
        hit = _chain_root(expr)
        if hit is None:
            return ArgRef("other", None, None, False, False)
        root, text = hit
        is_param, is_global = self._classify_root(root, lineno)
        kind = "name" if "." not in text else "attr"
        return ArgRef(kind, text, root, is_param, is_global)

    def resolve_text(self, text: str) -> str | None:
        """Fully-dotted name of a reference, through the import map.

        Returns None when the root is a local binding (the reference is
        dynamic, not a module-level symbol).
        """
        root = text.split(".", 1)[0]
        if root in self.locals:
            return None
        target = self.imports.get(root)
        if target is None:
            return text  # builtin or direct module-global reference
        rest = text[len(root):]
        return target + rest

    # -- scanning ------------------------------------------------------

    def scan(self) -> None:
        self._collect_bindings()
        for node in _own_nodes(self.body):
            self._scan_node(node)

    def _collect_bindings(self) -> None:
        aug_targets = set()
        for node in _own_nodes(self.body):
            if isinstance(node, ast.Global):
                self.declared_global.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                aug_targets.add(id(node.target))
        for node in _own_nodes(self.body):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and id(node) not in aug_targets
            ):
                self.locals.add(node.id)
                if node.id in self.declared_global:
                    self.locals.discard(node.id)
                    self.effects.append(
                        Effect(
                            "mutates-global",
                            f"assignment to `global {node.id}`",
                            node.lineno,
                            target=node.id,
                        )
                    )
                else:
                    line = self.rebind_line.get(node.id)
                    if line is None or node.lineno < line:
                        self.rebind_line[node.id] = node.lineno

    def _record_mutation(self, root: str, lineno: int, detail: str) -> None:
        is_param, is_global = self._classify_root(root, lineno)
        if is_param:
            self.effects.append(
                Effect("mutates-param", detail, lineno, target=root)
            )
        elif is_global:
            self.effects.append(
                Effect("mutates-global", detail, lineno, target=root)
            )

    def _scan_node(self, node: ast.AST) -> None:
        # In-place stores through subscripts/attributes: `x[i] = v`,
        # `x.attr = v`, `del x[i]` — any Store/Del context chain.
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            hit = _chain_root(node.value)
            if hit is not None:
                root, text = hit
                verb = "del of" if isinstance(node.ctx, ast.Del) else (
                    "item assignment through"
                    if isinstance(node, ast.Subscript)
                    else "attribute assignment through"
                )
                self._record_mutation(root, node.lineno, f"{verb} `{text}`")
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            self._record_mutation(
                node.target.id,
                node.lineno,
                f"augmented assignment to `{node.target.id}`",
            )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in self._mpi_locals and node.id not in self.locals:
                self.effects.append(
                    Effect(
                        "mpi",
                        f"references `{self.imports[node.id]}`",
                        node.lineno,
                    )
                )
        elif isinstance(node, ast.Call):
            self._scan_call(node)

    def _scan_call(self, node: ast.Call) -> None:
        # Mutating method on a name chain: `x.append(v)`, `a.b.update(d)`.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ALL_MUTATING_METHODS
        ):
            hit = _chain_root(node.func.value)
            if hit is not None:
                root, text = hit
                self._record_mutation(
                    root, node.lineno, f"in-place `{text}.{node.func.attr}()`"
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in PATH_IO_METHODS
        ):
            self.effects.append(
                Effect("io", f"file I/O via `.{node.func.attr}()`", node.lineno)
            )
        text = dotted_name(node.func)
        if text is None:
            return
        self.calls.append(
            CallSite(
                lineno=node.lineno,
                col=node.col_offset,
                callee=text,
                pos=tuple(self._arg_ref(a, node.lineno) for a in node.args),
                kw=tuple(
                    (k.arg, self._arg_ref(k.value, node.lineno))
                    for k in node.keywords
                    if k.arg is not None
                ),
            )
        )
        fq = self.resolve_text(text)
        if fq is None:
            return
        self._classify_call(fq, node.lineno)

    def _classify_call(self, fq: str, lineno: int) -> None:
        for prefix in ("numpy.random.", "random."):
            if fq.startswith(prefix):
                tail = fq[len(prefix):].split(".", 1)[0]
                if tail not in SEEDED_RNG_TAILS:
                    self.effects.append(
                        Effect("rng", f"unseeded `{fq}()`", lineno)
                    )
                return
        if fq in CLOCK_CALLS:
            self.effects.append(Effect("clock", f"wall clock `{fq}()`", lineno))
            return
        root = fq.split(".", 1)[0]
        if fq in ("open", "input") or fq in OS_IO_CALLS or root in IO_MODULES:
            self.effects.append(Effect("io", f"I/O call `{fq}()`", lineno))


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    module: str,
    path: str,
    imports: dict[str, str],
    module_globals: set[str],
    is_method: bool,
) -> FunctionInfo:
    a = node.args
    pos = tuple(arg.arg for arg in (*a.posonlyargs, *a.args))
    kwonly = tuple(arg.arg for arg in a.kwonlyargs)
    walker = _ScopeWalker(imports, module_globals, pos + kwonly, node.body)
    walker.scan()
    return FunctionInfo(
        module=module,
        qualname=qualname,
        name=node.name,
        path=path,
        lineno=node.lineno,
        col=node.col_offset,
        pos_params=pos,
        kwonly_params=kwonly,
        has_vararg=a.vararg is not None,
        has_kwarg=a.kwarg is not None,
        is_method=is_method,
        effects=walker.effects,
        calls=walker.calls,
    )


def summarize_file(ctx: FileContext, module: str | None = None) -> FileSummary:
    """Symbol table, per-function effects, and call sites of one file."""
    module = module or module_name_for(ctx.path)
    imports = _collect_imports(ctx.tree, module)
    module_globals = _module_level_names(ctx.tree)
    functions: dict[str, FunctionInfo] = {}

    def visit(body: list[ast.stmt], prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                functions[qual] = _function_info(
                    node, qual, module, ctx.path, imports, module_globals, in_class
                )
                visit(node.body, f"{qual}.<locals>.", False)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)

    visit(ctx.tree.body, "", False)

    mod_walker = _ScopeWalker(imports, module_globals, (), ctx.tree.body)
    mod_walker.scan()
    return FileSummary(
        path=ctx.path,
        module=module,
        functions=functions,
        imports=imports,
        module_globals=module_globals,
        module_calls=mod_walker.calls,
    )


# -- project-level analysis -------------------------------------------------


@dataclass
class EffectSummary:
    """Transitive effects of one function, with witness call chains.

    Each entry maps to ``(via, effect, owner_fq)``: the chain of callee
    fq-names walked from this function to the function whose body holds
    the direct effect.
    """

    mutated_params: dict[str, tuple[tuple[str, ...], Effect, str]] = field(
        default_factory=dict
    )
    mutated_globals: dict[str, tuple[tuple[str, ...], Effect, str]] = field(
        default_factory=dict
    )
    #: "rng" / "clock" / "io" / "mpi" -> (via, effect, owner_fq)
    ambient: dict[str, tuple[tuple[str, ...], Effect, str]] = field(
        default_factory=dict
    )

    @property
    def is_pure(self) -> bool:
        return not (self.mutated_params or self.mutated_globals or self.ambient)


class ProjectContext:
    """The parsed project: modules, functions, call graph, summaries."""

    def __init__(self, summaries: list[FileSummary]) -> None:
        self.files: dict[str, FileSummary] = {}
        self.modules: dict[str, FileSummary] = {}
        self.functions: dict[str, FunctionInfo] = {}
        for s in summaries:
            self.files[s.path] = s
            # First file wins on (rare) module-name collisions outside
            # any package; resolution then targets that file.
            self.modules.setdefault(s.module, s)
            for info in s.functions.values():
                self.functions.setdefault(info.fq, info)
        self._edges: dict[str, list[tuple[str, CallSite]]] | None = None
        self._summaries: dict[str, EffectSummary] | None = None

    # -- resolution ----------------------------------------------------

    def resolve_import_target(self, module: str, text: str) -> str | None:
        """Fully-dotted target of a reference written in ``module``."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        root = text.split(".", 1)[0]
        target = summary.imports.get(root)
        if target is None:
            return text
        return target + text[len(root):]

    def _function_for_dotted(self, dotted: str) -> FunctionInfo | None:
        """Project function matching a fully-dotted name, if any."""
        if dotted in self.functions:
            return self.functions[dotted]
        # Try "<module>.<func>" with the longest module prefix.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod in self.modules:
                qual = ".".join(parts[cut:])
                return self.modules[mod].functions.get(qual)
        return None

    def resolve_call(self, caller: FunctionInfo | str, callee: str) -> FunctionInfo | None:
        """Resolve a call written as ``callee`` inside ``caller``.

        ``caller`` may be a FunctionInfo or a module name (for calls at
        module scope).  Unresolvable calls — locals, object methods,
        out-of-project imports — return None (assumed pure).
        """
        if isinstance(caller, FunctionInfo):
            module = caller.module
            summary = self.modules.get(module)
            if summary is not None and "." not in callee:
                nested = summary.functions.get(
                    f"{caller.qualname}.<locals>.{callee}"
                )
                if nested is not None:
                    return nested
        else:
            module = caller
            summary = self.modules.get(module)
        if summary is None:
            return None
        if "." not in callee and callee in summary.functions:
            return summary.functions[callee]
        dotted = self.resolve_import_target(module, callee)
        if dotted is None or dotted == callee and "." not in dotted:
            return None
        return self._function_for_dotted(dotted)

    # -- call graph ----------------------------------------------------

    def edges(self) -> dict[str, list[tuple[str, CallSite]]]:
        """Resolved call edges: caller fq -> [(callee fq, call site)]."""
        if self._edges is None:
            out: dict[str, list[tuple[str, CallSite]]] = {}
            for info in self.functions.values():
                resolved = []
                for cs in info.calls:
                    callee = self.resolve_call(info, cs.callee)
                    if callee is not None and callee.fq != info.fq:
                        resolved.append((callee.fq, cs))
                out[info.fq] = resolved
            self._edges = out
        return self._edges

    def reachable_from(self, fq: str) -> set[str]:
        """Every project function transitively callable from ``fq``."""
        edges = self.edges()
        seen: set[str] = set()
        stack = [fq]
        while stack:
            cur = stack.pop()
            for callee, _ in edges.get(cur, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    # -- effect propagation --------------------------------------------

    def summary(self, fq: str) -> EffectSummary:
        """Transitive effect summary of one function (fixpoint-cached)."""
        if self._summaries is None:
            self._summaries = self._compute_summaries()
        return self._summaries.get(fq, EffectSummary())

    def _compute_summaries(self) -> dict[str, EffectSummary]:
        sums: dict[str, EffectSummary] = {}
        for fq, info in self.functions.items():
            s = EffectSummary()
            params = set(info.param_names())
            for eff in info.effects:
                if eff.kind == "mutates-param" and eff.target in params:
                    s.mutated_params.setdefault(eff.target, ((), eff, fq))
                elif eff.kind == "mutates-global" and eff.target is not None:
                    s.mutated_globals.setdefault(eff.target, ((), eff, fq))
                elif eff.kind in ("rng", "clock", "io", "mpi"):
                    s.ambient.setdefault(eff.kind, ((), eff, fq))
            sums[fq] = s

        edges = self.edges()
        changed = True
        while changed:
            changed = False
            for fq, info in self.functions.items():
                s = sums[fq]
                for callee_fq, cs in edges.get(fq, ()):
                    callee = self.functions[callee_fq]
                    g = sums[callee_fq]
                    for kind, (via, eff, owner) in g.ambient.items():
                        if kind not in s.ambient:
                            s.ambient[kind] = ((callee_fq,) + via, eff, owner)
                            changed = True
                    for gname, (via, eff, owner) in g.mutated_globals.items():
                        if gname not in s.mutated_globals:
                            s.mutated_globals[gname] = (
                                (callee_fq,) + via, eff, owner
                            )
                            changed = True
                    for pname, (via, eff, owner) in g.mutated_params.items():
                        ref = _bound_arg(callee, cs, pname)
                        if ref is None or ref.root is None:
                            continue
                        entry = ((callee_fq,) + via, eff, owner)
                        if ref.root_is_param and ref.root not in s.mutated_params:
                            s.mutated_params[ref.root] = entry
                            changed = True
                        elif (
                            ref.root_is_global
                            and ref.root not in s.mutated_globals
                        ):
                            s.mutated_globals[ref.root] = entry
                            changed = True
        return sums


def _bound_arg(callee: FunctionInfo, cs: CallSite, param: str) -> ArgRef | None:
    """The caller ArgRef bound to ``param`` of ``callee`` at this site."""
    pos = callee.pos_params
    if param in pos:
        i = pos.index(param)
        if i < len(cs.pos):
            return cs.pos[i]
    for name, ref in cs.kw:
        if name == param:
            return ref
    return None
