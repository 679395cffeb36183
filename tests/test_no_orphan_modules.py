"""Every module under ``src/repro`` has a caller that is not its own test.

A module counts as used when a file under ``src/``, ``benchmarks/`` or
``examples/`` — other than the module itself and its package
``__init__`` — imports it, or imports from its package a name that the
``__init__`` re-exports from it.  ``__init__`` / ``__main__`` files and
``python -m`` entry points are roots, and ``repro.lint.rules.*`` is
left out: rule modules register themselves when ``rules/__init__``
imports them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: run as ``python -m repro.service.worker`` by the supervisor.
ENTRY_POINTS = {"repro.service.worker"}


def imports_of(path: Path) -> set[tuple[str, str | None]]:
    """``(module, name | None)`` of every absolute import in a file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.update((node.module, alias.name) for alias in node.names)
    return found


def orphan_modules(root: Path = ROOT) -> set[str]:
    """Uncalled modules of the tree at ``root`` (another checkout's
    root shows what the guard would have said there)."""
    src = root / "src"

    def module_name(path: Path) -> str:
        parts = path.relative_to(src).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    files = {module_name(p): p for p in src.rglob("*.py")}
    reexports = {  # package -> {name: module its __init__ takes it from}
        pkg: {name: mod for mod, name in imports_of(path) if name and mod in files}
        for pkg, path in files.items()
        if path.name == "__init__.py"
    }

    def reached(module: str, name: str | None) -> set[str]:
        """Modules an import touches, following re-exported names home."""
        if name is None:
            return {module}
        if f"{module}.{name}" in files:
            return {f"{module}.{name}"}
        origin = reexports.get(module, {}).get(name)
        return {module} | (reached(origin, name) if origin else set())

    used = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (root / top).rglob("*.py"):
            own = module_name(path) if top == "src" else None
            for module, name in imports_of(path):
                for target in reached(module, name) - {own}:
                    # a package __init__ re-exporting its own modules is no caller
                    if not (path.name == "__init__.py" and target.startswith(f"{own}.")):
                        used.add(target)
    return {
        module
        for module, path in files.items()
        if path.name not in ("__init__.py", "__main__.py")
        and module not in ENTRY_POINTS | used
        and not module.startswith("repro.lint.rules.")
    }


def test_every_module_has_a_caller():
    assert orphan_modules() == set()
