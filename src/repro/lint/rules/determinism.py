"""DET001: unseeded RNG calls.

Every figure in the reproduction is regenerated from seeds; a single
``random.random()`` or ``np.random.shuffle()`` draws from hidden global
state, and ``np.random.default_rng()`` draws fresh OS entropy, so the
run cannot be reproduced.  The project convention is an explicit
seeded generator: ``np.random.default_rng(seed)`` or
``random.Random(seed)``.

Flagged forms:

- ``np.random.<draw>(...)`` / ``numpy.random.<draw>(...)``;
- ``random.<draw>(...)`` when the stdlib module is imported —
  including the in-place reorderers ``random.shuffle`` /
  ``random.choice`` / ``random.sample``;
- bare calls of names *imported from* ``random`` or ``numpy.random``
  (``from random import shuffle`` then ``shuffle(xs)`` hits exactly
  the same global generator the dotted form does);
- the seeded constructors (``default_rng``, ``Random``,
  ``RandomState``, ``SeedSequence``, the bit generators) called with
  no seed or a literal ``None``, by any of the spellings above.

``Generator``, ``BitGenerator`` and ``SystemRandom`` are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["UnseededRng"]

#: constructors that are seeded by their first argument and draw OS
#: entropy without one.
_SEEDED_CONSTRUCTORS = frozenset(
    {"Random", "RandomState", "default_rng", "SeedSequence",
     "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)

#: attributes of ``random`` / ``np.random`` that are not global-state draws.
_NOT_DRAWS = _SEEDED_CONSTRUCTORS | {"SystemRandom", "Generator", "BitGenerator"}

#: keyword spellings of the seed argument (``Random(x=)``).
_SEED_KEYWORDS = ("seed", "entropy", "x")

_NUMPY_PREFIXES = ("np.random.", "numpy.random.")

#: modules whose from-imports are checked like their dotted calls.
_FROM_MODULES = ("random", "numpy.random")


def _from_imports(tree: ast.Module) -> dict[str, str]:
    """Local alias -> dotted name, for ``from random / numpy.random`` imports."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if node.module not in _FROM_MODULES:
            continue
        for alias in node.names:
            if alias.name != "*":
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _is_seedless(call: ast.Call) -> bool:
    """True when the call passes no seed, or a literal ``None``."""
    seeds = call.args[:1] + [k.value for k in call.keywords if k.arg in _SEED_KEYWORDS]
    return not seeds or (isinstance(seeds[0], ast.Constant) and seeds[0].value is None)


@register
class UnseededRng(Rule):
    id = "DET001"
    summary = "module-level RNG call or seedless generator instead of a seeded one"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        plain_random_imported = any(
            isinstance(node, ast.Import)
            and any(a.name == "random" and a.asname is None for a in node.names)
            for node in ast.walk(ctx.tree)
        )
        from_imports = _from_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            target = name and self._rng_target(name, plain_random_imported, from_imports)
            if not target:
                continue
            shown, attr = target
            if attr not in _NOT_DRAWS:
                yield self.finding(
                    ctx,
                    node,
                    f"`{shown}` draws from hidden global RNG state, breaking "
                    "run-to-run reproducibility; use a seeded "
                    "`np.random.default_rng(seed)` / `random.Random(seed)` instead",
                )
            elif attr in _SEEDED_CONSTRUCTORS and _is_seedless(node):
                yield self.finding(
                    ctx,
                    node,
                    f"`{shown}` without a seed draws OS entropy, breaking "
                    "run-to-run reproducibility; pass an explicit seed",
                )

    @staticmethod
    def _rng_target(
        name: str, plain_random_imported: bool, from_imports: dict[str, str]
    ) -> tuple[str, str] | None:
        """(name to show, attribute of the RNG module) of a call into
        ``random`` / ``numpy.random``, else None."""
        for prefix in _NUMPY_PREFIXES:
            if name.startswith(prefix):
                return name, name[len(prefix):].split(".", 1)[0]
        if plain_random_imported and name.startswith("random."):
            return name, name.split(".", 2)[1]
        if name in from_imports:
            dotted = from_imports[name]
            return dotted, dotted.rsplit(".", 1)[1]
        return None
