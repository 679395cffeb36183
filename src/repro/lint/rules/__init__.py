"""Rule modules; importing this package registers every rule."""

from repro.lint.rules import (  # noqa: F401 (registration side effect)
    determinism,
    memory,
    perf,
    robustness,
)
