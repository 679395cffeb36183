"""The shipped tree must stay lint-clean.

Runs the full rule set over ``src/repro``, ``examples``,
``benchmarks`` and ``tests`` and asserts zero findings (so ``python -m
repro lint src tests examples benchmarks`` exits 0).  A change that
introduces an unseeded RNG, a ``.tolist()`` loop on a vectorized hot
path, a whole-store read in a kernel, a swallowed exception or an
unbounded poll loop fails tier-1 here.  Deliberate exceptions carry a
targeted ``# noqa: RULEID - <reason>`` comment.
"""

from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

LINTED_TREES = ("src/repro", "examples", "benchmarks", "tests")


def _lintable(*names):
    return [REPO_ROOT / n for n in names if (REPO_ROOT / n).exists()]


def test_whole_tree_is_strict_clean():
    # `tests` covers the lint fixtures themselves; `src/repro` covers
    # `src/repro/bench`.
    findings = lint_paths(_lintable(*LINTED_TREES))
    assert findings == [], "\n" + "\n".join(f.format_text() for f in findings)


def test_cli_lint_over_src_exits_zero(capsys):
    assert cli_main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0
    capsys.readouterr()  # swallow the (empty) report
