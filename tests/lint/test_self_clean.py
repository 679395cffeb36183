"""The shipped tree must stay lint-clean.

Runs the full rule set over ``src/repro``, ``examples``,
``benchmarks`` and ``tests`` and asserts zero findings of *any*
severity (so ``python -m repro lint ... --strict`` exits 0).  A change
that introduces a rank-dependent collective, a reserved tag, a
mutate-after-send race, an unseeded RNG, an untimed compute loop or an
mpi import in a kernel module (ARCH001) fails tier-1 here.  Fixtures
that are deliberately dirty (a mismatched-collective deadlock test)
carry targeted ``# noqa`` comments.
"""

from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import Severity, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

LINTED_TREES = ("src/repro", "examples", "benchmarks", "tests")


def _lintable(*names):
    return [REPO_ROOT / n for n in names if (REPO_ROOT / n).exists()]


def test_src_repro_has_zero_error_findings():
    errors = [
        f
        for f in lint_paths(_lintable("src/repro"))
        if f.severity >= Severity.ERROR
    ]
    assert errors == [], "\n" + "\n".join(f.format_text() for f in errors)


def test_whole_tree_is_strict_clean():
    # `tests` covers the lint fixtures themselves; `src/repro` covers
    # `src/repro/bench`.
    findings = lint_paths(_lintable(*LINTED_TREES))
    assert findings == [], "\n" + "\n".join(f.format_text() for f in findings)


def test_cli_strict_lint_over_src_exits_zero(capsys):
    # The exact gate CI runs: `repro lint --strict src/repro`.
    assert cli_main(["lint", "--strict", str(REPO_ROOT / "src" / "repro")]) == 0
    capsys.readouterr()  # swallow the (empty) report
