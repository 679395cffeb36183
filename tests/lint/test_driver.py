"""Driver-level tests: suppression, formats, file walking, exit codes."""

import io
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    UsageError,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
    run,
)

BAD_SOURCE = textwrap.dedent(
    """
    import numpy as np

    def fn():
        try:
            return np.random.rand(4)
        except Exception:
            pass
    """
)

#: one DET001 finding on line 2.
UNSEEDED = "import random\nx = random.random()"


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [r.id for r in all_rules()]
        assert ids == ["DET001", "MEM001", "PERF002", "ROB001", "ROB002"]

    def test_every_rule_has_summary(self):
        for rule in all_rules():
            assert rule.summary

    def test_docs_describe_exactly_the_registered_rules(self):
        """docs/lint.md has one `## RULEID` section per rule, no more."""
        doc = Path(__file__).parents[2] / "docs" / "lint.md"
        headings = re.findall(r"^## ([A-Z]+\d{3})\b", doc.read_text(), re.M)
        assert sorted(headings) == [r.id for r in all_rules()]


class TestSuppression:
    def test_noqa_with_rule_id(self):
        assert lint_source(UNSEEDED + "  # noqa: DET001\n") == []

    def test_bare_noqa_silences_all(self):
        assert lint_source(UNSEEDED + "  # noqa\n") == []

    def test_noqa_for_other_rule_does_not_silence(self):
        src = UNSEEDED + "  # noqa: ROB001\n"
        assert [f.rule for f in lint_source(src)] == ["DET001"]

    def test_noqa_rule_id_is_case_insensitive(self):
        assert lint_source(UNSEEDED + "  # noqa: det001\n") == []

    def test_noqa_with_multiple_rule_ids(self):
        # ROB002 (unbounded poll) and DET001 (global RNG) on one line
        src = (
            "import random, time\n"
            "while True: time.sleep(random.random())  # noqa: ROB002,DET001\n"
        )
        assert lint_source(src) == []

    def test_noqa_multi_rule_list_still_selective(self):
        # listing other rules does not grant a blanket waiver
        src = UNSEEDED + "  # noqa: ROB001, PERF002\n"
        assert [f.rule for f in lint_source(src)] == ["DET001"]


class TestFormats:
    def test_text_format_is_pyflakes_style(self):
        fs = lint_source(BAD_SOURCE, path="pkg/mod.py")
        assert fs, "fixture should produce findings"
        path_part, line_no, col, rest = fs[0].format_text().split(":", 3)
        assert path_part == "pkg/mod.py"
        assert line_no.isdigit() and col.isdigit()
        assert rest.split()[0] == fs[0].rule

    def test_findings_sorted_by_location(self):
        fs = lint_source(BAD_SOURCE)
        assert fs == sorted(fs)

    def test_syntax_error_becomes_finding(self):
        fs = lint_source("def broken(:\n", path="bad.py")
        assert len(fs) == 1
        assert fs[0].rule == "E999"


class TestPathsAndExitCodes:
    def _tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(BAD_SOURCE)
        (tmp_path / "pkg" / "good.py").write_text("def fn(comm):\n    comm.barrier()\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("import random\n")
        return tmp_path / "pkg"

    def test_iter_python_files_skips_pycache(self, tmp_path):
        pkg = self._tree(tmp_path)
        names = [p.name for p in iter_python_files([pkg])]
        assert names == ["bad.py", "good.py"]

    def test_lint_paths_finds_only_bad_file(self, tmp_path):
        pkg = self._tree(tmp_path)
        fs = lint_paths([pkg])
        assert {f.rule for f in fs} == {"ROB001", "DET001"}
        assert all(f.path.endswith("bad.py") for f in fs)

    def test_run_exit_codes(self, tmp_path):
        pkg = self._tree(tmp_path)
        sink = io.StringIO()
        assert run([str(pkg / "good.py")], stream=sink) == 0
        assert run([str(pkg)], stream=sink) == 1
        assert sink.getvalue().endswith("2 finding(s)\n")

    def test_run_any_finding_exits_one(self, tmp_path):
        mod = tmp_path / "det.py"
        mod.write_text(UNSEEDED + "\n")
        assert run([str(mod)], stream=io.StringIO()) == 1

    def test_run_missing_path_is_usage_error(self):
        assert run(["definitely/not/a/path"], stream=io.StringIO()) == 2

    def test_existing_non_python_file_is_usage_error(self, tmp_path):
        # `repro lint README.md` must fail loudly, not report "clean"
        readme = tmp_path / "README.md"
        readme.write_text("# docs, not code\n")
        with pytest.raises(UsageError, match="not a python file"):
            iter_python_files([readme])
        assert run([str(readme)], stream=io.StringIO()) == 2

    def test_cli_non_python_file_exits_two(self, tmp_path, capsys):
        readme = tmp_path / "README.md"
        readme.write_text("# docs\n")
        assert main(["lint", str(readme)]) == 2
        assert "not a python file" in capsys.readouterr().err

    def test_cli_syntax_error_exits_one(self, tmp_path, capsys):
        mod = tmp_path / "broken.py"
        mod.write_text("def broken(:\n")
        assert main(["lint", str(mod)]) == 1
        assert "E999 syntax error" in capsys.readouterr().out

    def test_cli_lint_subcommand(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(BAD_SOURCE)
        assert main(["lint", str(mod)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[1] for line in lines[:-1]} == {"ROB001", "DET001"}
        assert lines[-1] == "2 finding(s)"

    @pytest.mark.parametrize("option", ["--strict", "--format=json"])
    def test_cli_removed_options_are_usage_errors(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", option, "src"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            r.id for r in all_rules()
        ]


class TestSourceDecoding:
    def test_pep263_and_undecodable_files_do_not_abort_the_run(self, tmp_path, capsys):
        # A latin-1 file that python runs lints like any other; a file
        # that cannot be decoded is one E999 naming it; the rest of the
        # tree is still linted.
        (tmp_path / "latin.py").write_bytes(
            b'# -*- coding: latin-1 -*-\nname = "caf\xe9"\n'
        )
        (tmp_path / "undecodable.py").write_bytes(b'a = 1\nb = 2\nname = "\xff"\n')
        (tmp_path / "det.py").write_text("import numpy as np\nx = np.random.rand()\n")
        fs = lint_paths([tmp_path])
        assert [(Path(f.path).name, f.rule) for f in fs] == [
            ("det.py", "DET001"),
            ("undecodable.py", "E999"),
        ]
        assert main(["lint", str(tmp_path)]) == 1
        assert "undecodable.py:1:0: E999" in capsys.readouterr().out

