"""Content-hash cache: unchanged files are never re-parsed."""

import pytest

from repro.lint import DEFAULT_CACHE, SUMMARY_VERSION, LintCache, analyze_paths


def _tree(tmp_path, n=3):
    for i in range(n):
        (tmp_path / f"m{i}.py").write_text(f"def f{i}(x):\n    return x + {i}\n")
    return tmp_path


class TestFileEntry:
    def test_hit_on_unchanged_source(self):
        cache = LintCache()
        src = "x = 1\n"
        first = cache.file_entry("a.py", src)
        second = cache.file_entry("a.py", src)
        assert second is first
        assert (cache.parses, cache.hits) == (1, 1)

    def test_changed_source_reparses(self):
        cache = LintCache()
        cache.file_entry("a.py", "x = 1\n")
        entry = cache.file_entry("a.py", "x = 2\n")
        assert entry.ctx.source == "x = 2\n"
        assert (cache.parses, cache.hits) == (2, 0)

    def test_syntax_errors_are_not_cached(self):
        cache = LintCache()
        with pytest.raises(SyntaxError):
            cache.file_entry("a.py", "def broken(:\n")
        assert len(cache) == 0
        # the fixed file parses fresh, not from a poisoned entry
        entry = cache.file_entry("a.py", "def fixed():\n    pass\n")
        assert "fixed" in entry.summary.functions


class TestSummaryVersioning:
    """Cached entries must not survive a summary-shape change.

    ``FileSummary``/``FunctionInfo`` change shape over time; a cache
    keyed on source bytes alone would keep serving summaries built by
    older code.  ``SUMMARY_VERSION`` is folded into the digest so bumping it
    invalidates every entry.
    """

    def test_version_token_is_part_of_the_digest(self, monkeypatch):
        src = "x = 1\n"
        before = LintCache.digest_of(src)
        monkeypatch.setattr(
            "repro.lint.cache.SUMMARY_VERSION", SUMMARY_VERSION + 1
        )
        assert LintCache.digest_of(src) != before

    def test_version_bump_forces_reparse(self, monkeypatch):
        cache = LintCache()
        src = "def f(x):\n    return x\n"
        cache.file_entry("a.py", src)
        cache.file_entry("a.py", src)
        assert (cache.parses, cache.hits) == (1, 1)

        monkeypatch.setattr(
            "repro.lint.cache.SUMMARY_VERSION", SUMMARY_VERSION + 1
        )
        cache.file_entry("a.py", src)
        assert cache.parses == 2  # stale summary was not reused


class TestIncrementalRuns:
    def test_second_run_parses_zero_files(self, tmp_path):
        tree = _tree(tmp_path)
        cache = LintCache()
        first = analyze_paths([tree], cache=cache)
        assert first.stats.parses == 3
        assert first.stats.cache_hits == 0

        second = analyze_paths([tree], cache=cache)
        assert second.stats.parses == 0
        assert second.stats.cache_hits == 3
        assert second.stats.cache_hit_rate == 1.0
        assert second.findings == first.findings

    def test_only_touched_file_reparses(self, tmp_path):
        tree = _tree(tmp_path)
        cache = LintCache()
        analyze_paths([tree], cache=cache)
        (tree / "m1.py").write_text("def f1(x):\n    return x * 2\n")
        rerun = analyze_paths([tree], cache=cache)
        assert rerun.stats.parses == 1
        assert rerun.stats.cache_hits == 2

    def test_default_cache_is_shared(self, tmp_path):
        tree = _tree(tmp_path, n=1)
        analyze_paths([tree])
        before = (DEFAULT_CACHE.parses, DEFAULT_CACHE.hits)
        result = analyze_paths([tree])
        assert result.stats.parses == 0
        assert (DEFAULT_CACHE.parses, DEFAULT_CACHE.hits) == (before[0], before[1] + 1)
