"""True-positive / true-negative fixtures for PERF002."""

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_source, select_rules

SRC = Path(__file__).resolve().parents[2] / "src"

#: the four packages PERF002 polices, every function.
HOT_PACKAGES = ("align", "distributed", "graph", "sequence")


def perf2_findings(src, path="src/repro/align/fixture.py"):
    return lint_source(
        textwrap.dedent(src), path=path, rules=select_rules(["PERF002"])
    )


SCALARIZED = """
def overlap_subset_pair(self, reads, q_idx, r_idx):
    out = []
    for q in q_idx.tolist():
        out.append(q)
    return out
"""


class TestPERF002ScalarizedHotLoop:
    def test_tolist_loop_in_hot_function_flagged(self):
        fs = perf2_findings(SCALARIZED)
        assert len(fs) == 1
        assert fs[0].rule == "PERF002"
        assert "tolist" in fs[0].message

    def test_wrapped_iter_expression_flagged(self):
        fs = perf2_findings(
            """
            import numpy as np
            def _candidates(self, arr):
                for q in np.asarray(arr).tolist():
                    yield q
            """
        )
        assert len(fs) == 1

    def test_batched_vote_count_clean(self):
        # A vote function that walks blocks, not elements, is clean.
        fs = perf2_findings(
            """
            import numpy as np
            def _diagonal_votes(self, reads, cand_q, cand_r, length):
                ends = np.cumsum(length)
                b = 0
                while b < length.size:
                    e = int(np.searchsorted(ends, ends[b] + 1024))
                    b = max(b + 1, e)
                return ends
            """
        )
        assert fs == []

    def test_tile_builder_in_scope(self):
        # The compare's tile builder is on the vote path: a row-by-row
        # copy is flagged, the one-gather form is clean.
        fs = perf2_findings(
            """
            import numpy as np
            def _diagonal_tile(codes, first, width):
                tile = np.empty((first.size, width), dtype=codes.dtype)
                for i, lo in enumerate(first.tolist()):
                    tile[i] = codes[lo : lo + width]
                return tile
            """
        )
        assert len(fs) == 1 and fs[0].rule == "PERF002"
        fs = perf2_findings(
            """
            from numpy.lib.stride_tricks import sliding_window_view
            def _diagonal_tile(codes, first, width):
                return sliding_window_view(codes, width)[first]
            """
        )
        assert fs == []

    def test_outside_hot_packages_clean(self):
        # Scope is the four packages: the partitioner, the scalar test
        # oracles and the tests themselves may loop element by element.
        for path in (
            "src/repro/partition/fixture.py",
            "src/repro/core/fixture.py",
            "tests/reference/fixture.py",
            "tests/align/test_fixture.py",
        ):
            assert perf2_findings(SCALARIZED, path=path) == [], path

    def test_windows_path_separators_normalized(self):
        for package in HOT_PACKAGES:
            path = f"src\\repro\\{package}\\fixture.py"
            assert len(perf2_findings(SCALARIZED, path=path)) == 1, path

    def test_loop_without_tolist_clean(self):
        fs = perf2_findings(
            """
            def overlap_subset_pair(self, pairs):
                for i, j in pairs:
                    yield i + j
            """
        )
        assert fs == []

    def test_noqa_suppresses(self):
        fs = perf2_findings(
            """
            def overlap_subset_pair(self, q_idx):
                for q in q_idx.tolist():  # noqa: PERF002 - scalar fallback
                    yield q
            """
        )
        assert fs == []


#: the deliberate scalar loops of the four packages, per file.
NOQA_SITES = {
    "graph/contigs.py": 1,  # consensus_of_layouts: one loop per contig
    "graph/matching.py": 1,  # heavy_edge_matching: the greedy walk
    "sequence/kmers.py": 1,  # pack_kmer: the scalar oracle
}

NOQA = re.compile(r"\s*# noqa: PERF002 - .*$")


class TestPERF002PackageScope:
    """Every function of the four packages is in scope, whatever its name."""

    @pytest.mark.parametrize("package", HOT_PACKAGES)
    def test_any_function_in_the_package_flagged(self, package):
        for name in ("merge_results", "consensus_of_layouts", "pack_kmer", "_helper"):
            src = SCALARIZED.replace("overlap_subset_pair", name)
            fs = perf2_findings(src, path=f"src/repro/{package}/any_module.py")
            assert [f.rule for f in fs] == ["PERF002"], (package, name)

    def test_nested_and_module_level_loops_flagged_once(self):
        # A loop in a nested function is reported once, not per
        # enclosing function.
        fs = perf2_findings(
            """
            def outer(xs):
                def inner():
                    for x in xs.tolist():
                        yield x
                return inner
            for y in TABLE.tolist():
                pass
            """,
            path="src/repro/graph/fixture.py",
        )
        assert [f.line for f in fs] == [4, 7]

    def test_noqa_sites_are_the_known_scalar_loops(self):
        found = {
            path.relative_to(SRC / "repro").as_posix(): sum(
                bool(NOQA.search(line))
                for line in path.read_text(encoding="utf-8").splitlines()
            )
            for package in HOT_PACKAGES
            for path in (SRC / "repro" / package).rglob("*.py")
        }
        assert {k: v for k, v in found.items() if v} == NOQA_SITES

    @pytest.mark.parametrize("relpath", sorted(NOQA_SITES))
    def test_shipped_scalar_loop_flagged_without_its_noqa(self, relpath):
        path = SRC / "repro" / relpath
        lines = path.read_text(encoding="utf-8").splitlines()
        assert perf2_findings("\n".join(lines), path=str(path)) == []
        sites = [i + 1 for i, line in enumerate(lines) if NOQA.search(line)]
        for site in sites:
            stripped = list(lines)
            stripped[site - 1] = NOQA.sub("", lines[site - 1])
            fs = perf2_findings("\n".join(stripped), path=str(path))
            assert [f.line for f in fs] == [site], (relpath, site)
