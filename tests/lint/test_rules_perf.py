"""True-positive / true-negative fixtures for PERF001 and PERF002."""

import textwrap

from repro.lint import Severity, lint_source, select_rules


def findings(src):
    return lint_source(
        textwrap.dedent(src), path="fixture.py", rules=select_rules(["PERF001"])
    )


def perf2_findings(src, path="src/repro/align/fixture.py"):
    return lint_source(
        textwrap.dedent(src), path=path, rules=select_rules(["PERF002"])
    )


class TestPERF001UntimedCompute:
    def test_bare_compute_loop_flagged(self):
        fs = findings(
            """
            def rank_fn(comm, items):
                total = 0
                for x in items:
                    total += x * x
                return comm.allgather(total)
            """
        )
        assert len(fs) == 1
        assert fs[0].rule == "PERF001"
        assert fs[0].severity is Severity.WARNING
        assert "timed" in fs[0].message

    def test_nested_untimed_loop_flagged_once(self):
        fs = findings(
            """
            def rank_fn(comm, grid):
                acc = 0
                for row in grid:
                    for cell in row:
                        acc += cell
                return comm.allgather(acc)
            """
        )
        assert len(fs) == 1  # only the outermost loop is reported

    def test_loop_under_timed_clean(self):
        fs = findings(
            """
            def rank_fn(comm, items):
                total = 0
                with comm.timed():
                    for x in items:
                        total += x * x
                return comm.allgather(total)
            """
        )
        assert fs == []

    def test_communication_loop_clean(self):
        # A loop that drives collectives is communication, already
        # charged by the cost model, not untimed compute.
        fs = findings(
            """
            def rank_fn(comm, objs):
                for root in range(comm.size):
                    comm.bcast(objs[root], root=root)
            """
        )
        assert fs == []

    def test_loop_containing_timed_block_clean(self):
        # The repo's task-loop idiom: iterate tasks, time each one.
        fs = findings(
            """
            def rank_fn(comm, tasks):
                out = []
                for t in tasks:
                    with comm.timed():
                        out.append(t * 2)
                return out
            """
        )
        assert fs == []

    def test_function_without_comm_clean(self):
        fs = findings(
            """
            def pure_helper(items):
                total = 0
                for x in items:
                    total += x
                return total
            """
        )
        assert fs == []


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
        assert fs[0].severity is Severity.WARNING
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

    def test_candidates_suffix_flagged(self):
        fs = perf2_findings(
            """
            def _pair_candidates(self, arr):
                for q in arr.tolist():
                    yield q
            """
        )
        assert len(fs) == 1

    def test_seed_and_vote_functions_flagged(self):
        for name in (
            "_unit_seeds",
            "seed_ranges",
            "hit_ranges",
            "self_join",
            "_stripe_triples",
            "_diagonal_votes",
        ):
            fs = perf2_findings(SCALARIZED.replace("overlap_subset_pair", name))
            assert len(fs) == 1, name

    def test_batched_vote_count_clean(self):
        # The per-candidate banded fallback is not a hot name, and a
        # vote function that walks blocks, not elements, is clean.
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
            def _banded_identity(self, spans):
                for lo, hi in spans.tolist():
                    yield lo, hi
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

    def test_outside_align_package_clean(self):
        fs = perf2_findings(SCALARIZED, path="src/repro/graph/fixture.py")
        assert fs == []

    def test_windows_path_separators_normalized(self):
        fs = perf2_findings(SCALARIZED, path="src\\repro\\align\\fixture.py")
        assert len(fs) == 1

    def test_non_hot_function_clean(self):
        fs = perf2_findings(
            """
            def merge_results(self, parts):
                for p in parts.tolist():
                    yield p
            """
        )
        assert fs == []

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


SPARSE_SCALARIZED = """
def find_transitive_edges(dag, nodes):
    out = []
    for v in nodes.tolist():
        out.append(v)
    return out
"""


class TestPERF002SparseEngineScope:
    """The finish-kernel modules are policed by path, every function."""

    def test_sparse_function_in_distributed_flagged(self):
        for module in ("dgraph", "transitive", "containment", "trimming", "traversal"):
            fs = perf2_findings(
                SPARSE_SCALARIZED, path=f"src/repro/distributed/{module}.py"
            )
            assert len(fs) == 1, module
            assert fs[0].rule == "PERF002"

    def test_outside_kernel_modules_clean(self):
        # Scope is by path: other distributed modules and the scalar
        # test oracles may loop element by element.
        for path in (
            "src/repro/distributed/variants.py",
            "tests/reference/finish_loop.py",
            "tests/reference/traversal_walk.py",
        ):
            assert perf2_findings(SPARSE_SCALARIZED, path=path) == [], path

    def test_any_function_in_sparse_module_flagged(self):
        fs = perf2_findings(
            """
            def sorted_unique(values):
                for v in values.tolist():
                    yield v
            """,
            path="src/repro/distributed/dgraph.py",
        )
        assert len(fs) == 1

    def test_sparse_noqa_still_suppresses(self):
        fs = perf2_findings(
            """
            def boolean_product_keys(rows):
                for r in rows.tolist():  # noqa: PERF002 - deliberate
                    yield r
            """,
            path="src/repro/distributed/dgraph.py",
        )
        assert fs == []


LAYOUT_SCALARIZED = """
def layout_clusters(g0, members, first, tolerance=0):
    out = []
    for v in members.tolist():
        out.append(v)
    return out
"""


class TestPERF002LayoutScope:
    """Cluster layout and the representative descent, by function name."""

    def test_layout_and_selection_functions_flagged(self):
        for path, name in (
            ("src/repro/graph/contigs.py", "layout_clusters"),
            ("src/repro/graph/contigs.py", "cluster_layout_offsets"),
            ("src/repro/graph/hybrid.py", "_select_representatives"),
        ):
            src = LAYOUT_SCALARIZED.replace("layout_clusters", name)
            fs = perf2_findings(src, path=path)
            assert len(fs) == 1, name
            assert fs[0].rule == "PERF002"

    def test_cluster_loops_and_other_modules_clean(self):
        # Name-scoped: consensus_of_layouts walks clusters, not edges;
        # the scalar oracle lives outside the rule's paths.
        for path, name in (
            ("src/repro/graph/contigs.py", "consensus_of_layouts"),
            ("src/repro/graph/hybrid.py", "build_hybrid_set"),
            ("src/repro/graph/coarsen.py", "layout_clusters"),
            ("tests/reference/layout.py", "cluster_layout_offsets"),
        ):
            src = LAYOUT_SCALARIZED.replace("layout_clusters", name)
            assert perf2_findings(src, path=path) == [], (path, name)


KMER_SCALARIZED = """
def kmer_codes(codes, k):
    out = []
    for i in range(len(codes) - k + 1):
        value = 0
        for c in codes[i : i + k].tolist():
            value = (value << 2) | c
        out.append(value)
    return out
"""


class TestPERF002KmerKernelScope:
    """The k-mer packer, by function name in its module."""

    def test_per_window_loop_in_the_packer_flagged(self):
        for name in ("kmer_codes", "_pack_windows"):
            src = KMER_SCALARIZED.replace("kmer_codes", name)
            fs = perf2_findings(src, path="src/repro/sequence/kmers.py")
            assert len(fs) == 1, name
            assert fs[0].rule == "PERF002"

    def test_scalar_helpers_and_other_modules_clean(self):
        # pack_kmer is the one-k-mer oracle; the name alone is not hot.
        for path, name in (
            ("src/repro/sequence/kmers.py", "pack_kmer"),
            ("src/repro/sequence/dna.py", "kmer_codes"),
        ):
            src = KMER_SCALARIZED.replace("kmer_codes", name)
            assert perf2_findings(src, path=path) == [], (path, name)
