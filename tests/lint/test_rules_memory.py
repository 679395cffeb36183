"""True-positive / true-negative fixtures for MEM001."""

import textwrap

from repro.lint import lint_source, select_rules


def findings(src, path="src/repro/distributed/fixture.py"):
    return lint_source(
        textwrap.dedent(src), path=path, rules=select_rules(["MEM001"])
    )


class TestMEM001TruePositives:
    def test_to_array_in_kernel_flagged(self):
        fs = findings(
            """
            def dead_end_kernel(dag, part, reads):
                data = reads.to_array()
                return data.sum()
            """
        )
        assert len(fs) == 1
        assert fs[0].rule == "MEM001"
        assert "to_array" in fs[0].message

    def test_concatenated_shard_stream_flagged(self):
        fs = findings(
            """
            import numpy as np

            def traversal_kernel(store):
                data = np.concatenate(
                    [arrays["data"] for _, arrays in store.iter_shards()]
                )
                return data
            """
        )
        assert len(fs) == 1
        assert "shard stream" in fs[0].message

    def test_vstack_of_iter_shards_flagged(self):
        fs = findings(
            """
            import numpy as np

            def layout_kernel(store):
                return np.vstack([a for _, a in store.iter_shards()])
            """
        )
        assert len(fs) == 1

    def test_bare_concatenate_name_flagged(self):
        fs = findings(
            """
            from numpy import hstack

            def glue_kernel(store):
                return hstack([a["data"] for _, a in store.iter_shards()])
            """
        )
        assert len(fs) == 1


class TestMEM001TrueNegatives:
    def test_non_kernel_function_clean(self):
        fs = findings(
            """
            def report_store(reads):
                return reads.to_array().sum()
            """
        )
        assert fs == []

    def test_shard_wise_kernel_clean(self):
        fs = findings(
            """
            def dead_end_kernel(dag, part, store):
                total = 0
                for index, arrays in store.iter_shards():
                    total += arrays["data"].sum()
                return total
            """
        )
        assert fs == []

    def test_concatenate_of_local_arrays_clean(self):
        fs = findings(
            """
            import numpy as np

            def subpath_kernel(dag, part):
                heads = np.concatenate([dag.heads(part), dag.tails(part)])
                return np.unique(heads)
            """
        )
        assert fs == []

    def test_noqa_suppresses(self):
        fs = findings(
            """
            def debug_kernel(reads):
                return reads.to_array()  # noqa: MEM001
            """
        )
        assert fs == []


class TestMEM001OnRealKernels:
    def test_shipped_kernels_are_clean(self):
        # The lint self-clean gate enforces this too; pin it here so a
        # regression names the rule instead of failing a broad sweep.
        import glob

        from repro.lint import lint_paths

        files = glob.glob("src/repro/distributed/*.py")
        assert files
        fs = [
            f
            for f in lint_paths(files, rules=select_rules(["MEM001"]))
            if f.rule == "MEM001"
        ]
        assert fs == []
