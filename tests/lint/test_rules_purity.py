"""PURE001 / PURE002 / ARCH002: interprocedural kernel-purity rules.

Fixtures build small on-disk packages (``__init__.py`` included) so
the project context resolves imports exactly as it does on the real
tree, including the cross-module kernel -> helper case the per-file
rules can never see.
"""

import textwrap

import pytest

from repro.lint import lint_paths, select_rules

PURITY = select_rules(["PURE001", "PURE002"])
CONTRACT = select_rules(["ARCH002"])


def _pkg(tmp_path, **modules):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, src in modules.items():
        (pkg / f"{name}.py").write_text(textwrap.dedent(src))
    return pkg


class TestPure001:
    def test_direct_param_mutation(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            def bad_kernel(dag, part):
                dag.node_alive[0] = False
                return []
            """,
        )
        fs = lint_paths([pkg], rules=PURITY)
        assert [f.rule for f in fs] == ["PURE001"]
        assert "mutates its parameter `dag`" in fs[0].message
        assert fs[0].path.endswith("kern.py")

    def test_cross_module_helper_mutation(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            from pkg.helpers import mark_visited

            def bad_kernel(dag, part):
                mark_visited(dag, part)
                return []
            """,
            helpers="""
            def mark_visited(dag, part):
                dag.node_alive[part] = False
            """,
        )
        fs = lint_paths([pkg], rules=PURITY)
        assert [f.rule for f in fs] == ["PURE001"]
        # the witness names the helper chain and the mutation site
        assert "via `mark_visited`" in fs[0].message
        assert "helpers.py:3" in fs[0].message
        # but the finding anchors at the kernel def, in the kernel's file
        assert fs[0].path.endswith("kern.py")

    def test_module_global_mutation(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            CACHE = {}

            def bad_kernel(dag, part):
                CACHE[part] = dag
                return []
            """,
        )
        fs = lint_paths([pkg], rules=PURITY)
        assert [f.rule for f in fs] == ["PURE001"]
        assert "module global `CACHE`" in fs[0].message

    def test_graph_mutating_method(self, tmp_path):
        # applying removals instead of proposing them
        pkg = _pkg(
            tmp_path,
            kern="""
            def eager_kernel(dag, part):
                dag.remove_edges([1, 2])
                return []
            """,
        )
        fs = lint_paths([pkg], rules=PURITY)
        assert [f.rule for f in fs] == ["PURE001"]

    def test_clean_proposal_kernel_passes(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            def good_kernel(dag, part):
                out = []
                for e in dag.partition_edges(part):
                    out.append(e)
                return out
            """,
        )
        assert lint_paths([pkg], rules=PURITY) == []

    def test_fresh_scratch_passed_to_mutating_helper_passes(self, tmp_path):
        # the subpath_kernel idiom: kernel-local scratch may be mutated
        pkg = _pkg(
            tmp_path,
            kern="""
            from pkg.walk import extract

            def path_kernel(dag, part):
                visited = [False] * 10
                return extract(dag, part, visited)
            """,
            walk="""
            def extract(dag, part, visited):
                visited[part] = True
                return visited
            """,
        )
        assert lint_paths([pkg], rules=PURITY) == []

    def test_copy_then_mutate_passes(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            def relabel_kernel(dag, labels):
                labels = labels.copy()
                labels[0] = 1
                return labels
            """,
        )
        assert lint_paths([pkg], rules=PURITY) == []

    def test_non_kernel_mutator_is_not_flagged(self, tmp_path):
        # only *_kernel functions carry the purity contract
        pkg = _pkg(
            tmp_path,
            merges="""
            def apply_merge(dag, proposals):
                dag.remove_edges(proposals)
            """,
        )
        assert lint_paths([pkg], rules=PURITY) == []


class TestPure002:
    @pytest.mark.parametrize(
        "body, label",
        [
            ("import random\n\n\ndef k_kernel(dag, part):\n    return random.random()\n", "RNG"),
            ("import time\n\n\ndef k_kernel(dag, part):\n    return time.time()\n", "wall-clock"),
            (
                "from pathlib import Path\n\n\ndef k_kernel(dag, part):\n"
                "    return Path('x').read_text()\n",
                "I/O",
            ),
        ],
    )
    def test_direct_ambient_effects(self, tmp_path, body, label):
        pkg = _pkg(tmp_path, kern=body)
        fs = lint_paths([pkg], rules=PURITY)
        assert [f.rule for f in fs] == ["PURE002"]
        assert label in fs[0].message

    def test_cross_module_clock(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            from pkg.util import stamp

            def timed_kernel(dag, part):
                return stamp()
            """,
            util="""
            import time

            def stamp():
                return time.perf_counter()
            """,
        )
        fs = lint_paths([pkg], rules=PURITY)
        assert [f.rule for f in fs] == ["PURE002"]
        assert "via `stamp`" in fs[0].message

    def test_seeded_rng_passes(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            import numpy as np

            def sample_kernel(dag, part, seed=0):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 10, size=4)
            """,
        )
        assert lint_paths([pkg], rules=PURITY) == []

    def test_noqa_on_kernel_def_suppresses(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kern="""
            import time


            def slow_kernel(dag, part):  # noqa: PURE002
                return time.time()
            """,
        )
        assert lint_paths([pkg], rules=PURITY) == []


class TestArch002:
    def _registration(self, tmp_path, call, extra=""):
        src = textwrap.dedent(
            """
            from repro.distributed.stages import register_stage


            def trim_kernel(subject, part, **params):
                return []


            def trim_merge(subject, proposals, **params):
                return 0
            """
        )
        if extra:
            src += "\n" + textwrap.dedent(extra).strip() + "\n"
        src += "\n" + call + "\n"
        return _pkg(tmp_path, stages=src)

    def test_conforming_registration_passes(self, tmp_path):
        pkg = self._registration(
            tmp_path, 'register_stage("trim", trim_kernel, trim_merge)'
        )
        assert lint_paths([pkg], rules=CONTRACT) == []

    def test_lambda_kernel_flagged(self, tmp_path):
        pkg = self._registration(
            tmp_path, 'register_stage("trim", lambda d, p: [], trim_merge)'
        )
        fs = lint_paths([pkg], rules=CONTRACT)
        assert [f.rule for f in fs] == ["ARCH002"]
        assert "lambda" in fs[0].message

    def test_misnamed_kernel_flagged(self, tmp_path):
        pkg = self._registration(
            tmp_path,
            'register_stage("trim", do_trim, trim_merge)',
            extra="""
            def do_trim(dag, part, **params):
                return []
            """,
        )
        fs = lint_paths([pkg], rules=CONTRACT)
        assert [f.rule for f in fs] == ["ARCH002"]
        assert "not named `*_kernel`" in fs[0].message

    def test_arity_violations_flagged(self, tmp_path):
        pkg = self._registration(
            tmp_path,
            'register_stage("trim", thin_kernel, merge=thin_merge)',
            extra="""
            def thin_kernel(dag, **params):
                return []

            def thin_merge(dag):
                return 0
            """,
        )
        fs = lint_paths([pkg], rules=CONTRACT)
        assert [f.rule for f in fs] == ["ARCH002", "ARCH002"]
        assert "kernel(subject, part, **params)" in fs[0].message
        assert "merge(subject, proposals, **params)" in fs[1].message

    def test_keyword_arguments_resolved(self, tmp_path):
        pkg = self._registration(
            tmp_path,
            'register_stage("trim", kernel=trim_kernel, merge=lambda *a: 0)',
        )
        fs = lint_paths([pkg], rules=CONTRACT)
        assert [f.rule for f in fs] == ["ARCH002"]
        assert "merge is a lambda" in fs[0].message

    def test_cross_module_kernel_resolved(self, tmp_path):
        pkg = _pkg(
            tmp_path,
            kernels="""
            def trim(dag, part, **params):
                return []
            """,
            wiring="""
            from repro.distributed.stages import register_stage

            from pkg.kernels import trim


            def merge(subject, proposals, **params):
                return 0


            register_stage("trim", trim, merge)
            """,
        )
        fs = lint_paths([pkg], rules=CONTRACT)
        assert [f.rule for f in fs] == ["ARCH002"]
        assert "not named `*_kernel`" in fs[0].message
        assert fs[0].path.endswith("wiring.py")

    def test_unresolvable_callable_skipped(self, tmp_path):
        # dynamically built callables cannot be verified: stay silent
        pkg = self._registration(
            tmp_path,
            'register_stage("trim", make_kernel(), trim_merge)',
            extra="""
            def make_kernel():
                return trim_kernel
            """,
        )
        assert lint_paths([pkg], rules=CONTRACT) == []
