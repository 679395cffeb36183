"""Tests for distributed variant detection (the paper's named extension)."""

from dataclasses import astuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.variants import (
    Variant,
    find_bubble_variants,
    variants_kernel,
    variants_merge,
)
from repro.parallel.backend import BACKEND_NAMES, create_backend
from repro.sequence.dna import decode, encode
from repro.simulate.genome import random_genome
from tests.distributed.conftest import (
    FAST,
    chain_assembly,
    dag_of,
    make_assembly,
    run_stage_on_cluster,
)
from tests.reference import variants_loop


def snv_bubble_assembly(n_snvs=2, seed=12):
    """v(0) - {ref(1), alt(2)} - w(3): branches differ by n_snvs SNVs."""
    rng = np.random.default_rng(seed)
    genome = random_genome(320, rng)
    ref_branch = genome[60:200].copy()
    alt_branch = ref_branch.copy()
    positions = np.linspace(20, ref_branch.size - 20, n_snvs).astype(int)
    for p in positions:
        alt_branch[p] = (alt_branch[p] + 1) % 4
    contigs = [genome[0:100], ref_branch, alt_branch, genome[160:280]]
    edges = [(0, 1, 60), (0, 2, 60), (1, 3, 100), (2, 3, 100)]
    return make_assembly(contigs, edges), positions


def indel_bubble_assembly(seed=13):
    rng = np.random.default_rng(seed)
    genome = random_genome(320, rng)
    ref_branch = genome[60:200].copy()
    alt_branch = np.delete(ref_branch, np.arange(70, 75))  # 5bp deletion
    contigs = [genome[0:100], ref_branch, alt_branch, genome[160:280]]
    edges = [(0, 1, 60), (0, 2, 60), (1, 3, 100), (2, 3, 95)]
    return make_assembly(contigs, edges), None


class TestFindBubbleVariants:
    def test_snvs_called_at_right_positions(self):
        asm, positions = snv_bubble_assembly(n_snvs=3)
        dag = dag_of(asm, [0] * 4)
        variants = find_bubble_variants(dag, np.arange(4))
        snvs = [v for v in variants if v.kind == "snv"]
        assert sorted(v.position for v in snvs) == sorted(positions.tolist())
        for v in snvs:
            assert v.ref_allele != v.alt_allele
            assert {v.ref_node, v.alt_node} == {1, 2}

    def test_indel_called(self):
        asm, _ = indel_bubble_assembly()
        dag = dag_of(asm, [0] * 4)
        variants = find_bubble_variants(dag, np.arange(4))
        assert any(v.kind == "indel" for v in variants)
        indel = next(v for v in variants if v.kind == "indel")
        assert indel.ref_node == 1  # longer branch is the reference

    def test_clean_chain_no_variants(self):
        asm, _ = chain_assembly()
        dag = dag_of(asm, [0] * 6)
        assert find_bubble_variants(dag, np.arange(6)) == []

    def test_identical_branches_no_variants(self):
        asm, _ = snv_bubble_assembly(n_snvs=0)
        dag = dag_of(asm, [0] * 4)
        assert find_bubble_variants(dag, np.arange(4)) == []

    def test_too_divergent_bubble_discarded(self):
        # branches of unrelated sequence: a repeat artifact, not alleles
        rng = np.random.default_rng(14)
        genome = random_genome(320, rng)
        contigs = [genome[0:100], genome[60:200], random_genome(140, rng), genome[160:280]]
        asm = make_assembly(contigs, [(0, 1, 60), (0, 2, 60), (1, 3, 100), (2, 3, 100)])
        dag = dag_of(asm, [0] * 4)
        variants = find_bubble_variants(dag, np.arange(4), max_variants_per_bubble=20)
        assert variants == []

    def test_bubble_reported_once(self):
        asm, _ = snv_bubble_assembly(n_snvs=1)
        dag = dag_of(asm, [0] * 4)
        # anchors 0 and 3 both see the bubble, but within one worker's
        # scan the branch pair is deduplicated
        variants = find_bubble_variants(dag, np.array([0, 3]))
        assert len(variants) == 1


class TestDetectVariants:
    def test_distributed_run_merges_and_dedupes(self):
        asm, positions = snv_bubble_assembly(n_snvs=2)
        dag = dag_of(asm, [0, 0, 1, 1])
        results, stats = run_stage_on_cluster("variants", dag, 2)
        assert results[0] == results[1]
        snvs = [v for v in results[0] if v.kind == "snv"]
        assert sorted(v.position for v in snvs) == sorted(positions.tolist())
        assert stats.elapsed > 0

    def test_sorted_output(self):
        asm, _ = snv_bubble_assembly(n_snvs=3)
        dag = dag_of(asm, [0] * 4)
        results, _ = run_stage_on_cluster("variants", dag, 1)
        calls = results[0]
        keys = [(v.ref_node, v.alt_node, v.position) for v in calls]
        assert keys == sorted(keys)

    def test_same_sorted_calls_on_every_backend(self):
        asm, _ = snv_bubble_assembly(n_snvs=3)
        calls = {}
        for name in BACKEND_NAMES:
            dag = dag_of(asm, [0, 0, 1, 1])
            with create_backend(name, dag, workers=2, cost_model=FAST) as backend:
                calls[name] = backend.run_stage("variants", band=8).result
        assert len(calls["serial"]) == 3
        assert calls["sim"] == calls["process"] == calls["serial"]

    def test_variant_record_fields(self):
        v = Variant(0, 1, 2, 10, "snv", "A", "C")
        assert v.ref_allele == "A" and v.alt_allele == "C"


@st.composite
def bubbly_dags(draw):
    """A backbone of contigs with 0-3 allele branches in every gap.

    Backbone contig ``i`` sits at genome offset ``2 * i * STEP``; the
    branches of gap ``i`` are copies of the slice between backbones
    ``i`` and ``i + 1`` with a few SNVs and sometimes a short deletion,
    each linked to both backbones.  Occasional backbone-backbone and
    branch-branch edges, random kill masks and random labels exercise
    the degree-2 test, both anchors of a bubble, and partition edges.
    """
    step, length = 20, 60
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    n_backbone = draw(st.integers(min_value=3, max_value=8))
    genome = random_genome(2 * step * n_backbone + length, rng)
    contigs = [genome[2 * step * i : 2 * step * i + length] for i in range(n_backbone)]
    edges = []
    for i in range(n_backbone - 1):
        if rng.random() < 0.5:
            edges.append((i, i + 1, 2 * step))
        branches = []
        for _ in range(int(rng.integers(0, 4))):
            allele = genome[(2 * i + 1) * step : (2 * i + 1) * step + length].copy()
            snvs = rng.integers(0, length, size=int(rng.integers(0, 4)))
            allele[snvs] = (allele[snvs] + 1) % 4
            if rng.random() < 0.2:
                allele = np.delete(allele, np.arange(50, 50 + int(rng.integers(1, 5))))
            b = len(contigs)
            contigs.append(allele)
            edges += [(i, b, step), (b, i + 1, step)]
            if branches and rng.random() < 0.15:
                edges.append((branches[-1], b, 0))
            branches.append(b)
    n = len(contigs)
    assembly = make_assembly(contigs, edges)
    k = draw(st.sampled_from([1, 2, 3]))
    dag = dag_of(assembly, rng.integers(0, k, size=n))
    dag.node_alive &= rng.random(n) > 0.1
    dag.edge_alive &= rng.random(assembly.graph.n_edges) > 0.1
    return dag


def by_fields(calls):
    return sorted(calls, key=astuple)


class TestAgainstPerNodeScan:
    """The kernel's vectorised bubble grouping finds what the per-node
    scan (``tests/reference/variants_loop.py``) finds."""

    @given(dag=bubbly_dags())
    @settings(max_examples=60, deadline=None)
    def test_kernel_and_stage_equal_the_scan(self, dag):
        got, want = [], []
        for part in range(dag.n_parts):
            got.append(variants_kernel(dag, part))
            want.append(
                variants_loop.find_bubble_variants(dag, dag.partition_nodes(part))
            )
            assert by_fields(got[-1]) == by_fields(want[-1])
        assert variants_merge(dag, got) == variants_merge(dag, want)

