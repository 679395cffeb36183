"""Property test: every overlap execution path equals the scalar oracle.

The ``overlap`` stage on the serial, simulated-cluster and process
backends must return exactly the rows of the per-query reference
(``tests/reference/overlap_loop.py``), in its order, for any read set
— in RAM or store-backed — and either reference index.
"""

import itertools
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.overlap import PackedOverlaps
from repro.align.overlapper import (
    OverlapConfig,
    OverlapDetector,
    OverlapSubject,
    subset_pairs,
)
from repro.io.readset import ReadSet
from repro.mpi.timing import CommCostModel
from repro.parallel.backend import BACKEND_NAMES, create_backend
from repro.sequence.dna import decode
from repro.simulate.genome import random_genome
from repro.store import pack_reads
from tests.reference.overlap_loop import find_overlaps_loop, overlap_keys

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


@st.composite
def genome_readsets(draw):
    """Read sets of overlapping substrings of one random genome."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    genome_len = draw(st.integers(min_value=150, max_value=400))
    genome = random_genome(genome_len, np.random.default_rng(seed))
    n_reads = draw(st.integers(min_value=0, max_value=14))
    seqs = []
    for _ in range(n_reads):
        length = draw(st.integers(min_value=30, max_value=min(130, genome_len)))
        start = draw(st.integers(min_value=0, max_value=genome_len - length))
        seqs.append(decode(genome[start : start + length]))
    return ReadSet.from_strings(seqs)


def assert_same_columns(got: PackedOverlaps, expected: PackedOverlaps, label=""):
    for column in vars(expected):
        assert np.array_equal(
            getattr(got, column), getattr(expected, column)
        ), (label, column)


@pytest.mark.parametrize("index", ["kmer", "suffix_array"])
class TestEngineEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(reads=genome_readsets(), n_subsets=st.integers(min_value=1, max_value=3))
    def test_all_paths_identical(self, index, reads, n_subsets):
        base = OverlapConfig(
            min_overlap=25, min_kmer_hits=2, n_subsets=n_subsets, index=index
        )
        loop, loop_candidates = find_overlaps_loop(base, reads)
        expected = PackedOverlaps.from_overlaps(loop)
        with tempfile.TemporaryDirectory() as tmp:
            sources = [reads]
            if len(reads):
                pack_reads(iter(reads), f"{tmp}/reads.store", shard_size=3)
                sources.append(ReadSet.open(f"{tmp}/reads.store", cache_budget=1 << 10))
            for name, source in itertools.product(BACKEND_NAMES, sources):
                subject = OverlapSubject(source, base, n_parts=2)
                with create_backend(name, subject, workers=2, cost_model=FAST) as backend:
                    packed, candidates = backend.run_stage("overlap").result
                assert candidates == loop_candidates, name
                assert_same_columns(packed, expected, name)

    @settings(max_examples=5, deadline=None)
    @given(reads=genome_readsets(), n_subsets=st.integers(min_value=1, max_value=2))
    def test_stripe_budget_does_not_change_the_result(self, index, reads, n_subsets):
        # Budget 1 makes every read its own stripe; 60 cuts mid-unit.
        detector = OverlapDetector(
            OverlapConfig(min_overlap=25, min_kmer_hits=2, index=index)
        )
        subsets = reads.split(n_subsets)
        for i, j in subset_pairs(n_subsets):
            unit = (reads, subsets[i], subsets[j], i == j)
            whole, n_whole = detector.overlap_subset_pair_packed(*unit)
            for budget in (1, 60):
                striped, n_striped = detector.overlap_subset_pair_packed(
                    *unit, max_hits=budget
                )
                assert n_striped == n_whole
                assert_same_columns(striped, whole)

    @settings(max_examples=3, deadline=None)
    @given(reads=genome_readsets())
    def test_banded_nw_method_paths_agree(self, index, reads):
        # Gapped verification runs per candidate in production too; the
        # batched span selection feeding it must still agree.
        cfg = OverlapConfig(
            min_overlap=25, min_kmer_hits=2, method="banded_nw", index=index
        )
        vectorized = OverlapDetector(cfg).find_overlaps(reads)
        loop, _ = find_overlaps_loop(cfg, reads)
        assert overlap_keys(vectorized) == overlap_keys(loop)
