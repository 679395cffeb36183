"""Property test: every overlap execution path equals the scalar oracle.

The batched detector, the multiprocess driver, and the
simulated-cluster driver must return exactly the overlap set of the
per-query reference (``tests/reference/overlap_loop.py``) for any read
set and either reference index.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs
from repro.io.readset import ReadSet
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.sequence.dna import decode
from repro.simulate.genome import random_genome
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


@pytest.mark.parametrize("index", ["kmer", "suffix_array"])
class TestEngineEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(reads=genome_readsets(), n_subsets=st.integers(min_value=1, max_value=3))
    def test_all_paths_identical(self, index, reads, n_subsets):
        base = OverlapConfig(
            min_overlap=25, min_kmer_hits=2, n_subsets=n_subsets, index=index
        )
        detector = OverlapDetector(base)
        vectorized = detector.find_overlaps(reads)
        loop, loop_candidates = find_overlaps_loop(base, reads)
        processes = OverlapDetector(base).find_overlaps_processes(reads, n_workers=2)
        cluster_results, _ = SimCluster(2, cost_model=FAST).run(
            OverlapDetector(base).find_overlaps_parallel, reads
        )
        expected = overlap_keys(loop)
        assert overlap_keys(vectorized) == expected
        assert detector.last_candidates == loop_candidates
        assert overlap_keys(processes) == expected
        assert overlap_keys(cluster_results[0]) == expected

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
                for column in vars(whole):
                    assert np.array_equal(
                        getattr(striped, column), getattr(whole, column)
                    ), column

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
