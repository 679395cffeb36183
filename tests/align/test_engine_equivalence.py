"""Property test: every overlap execution path equals the scalar oracle.

The ``overlap`` stage on the serial, simulated-cluster and process
backends must return exactly the rows of the per-query reference
(``tests/reference/overlap_loop.py``), in its order, for any read set
— in RAM or store-backed.  The same kernel is also run, unit by unit,
on the suffix-array reference index (``tests/reference/sa_index.py``),
which hands it every hit where the production index hands out
left-maximal ones; that both seed sets reproduce the oracle, under any
stripe and compare budget, is the seed-set invariance the kernel rests
on.
"""

import itertools
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import overlapper
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
from tests.align.test_overlapper import (
    INDEXES,
    find_overlaps_on,
    oracle_votes,
    recorded_votes,
)
from tests.reference.doubled_set import as_plain, strand_once_candidates
from tests.reference.overlap_loop import (
    assert_same_columns,
    find_overlaps_loop,
    overlap_subset_pair_loop,
)

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


@st.composite
def adversarial_units(draw):
    """``(reads, config)`` built to break a seed-and-compare kernel:
    substitution errors and ``N``s (also right before a shared k-mer), a
    2-letter low-complexity genome (several strong diagonals on one read
    pair, so the tie rule decides), duplicated reads, reads shorter
    than k, k from 4 up to the widest that packs."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    k = draw(st.sampled_from([4, 8, 16, 31]))
    letters = draw(st.sampled_from([4, 4, 2]))
    error_rate = draw(st.sampled_from([0.0, 0.02, 0.08]))
    n_rate = draw(st.sampled_from([0.0, 0.02]))
    genome = rng.integers(0, letters, size=draw(st.integers(min_value=60, max_value=240)))
    seqs = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        length = int(rng.integers(1, min(100, genome.size) + 1))
        start = int(rng.integers(0, genome.size - length + 1))
        read = genome[start : start + length].copy()
        wrong = rng.random(length) < error_rate
        read[wrong] = (read[wrong] + rng.integers(1, 4, size=int(wrong.sum()))) % 4
        read[rng.random(length) < n_rate] = 4
        seqs.append(decode(read))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if seqs else 0):
        seqs.insert(int(rng.integers(len(seqs) + 1)), seqs[int(rng.integers(len(seqs)))])
    config = OverlapConfig(
        k=k,
        min_kmer_hits=draw(st.integers(min_value=1, max_value=3)),
        min_overlap=draw(st.integers(min_value=1, max_value=40)),
        min_identity=draw(st.sampled_from([0.0, 0.8, 0.95])),
    )
    return ReadSet.from_strings(seqs), config


def string_matches(reads, triples):
    """``{(query, ref, diagonal): equal positions}`` of each triple's
    span, by comparing the strings (``N`` facing ``N`` is equal)."""
    counted = {}
    for q, r, d in triples:
        sq, sr = reads.sequence_of(q), reads.sequence_of(r)
        a, b = sq[max(d, 0) :], sr[max(-d, 0) :]
        counted[q, r, d] = sum(x == y for x, y in zip(a, b))
    return counted


def run_path(path, config, reads):
    """``(overlap columns, candidates)`` on the named backend — or, for
    the reference index, which no backend builds, from the per-unit
    kernel calls."""
    if path not in BACKEND_NAMES:
        return find_overlaps_on(path, config, reads)
    subject = OverlapSubject(reads, config, n_parts=2)
    with create_backend(path, subject, workers=2, cost_model=FAST) as backend:
        return backend.run_stage("overlap").result


@pytest.mark.parametrize("index", list(INDEXES))
class TestEngineEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(reads=genome_readsets(), n_subsets=st.integers(min_value=1, max_value=3))
    def test_all_paths_identical(self, index, reads, n_subsets):
        base = OverlapConfig(min_overlap=25, min_kmer_hits=2, n_subsets=n_subsets)
        expected, loop_candidates = find_overlaps_loop(base, reads)
        with tempfile.TemporaryDirectory() as tmp:
            sources = [reads]
            if len(reads):
                pack_reads(iter(reads), f"{tmp}/reads.store", shard_size=3)
                sources.append(ReadSet.open(f"{tmp}/reads.store", cache_budget=1 << 10))
            paths = BACKEND_NAMES if index == "kmer" else [index]
            for name, source in itertools.product(paths, sources):
                packed, candidates = run_path(name, base, source)
                assert candidates == loop_candidates, name
                assert_same_columns(packed, expected, name)

    @settings(max_examples=15, deadline=None)
    @given(reads=genome_readsets(), n_subsets=st.integers(min_value=1, max_value=2))
    def test_stripe_budget_does_not_change_the_result(self, index, reads, n_subsets):
        # Budget 1 makes every read its own stripe; 60 cuts mid-unit.
        detector = OverlapDetector(OverlapConfig(min_overlap=25, min_kmer_hits=2))
        subsets = reads.split(n_subsets)
        for i, j in subset_pairs(n_subsets):
            unit = (reads, subsets[i], subsets[j], i == j)
            seeds = INDEXES[index](reads, detector.config.k, subsets[j])
            whole, n_whole = detector.overlap_subset_pair_packed(*unit, index=seeds)
            for budget in (1, 60):
                striped, n_striped = detector.overlap_subset_pair_packed(
                    *unit, index=seeds, max_hits=budget
                )
                assert n_striped == n_whole
                assert_same_columns(striped, whole)

    @settings(max_examples=40, deadline=None)
    @given(
        unit=adversarial_units(),
        n_subsets=st.integers(min_value=1, max_value=3),
        max_hits=st.sampled_from([1, 40, overlapper._MAX_HITS]),
        max_cells=st.sampled_from([1, 300, overlapper._MAX_CELLS]),
    )
    def test_kernel_equals_oracle_on_adversarial_units(
        self, index, unit, n_subsets, max_hits, max_cells
    ):
        # Rows and order, candidates, and the votes and matches of every
        # diagonal that shares a k-mer — whichever seeds named it,
        # however the stripes and the compare blocks are cut.
        reads, config = unit
        detector = OverlapDetector(config)
        subsets = reads.split(n_subsets)
        for i, j in subset_pairs(n_subsets):
            work = (reads, subsets[i], subsets[j], i == j)
            loop, loop_candidates = overlap_subset_pair_loop(config, *work)
            with recorded_votes() as seen, mock.patch.object(
                overlapper, "_MAX_CELLS", max_cells
            ):
                packed, candidates = detector.overlap_subset_pair_packed(
                    *work, index=INDEXES[index](reads, config.k, subsets[j]), max_hits=max_hits
                )
            assert candidates == loop_candidates
            assert_same_columns(packed, loop)
            assert {t: v for t, (v, _) in seen.items()} == oracle_votes(config, *work)
            assert {t: m for t, (_, m) in seen.items()} == string_matches(reads, seen)


@pytest.mark.slow
@pytest.mark.parametrize("n_subsets", [1, 3])
def test_d1_sample_both_indexes_equal_the_oracle(n_subsets):
    """1,500 reads of D1 as ``prepare()`` aligns them (trimmed, with
    reverse complements): match-end seeds, all-hit seeds and the
    hit-counting oracle on the doubled set give the same rows in the
    same order."""
    from repro.bench.datasets import standard_datasets
    from repro.core.config import AssemblyConfig
    from repro.core.focus import FocusAssembler

    dataset = next(d for d in standard_datasets() if d.name == "D1")
    sample = ReadSet(list(dataset.reads)[:750])
    reads = FocusAssembler(AssemblyConfig()).preprocess(sample)
    assert len(reads) == 1500 and reads.mirrored
    config = OverlapConfig(n_subsets=n_subsets)
    expected, _ = find_overlaps_loop(config, as_plain(reads))
    assert len(expected) > 5000
    for index in INDEXES:
        packed, candidates = find_overlaps_on(index, config, reads)
        assert_same_columns(packed, expected, index)
        assert candidates == strand_once_candidates(config, reads)
