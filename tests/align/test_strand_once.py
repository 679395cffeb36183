"""Property test: aligning each strand pair once gives the doubled set's rows.

A set built with reverse complements is aligned from its forward reads'
canonical k-mers: every pair with a mate is found once and its strand
mirror derived.  The rows must equal — all seven columns, in order —
those of the doubled-set oracle (``tests/reference/doubled_set.py``),
whatever the subset count and the worker count; the candidates are the
oracle's, one per mirror pair and tie-break.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.overlapper import OverlapConfig, OverlapDetector
from repro.io.readset import ReadSet
from repro.sequence.dna import decode, reverse_complement
from tests.reference.doubled_set import as_plain, strand_once_candidates
from tests.reference.overlap_loop import assert_same_columns, find_overlaps_loop


@st.composite
def stranded_reads(draw):
    """Reads of one random genome on either strand, with substitutions
    and ``N``s, and — drawn in or not — a palindromic read (its own
    reverse complement) and a periodic pair with several equally voted
    diagonals."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    genome = rng.integers(0, 4, size=draw(st.integers(min_value=80, max_value=300)))
    reads = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        length = int(rng.integers(20, min(90, genome.size) + 1))
        start = int(rng.integers(0, genome.size - length + 1))
        read = genome[start : start + length].copy()
        wrong = rng.random(length) < draw(st.sampled_from([0.0, 0.03]))
        read[wrong] = (read[wrong] + rng.integers(1, 4, size=int(wrong.sum()))) % 4
        read[rng.random(length) < draw(st.sampled_from([0.0, 0.02]))] = 4
        reads.append(reverse_complement(read) if rng.random() < 0.5 else read)
    if draw(st.booleans()):
        half = genome[: int(rng.integers(8, 30))]
        reads.insert(int(rng.integers(len(reads) + 1)), np.concatenate([half, reverse_complement(half)]))
    if draw(st.booleans()):
        period = np.array([0, 1] * 20, dtype=np.uint8)  # ACAC...: ties
        reads += [period, reverse_complement(period[: int(rng.integers(12, 30))])]
    return ReadSet.from_strings([decode(r) for r in reads])


@settings(max_examples=60, deadline=None)
@given(
    reads=stranded_reads(),
    k=st.sampled_from([4, 5, 8]),
    min_kmer_hits=st.integers(min_value=1, max_value=3),
    min_overlap=st.sampled_from([8, 20]),
    n_subsets=st.integers(min_value=1, max_value=3),
    workers=st.integers(min_value=1, max_value=2),
)
def test_mirrored_detector_equals_the_doubled_set_oracle(
    reads, k, min_kmer_hits, min_overlap, n_subsets, workers
):
    config = OverlapConfig(
        k=k,
        min_kmer_hits=min_kmer_hits,
        min_overlap=min_overlap,
        min_identity=0.8,
        n_subsets=n_subsets,
    )
    both = reads.with_reverse_complements()
    detector = OverlapDetector(config)
    found = detector.find_overlaps(both, workers)
    expected, _ = find_overlaps_loop(config, as_plain(both))
    assert_same_columns(found, expected)
    assert detector.last_candidates == strand_once_candidates(config, both)


def test_a_read_against_its_own_mate_is_one_row():
    # A read that is its own reverse complement equals its mate: one
    # ``equal`` overlap, the self-mirror emitted once.
    half = "ACGGTCATTGCAAGT"
    seq = half + "".join({"A": "T", "C": "G", "G": "C", "T": "A"}[c] for c in reversed(half))
    both = ReadSet.from_strings([seq]).with_reverse_complements()
    config = OverlapConfig(k=5, min_overlap=10)
    detector = OverlapDetector(config)
    found = detector.find_overlaps(both)
    assert list(zip(found.query.tolist(), found.ref.tolist(), found.kind_code.tolist())) == [(0, 1, 0)]
    assert_same_columns(found, find_overlaps_loop(config, as_plain(both))[0])
    assert detector.last_candidates == 1


def test_without_mates_only_same_strand_pairs():
    # A read and its reverse complement as plain reads share no k-mer
    # on one strand: no overlap.  With their mates each equals the
    # other's mate.
    rng = np.random.default_rng(3)
    read = rng.integers(0, 4, size=60).astype(np.uint8)
    plain = ReadSet.from_strings([decode(read), decode(reverse_complement(read))])
    config = OverlapConfig(k=8, min_overlap=20)
    assert len(OverlapDetector(config).find_overlaps(plain)) == 0
    found = OverlapDetector(config).find_overlaps(plain.with_reverse_complements())
    assert list(zip(found.query.tolist(), found.ref.tolist(), found.kind_code.tolist())) == [
        (0, 3, 0),
        (1, 2, 0),
    ]
