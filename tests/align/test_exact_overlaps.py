"""Property test: on error-free reads the detector finds exactly the
exact overlaps.

The oracle shares nothing with the kernel — no k-mers, no votes, no
index: it slides every read pair past each other and keeps each
diagonal whose whole span (a suffix–prefix or a containment) is equal
and at least ``min_overlap`` long.  That set is the overlap graph of
Dinh & Rajasekaran's exact-match formulation; on reads without errors
from a uniform random genome the detector must emit it, row for row,
every one at identity 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.overlapper import OverlapConfig, OverlapDetector
from repro.io.readset import ReadSet
from repro.sequence.dna import decode
from repro.simulate.genome import random_genome

MIN_OVERLAP = 50


@st.composite
def error_free_reads(draw):
    """Reads of 40–150 bp sampled without errors from one seeded
    uniform random genome of 300–3,000 bp."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    genome = decode(random_genome(draw(st.integers(min_value=300, max_value=3000)), rng))
    seqs = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        length = int(rng.integers(40, 151))
        start = int(rng.integers(0, len(genome) - length + 1))
        seqs.append(genome[start : start + length])
    return seqs


def exact_overlaps(seqs, min_overlap):
    """``{(query, ref, q_start, r_start, length)}`` of every diagonal of
    every read pair ``query < ref`` whose span is one equal string of at
    least ``min_overlap`` bases, by brute-force string comparison."""
    found = set()
    for q, sq in enumerate(seqs):
        for r in range(q + 1, len(seqs)):
            sr = seqs[r]
            for d in range(-len(sr) + 1, len(sq)):
                q_start, r_start = max(d, 0), max(-d, 0)
                length = min(len(sq) - q_start, len(sr) - r_start)
                if (
                    length >= min_overlap
                    and sq[q_start : q_start + length] == sr[r_start : r_start + length]
                ):
                    found.add((q, r, q_start, r_start, length))
    return found


@settings(max_examples=25, deadline=None)
@given(seqs=error_free_reads())
def test_emits_exactly_the_exact_overlaps(seqs):
    packed = OverlapDetector(OverlapConfig(min_overlap=MIN_OVERLAP)).find_overlaps_packed(
        ReadSet.from_strings(seqs)
    )
    rows = zip(
        *(
            getattr(packed, column).tolist()
            for column in ("query", "ref", "q_start", "r_start", "length")
        )
    )
    expected = exact_overlaps(seqs, MIN_OVERLAP)
    assert set(rows) == expected and len(packed) == len(expected)
    assert (packed.identity == 1.0).all()
