"""Tests for the k-mer placement (``place_each``).

The dict oracle below is the specification; the production join (one
canonical sort of references and queries together) and the reference
placement of ``tests/reference/placement.py`` (a sorted index over the
references, each query strand looked up separately) must both equal it.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import mapping
from repro.analysis.mapping import place_each
from repro.sequence.dna import N, encode, hamming_identity, reverse_complement
from repro.simulate.genome import random_genome

from tests.reference import placement as placement_ref

K = 5


def place_by_dict(references, query, min_identity, min_votes):
    """One query's ``place_each`` spelled with a dict and Python loops:
    one vote per (query k-mer, equal reference k-mer), smallest (reference, diagonal) among the most voted,
    verified in range; the better strand wins, '+' on a tie."""

    def words(codes):
        return {
            i: bytes(codes[i : i + K])
            for i in range(codes.size - K + 1)
            if N not in codes[i : i + K]
        }

    best = None
    for strand, seq in (("+", query), ("-", reverse_complement(query))):
        votes = Counter()
        for ri, ref in enumerate(references):
            ref_words = words(ref)
            for q, word in words(seq).items():
                votes.update((ri, p - q) for p, w in ref_words.items() if w == word)
        if not votes:
            continue
        top = max(votes.values())
        ri, start = min(key for key, n in votes.items() if n == top)
        ref = references[ri]
        if top < min_votes or start < 0 or start + seq.size > ref.size:
            continue
        identity = hamming_identity(seq, ref[start : start + seq.size])
        if identity >= min_identity and (best is None or identity > best[3]):
            best = (ri, start, strand, identity, top)
    return best


@st.composite
def mapper_cases(draw):
    """A few short references (some repetitive, some with N) and queries cut from them on either strand with substitutions."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    refs = []
    for _ in range(int(rng.integers(1, 5))):
        ref = random_genome(int(rng.integers(3, 80)), rng)
        if rng.random() < 0.3:
            ref = np.tile(ref[:7], 12)[: ref.size]
        if rng.random() < 0.3:
            ref[rng.integers(0, ref.size)] = N
        refs.append(ref)
    queries = []
    for _ in range(int(rng.integers(1, 6))):
        src = refs[int(rng.integers(len(refs)))]
        lo = int(rng.integers(0, src.size))
        q = src[lo : lo + int(rng.integers(1, 40))].copy()
        flip = rng.random(q.size) < 0.05
        q[flip] = (q[flip] + 1) % 4
        if rng.random() < 0.3:
            q = np.concatenate([q, random_genome(int(rng.integers(1, 6)), rng)])
        queries.append(reverse_complement(q) if rng.random() < 0.5 else q)
    return refs, queries


class TestPlaceEach:
    @given(case=mapper_cases(), min_votes=st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_place_matches_dict_vote(self, case, min_votes):
        refs, queries = case
        got = place_each(queries, refs, K, 0.8, min_votes)
        assert got == placement_ref.place_each(queries, refs, K, 0.8, min_votes)
        for query, hit in zip(queries, got):
            placed = hit and (hit.reference, hit.position, hit.strand, hit.identity, hit.votes)
            assert placed == place_by_dict(refs, query, 0.8, min_votes)

    def test_place_each_of_nothing(self):
        assert place_each([], [random_genome(50, np.random.default_rng(1))]) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            place_each([], [], k=5)
        with pytest.raises(ValueError):
            place_each([], [np.zeros(9, dtype=np.uint8)], k=0)

    @pytest.mark.parametrize("k", [4, 20])
    def test_refuses_an_even_k(self, k):
        """At even ``k`` a window can be its own reverse complement
        (``ACGT``), which the canonical join counts on one strand only;
        an odd ``k`` has no such window."""
        ref = encode("GGACGTCC" * 4)
        with pytest.raises(ValueError, match="odd k"):
            place_each([ref[:12]], [ref], k=k)


class TestWorkIsOneJoin:
    """Counted, not timed: however many queries, one k-mer pass per
    strand over references and queries joined, and one sort."""

    def test_one_extraction_per_strand_and_one_sort(self, monkeypatch):
        seen = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("kmer_codes", "stable_sort"):
            monkeypatch.setattr(mapping, name, counting(name, getattr(mapping, name)))
        rng = np.random.default_rng(6)
        genome = random_genome(3_000, rng)
        starts = rng.integers(0, genome.size - 80, size=60)
        reads = [genome[s : s + 80] for s in starts.tolist()]
        reads[::2] = [reverse_complement(r) for r in reads[::2]]
        hits = place_each(reads, [genome], k=21)
        assert [h.position for h in hits] == starts.tolist()
        assert [h.strand for h in hits] == ["-", "+"] * 30
        assert seen == {"kmer_codes": 2, "stable_sort": 1}
