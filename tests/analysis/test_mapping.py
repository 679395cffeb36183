"""Tests for the k-mer placement engine (``SequenceMapper``)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mapping import SequenceMapper
from repro.sequence.dna import N, hamming_identity, reverse_complement
from repro.simulate.genome import random_genome

K = 5


def place_by_dict(mapper, query, min_identity, min_votes):
    """``SequenceMapper.place`` spelled with a dict and Python loops:
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
        for ri, ref in enumerate(mapper.references):
            ref_words = words(ref)
            for q, word in words(seq).items():
                votes.update((ri, p - q) for p, w in ref_words.items() if w == word)
        if not votes:
            continue
        top = max(votes.values())
        ri, start = min(key for key, n in votes.items() if n == top)
        ref = mapper.references[ri]
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


class TestSequenceMapper:
    @given(case=mapper_cases(), min_votes=st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_place_matches_dict_vote(self, case, min_votes):
        refs, queries = case
        mapper = SequenceMapper(refs, k=K)
        batched = mapper.place_each(queries, 0.8, min_votes)
        assert len(batched) == len(queries)
        for query, together in zip(queries, batched):
            hit = mapper.place(query, min_identity=0.8, min_votes=min_votes)
            assert hit == together
            expect = place_by_dict(mapper, query, 0.8, min_votes)
            got = hit and (hit.reference, hit.position, hit.strand, hit.identity, hit.votes)
            assert got == expect

    def test_place_each_of_nothing(self):
        mapper = SequenceMapper([random_genome(50, np.random.default_rng(1))])
        assert mapper.place_each([]) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SequenceMapper([], k=5)
        with pytest.raises(ValueError):
            SequenceMapper([np.zeros(9, dtype=np.uint8)], k=0)
