"""``deduplicate_contigs`` == the rebuild-per-keep reference, and its
work is linear in the input.

The production function places every contig by one canonical k-mer
self-join over all contigs; ``tests/reference/contigs.py`` keeps the
specification it replaced (a fresh ``SequenceMapper`` over the kept
contigs per candidate, exact string scan first).  Hypothesis drives
both over mirrored contig families, on the packed vote key and on its
``lexsort`` fallback; a counting guard pins the number of k-mer passes
and sorts, so a per-contig lookup cannot come back unnoticed (no wall
clock involved).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import mapping
from repro.core import focus
from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler, deduplicate_contigs
from repro.distributed.traversal import contigs_from_paths
from repro.io.readset import ReadSet
from repro.io.records import Read
from repro.sequence.dna import N, reverse_complement
from repro.simulate.genome import random_genome

from tests.reference import contigs as contigs_ref


def mutated(codes, rate, rng):
    """``codes`` with a ``rate`` share of bases substituted."""
    out = codes.copy()
    hit = np.flatnonzero(rng.random(out.size) < rate)
    out[hit] = (out[hit] + rng.integers(1, 4, hit.size)) % 4
    return out


@st.composite
def contig_families(draw):
    """Shuffled contigs descended from a few founders.

    Each descendant copies a founder *or an earlier descendant*
    (duplicates of duplicates), on either strand, with substitutions
    around the 2 % identity floor, and is then left whole (equal-length
    ties), trimmed raggedly at the ends, cut to an inner window (exact
    or near containment, possibly < 64 bases), or extended past its
    source (an out-of-range placement).  Some carry ``N``; some
    founders are tandem repeats, where many diagonals tie on votes.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    contigs = []
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(30, 400))
        if rng.random() < 0.25:
            unit = random_genome(int(rng.integers(3, 30)), rng)
            founder = np.tile(unit, size // unit.size + 1)[:size]
        else:
            founder = random_genome(size, rng)
        family = [founder]
        for _ in range(int(rng.integers(0, 5))):
            child = family[int(rng.integers(len(family)))]
            if rng.random() < 0.5:
                child = reverse_complement(child)
            child = mutated(child, rng.choice([0.0, 0.0, 0.003, 0.015, 0.025, 0.1]), rng)
            shape = rng.integers(4)
            if shape == 1:
                child = child[int(rng.integers(0, 12)) : child.size - int(rng.integers(0, 12))]
            elif shape == 2:
                lo = int(rng.integers(0, child.size))
                child = child[lo : lo + int(rng.integers(1, 150))]
            elif shape == 3:
                child = np.concatenate([child, random_genome(int(rng.integers(1, 9)), rng)])
            if child.size and rng.random() < 0.2:
                # one or two N, or one every < 21 bases (no valid k-mer:
                # only the string scan can drop such a contig).
                child = child.copy()
                if rng.random() < 0.5:
                    child[rng.integers(0, child.size, size=int(rng.integers(1, 3)))] = N
                else:
                    child[int(rng.integers(0, 15)) :: 15] = N
            if child.size:
                family.append(np.ascontiguousarray(child, dtype=np.uint8))
        contigs.extend(family)
    return [contigs[i] for i in rng.permutation(len(contigs))]


def assert_same_selection(got, expect):
    """The same contig objects, in the same (longest-first) order."""
    assert len(got) == len(expect)
    assert all(a is b for a, b in zip(got, expect))


class TestMatchesReference:
    @given(
        contigs=contig_families(),
        min_identity=st.sampled_from([0.9, 0.98, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_families(self, contigs, min_identity):
        assert_same_selection(
            deduplicate_contigs(contigs, min_identity),
            contigs_ref.deduplicate_contigs(contigs, min_identity),
        )

    def test_empty(self):
        assert deduplicate_contigs([]) == []


class TestPlacementPath:
    """Contigs >= 64 bases are decided by placement alone."""

    @pytest.fixture
    def contig(self):
        return random_genome(300, np.random.default_rng(8))

    def test_near_mirror_dropped(self, contig):
        rng = np.random.default_rng(1)
        mirror = mutated(reverse_complement(contig), 0.01, rng)[5:-7]
        (out,) = deduplicate_contigs([mirror, contig])
        assert out is contig

    def test_distant_mirror_kept(self, contig):
        rng = np.random.default_rng(1)
        mirror = mutated(reverse_complement(contig), 0.05, rng)[5:-7]
        assert len(deduplicate_contigs([mirror, contig])) == 2

    def test_exact_inner_copy_dropped_without_string_scan(self, contig, monkeypatch):
        """An N-free window >= 64 is never decoded for the scan: all its
        k-mers vote for one in-range diagonal at identity 1.0."""
        from repro.core import focus

        decoded = []
        monkeypatch.setattr(
            focus, "decode", lambda c: decoded.append(c.size) or "ACGT"
        )
        window = reverse_complement(contig[40:140])
        (out,) = deduplicate_contigs([window, contig], min_identity=1.0)
        assert out is contig
        assert decoded == [contig.size]  # only the kept contig, for later scans

    def test_overhanging_mirror_kept(self, contig):
        """A placement that runs off the kept contig's end is not a
        containment, whatever its identity."""
        longer = np.concatenate([contig, random_genome(20, np.random.default_rng(2))])
        assert len(deduplicate_contigs([contig[10:], longer[30:]])) == 2

    def test_vote_tie_goes_to_the_longer_kept_contig(self, contig):
        """Reference ids are size ranks, so equal votes on two kept
        contigs resolve to the longer one, as they did when only kept
        contigs were indexed.  The shared window ends ``short``, so the
        candidate (window + 1 stray base) fits only on ``contig``."""
        rng = np.random.default_rng(5)
        window = contig[100:200]
        short = np.concatenate([random_genome(150, rng), window])
        stray = np.array([(contig[200] + 1) % 4], dtype=np.uint8)
        candidate = np.concatenate([window, stray])
        for contigs in ([contig, short, candidate], [candidate, short, contig]):
            out = deduplicate_contigs(contigs)
            assert_same_selection(out, contigs_ref.deduplicate_contigs(contigs))
            assert [c.size for c in out] == [300, 250]

    def test_duplicate_of_dropped_duplicate(self, contig):
        """Dropped contigs never become references: each later copy is
        judged against the kept contig only."""
        rng = np.random.default_rng(3)
        once = mutated(contig, 0.015, rng)[:-1]
        twice = mutated(once, 0.015, rng)[:-1]
        out = deduplicate_contigs([twice, once, contig])
        expect = contigs_ref.deduplicate_contigs([twice, once, contig])
        assert_same_selection(out, expect)
        assert out[0] is contig


class TestVoteKey:
    """The vote key packs into one ``int64`` only when the product of
    its field widths fits; otherwise ``lexsort`` counts the same rows."""

    def test_rows_at_the_63_bit_boundary(self):
        hi, lo = 2**32 - 1, 2**31 - 1
        cols = [np.array([hi, 0, hi], dtype=np.int64), np.array([lo, 5, lo], dtype=np.int64)]
        for widths in ([2**32, 2**31], [2**32, 2**31 + 1]):  # packed, fallback
            rows, counts = focus._count_rows(cols, widths)
            assert [r.tolist() for r in rows] == [[0, hi], [5, lo]]
            assert counts.tolist() == [1, 2]

    @given(contigs=contig_families())
    @settings(max_examples=100, deadline=None)
    def test_fallback_selects_like_the_packed_key(self, contigs):
        packed = deduplicate_contigs(contigs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(focus, "_KEY_BITS", 0)
            assert_same_selection(deduplicate_contigs(contigs), packed)


class TestWorkIsLinear:
    """Counted, not timed: whatever the number of contigs, one k-mer
    pass per strand over all contigs joined, one sort of their
    canonical k-mers (the contigs are their own index), no
    ``SequenceMapper``, and at most one identity check per contig and
    strand."""

    @staticmethod
    def mirrored(n, seed=4):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n // 2):
            c = random_genome(int(rng.integers(80, 200)), rng)
            out += [c, mutated(reverse_complement(c), 0.003, rng)[2:-3]]
        return out

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("kmer_codes", "stable_sort", "hamming_identity"):
            monkeypatch.setattr(focus, name, counting(name, getattr(focus, name)))
        monkeypatch.setattr(
            mapping.SequenceMapper,
            "__init__",
            counting("SequenceMapper", mapping.SequenceMapper.__init__),
        )
        return seen

    @pytest.mark.parametrize("n", [200, 400])
    def test_one_index_two_extraction_passes(self, counts, n):
        kept = deduplicate_contigs(self.mirrored(n))
        assert len(kept) == n // 2
        assert 0 < counts.pop("hamming_identity") <= 2 * n
        assert counts == {"kmer_codes": 2, "stable_sort": 1}


@pytest.mark.slow
def test_real_shotgun_contigs_match_reference():
    """The ~390 contigs a 9,607-read, 120 kb shotgun assembly emits
    before dedupe (both strands of every region) select as the
    rebuild-per-keep reference does."""
    rng = np.random.default_rng(101)
    genome = random_genome(120_090, rng)
    starts = rng.integers(0, genome.size - 100 + 1, size=9_607)
    strands = rng.integers(0, 2, size=starts.size)
    frags = genome[starts[:, None] + np.arange(100)[None, :]]
    hit = rng.random(frags.shape) < 0.005
    frags[hit] = (frags[hit] + rng.integers(1, 4, size=int(hit.sum()))) % 4
    reads = ReadSet(
        Read(f"s{i}", reverse_complement(f) if strand else f)
        for i, (f, strand) in enumerate(zip(frags, strands))
    )
    result = FocusAssembler(AssemblyConfig(backend="serial", n_partitions=4)).assemble(reads)
    contigs = contigs_from_paths(result.dag, result.paths)
    assert len(contigs) > 300
    got = deduplicate_contigs(contigs)
    assert_same_selection(got, contigs_ref.deduplicate_contigs(contigs))
    assert len(got) < len(contigs) * 0.6
