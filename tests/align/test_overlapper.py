"""Unit + integration tests for the overlap detector."""

import contextlib
import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.align import overlapper
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import KIND_NAMES, PackedOverlaps
from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs
from repro.io.readset import ReadSet
from repro.sequence.dna import decode
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from tests.reference.overlap_loop import (
    assert_same_columns,
    find_overlaps_loop,
    overlap_keys,
    overlap_subset_pair_loop,
    vote_groups,
)
from tests.align.test_kmer_index import string_windows
from tests.reference.sa_index import SuffixArrayReadIndex

#: what the kernel takes its seeds from in these tests: the production
#: index (left-maximal hits) and the all-hits reference index.
INDEXES = {"kmer": KmerIndex, "suffix_array": SuffixArrayReadIndex}


def find_overlaps_on(index, cfg, reads):
    """``(overlap columns, candidates)`` of a read set on the public
    path, every work unit taking its seeds from the named index."""
    detector = OverlapDetector(cfg)
    with mock.patch.object(overlapper, "KmerIndex", INDEXES[index]):
        return detector.find_overlaps(reads), detector.last_candidates


def pairs(overlaps):
    """The ``(query, ref)`` of every row."""
    return set(zip(overlaps.query.tolist(), overlaps.ref.tolist()))


def tiled_reads(genome_len=600, read_len=100, stride=40, seed=0):
    """Error-free reads tiled across a random genome at fixed stride."""
    g = random_genome(genome_len, np.random.default_rng(seed))
    seqs = [decode(g[s : s + read_len]) for s in range(0, genome_len - read_len + 1, stride)]
    return ReadSet.from_strings(seqs), g


@contextlib.contextmanager
def recorded_votes():
    """``{(query, ref, diagonal): (votes, matches)}`` of every span the
    kernel compares while the context is open; a triple compared twice
    is an error (the kernel dedupes its seeds)."""
    seen = {}
    real = OverlapDetector._diagonal_votes

    def spy(detector, reads, cand_q, cand_r, q_start, r_start, length):
        votes, matches = real(detector, reads, cand_q, cand_r, q_start, r_start, length)
        triples = zip(cand_q.tolist(), cand_r.tolist(), (q_start - r_start).tolist())
        for triple, *counted in zip(triples, votes.tolist(), matches.tolist()):
            assert triple not in seen, triple
            seen[triple] = tuple(counted)
        return votes, matches

    with mock.patch.object(OverlapDetector, "_diagonal_votes", spy):
        yield seen


def oracle_votes(cfg, reads, query_indices, ref_indices, same_subset):
    """``{(query, ref, diagonal): votes}`` by counting k-mer hits."""
    index = KmerIndex(reads, cfg.k, ref_indices)
    votes = {}
    for q in np.asarray(query_indices).tolist():
        groups = vote_groups(cfg, reads, q, index, same_subset)
        for r, d, n in zip(*(column.tolist() for column in groups)):
            votes[q, r, d] = n
    return votes


class TestSubsetPairs:
    def test_counts(self):
        assert subset_pairs(1) == [(0, 0)]
        assert len(subset_pairs(4)) == 10  # 4 choose 2 + 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            subset_pairs(0)


class TestOverlapConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(k=0),
            dict(min_kmer_hits=0),
            dict(min_overlap=0),
            dict(min_identity=1.2),
            dict(n_subsets=0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            OverlapConfig(**kw)


class TestOverlapDetection:
    def test_adjacent_reads_overlap(self):
        reads, _ = tiled_reads()
        det = OverlapDetector(OverlapConfig(min_overlap=50, min_kmer_hits=3))
        found = pairs(det.find_overlaps(reads))
        # stride 40, read 100 -> neighbours overlap by 60, next-neighbours by 20 (<50)
        n = len(reads)
        for i in range(n - 1):
            assert (i, i + 1) in found, f"missing adjacent overlap {i},{i+1}"
        for i in range(n - 2):
            assert (i, i + 2) not in found

    def test_overlap_lengths_exact(self):
        reads, _ = tiled_reads()
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        overlaps = det.find_overlaps(reads)
        assert len(overlaps) and (overlaps.length == 60).all()
        assert (overlaps.identity == 1.0).all()
        # later reads start further right
        assert (overlaps.kind_code == KIND_NAMES.index("query_left")).all()

    def test_no_duplicate_pairs(self):
        reads, _ = tiled_reads()
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        overlaps = det.find_overlaps(reads)
        keys = list(zip(overlaps.query.tolist(), overlaps.ref.tolist()))
        assert len(keys) == len(set(keys))
        assert all(q < r for q, r in keys)  # single subset -> ordered pairs

    def test_subsets_find_same_overlaps(self):
        reads, _ = tiled_reads(genome_len=800)
        base = OverlapDetector(OverlapConfig(min_overlap=50)).find_overlaps(reads)
        split = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=3)).find_overlaps(reads)
        as_set = lambda ovs: set(
            zip(
                np.minimum(ovs.query, ovs.ref).tolist(),
                np.maximum(ovs.query, ovs.ref).tolist(),
                ovs.length.tolist(),
            )
        )
        assert as_set(base) == as_set(split)

    def test_containment_detected(self):
        reads, g = tiled_reads()
        inner = decode(g[10:80])  # contained in read 0 (0..100)
        reads2 = ReadSet.from_strings([reads.sequence_of(i) for i in range(len(reads))] + [inner])
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        overlaps = det.find_overlaps(reads2)
        contained = overlaps.kind_code == KIND_NAMES.index("ref_contained")
        rows = zip(overlaps.query[contained].tolist(), overlaps.ref[contained].tolist())
        assert (0, len(reads2) - 1) in set(rows)  # the inner read, as the reference

    def test_identity_threshold_enforced(self):
        reads, _ = tiled_reads()
        seqs = [reads.sequence_of(i) for i in range(2)]
        # corrupt 20% of the second read's overlap region
        s1 = list(seqs[1])
        for i in range(0, 60, 5):
            s1[i] = "A" if s1[i] != "A" else "C"
        noisy = ReadSet.from_strings([seqs[0], "".join(s1)])
        det = OverlapDetector(OverlapConfig(min_overlap=50, min_identity=0.95, min_kmer_hits=1))
        assert len(det.find_overlaps(noisy)) == 0

    def test_simulated_reads_with_errors(self):
        g = Genome("g", random_genome(3000, np.random.default_rng(1)))
        sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=8, seed=1))
        reads = sim.simulate_genome(g)
        det = OverlapDetector(OverlapConfig(min_overlap=50, min_identity=0.9))
        overlaps = det.find_overlaps(reads)
        # At 8x coverage nearly every read overlaps several others.
        assert len(overlaps) > len(reads)
        # Verify detected overlaps against ground-truth positions (same-strand pairs).
        checked = 0
        rows = zip(
            overlaps.query[:200].tolist(),
            overlaps.ref[:200].tolist(),
            (overlaps.q_start - overlaps.r_start)[:200].tolist(),
        )
        for query, ref, diagonal in rows:
            mq, mr = reads.meta[query], reads.meta[ref]
            if mq["strand"] == "+" and mr["strand"] == "+":
                assert diagonal == mr["position"] - mq["position"]
                checked += 1
        assert checked > 0

    def test_empty_readset(self):
        det = OverlapDetector()
        assert len(det.find_overlaps(ReadSet.from_strings([]))) == 0

    def test_no_overlap_between_unrelated(self):
        rng = np.random.default_rng
        a = decode(random_genome(100, rng(1)))
        b = decode(random_genome(100, rng(2)))
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        assert len(det.find_overlaps(ReadSet.from_strings([a, b]))) == 0


class TestOneOutput:
    """``find_overlaps`` returns the columns ``prepare()`` builds G0 from."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_prepare_builds_g0_from_the_same_columns(self, monkeypatch, workers):
        from repro.core.config import AssemblyConfig
        from repro.core.focus import FocusAssembler
        from repro.graph.overlap_graph import OverlapGraph

        g = Genome("g", random_genome(2000, np.random.default_rng(5)))
        reads = ReadSimulator(ReadSimConfig(read_length=100, coverage=6, seed=5)).simulate_genome(g)
        config = AssemblyConfig(overlap=OverlapConfig(n_subsets=3), overlap_workers=workers)
        passed = []
        real = OverlapGraph.from_overlaps
        monkeypatch.setattr(
            OverlapGraph,
            "from_overlaps",
            classmethod(lambda cls, overlaps, n: passed.append(overlaps) or real(overlaps, n)),
        )
        assembler = FocusAssembler(config)
        assembler.prepare(reads)
        rs = assembler.preprocess(reads)
        detector = OverlapDetector(config.overlap)
        if workers:
            found = detector.find_overlaps_processes(rs, workers)
        else:
            found = detector.find_overlaps(rs)
        assert isinstance(found, PackedOverlaps) and len(found) > len(rs)
        assert len(passed) == 1
        assert_same_columns(found, passed[0])


class TestStripedLoopEdgeCases:
    """Inputs the sorted self-join and the stripe cut must not trip on;
    each is held to the scalar oracle."""

    CFG = OverlapConfig(k=8, min_overlap=20, min_kmer_hits=2)

    def assert_matches_oracle(self, reads, cfg=CFG):
        detector = OverlapDetector(cfg)
        found = detector.find_overlaps(reads)
        expect, n_candidates = find_overlaps_loop(cfg, reads)
        assert_same_columns(found, expect)
        assert detector.last_candidates == n_candidates
        return found

    @pytest.mark.parametrize("index", ["kmer", "suffix_array"])
    @pytest.mark.parametrize(
        "seqs", [["ACGTAC", "ACGTACG", "CGTA"], ["N" * 40, "N" * 33], ["ACGT"]]
    )
    def test_no_valid_kmer_window(self, seqs, index):
        packed, n_candidates = find_overlaps_on(
            index, OverlapConfig(k=8, min_overlap=3), ReadSet.from_strings(seqs)
        )
        assert len(packed) == 0 and n_candidates == 0

    def test_one_read_over_the_budget_is_its_own_stripe(self):
        # Read 0 is a tandem repeat: each of its windows hits every
        # period of reads 1 and 2, far more rows than the budget.
        unit = "ACGGTCATTGCA"
        reads = ReadSet.from_strings([unit * 9, unit * 7, unit * 8 + "TTTT"])
        detector = OverlapDetector(self.CFG)
        everything = np.arange(3)
        whole, n_whole = detector.overlap_subset_pair_packed(
            reads, everything, everything, True
        )
        tight, n_tight = detector.overlap_subset_pair_packed(
            reads, everything, everything, True, max_hits=5
        )
        assert len(whole) == 3 and n_tight == n_whole == 3
        assert_same_columns(tight, whole)
        self.assert_matches_oracle(reads)

    def test_duplicate_reads_are_equal_overlaps(self):
        reads, _ = tiled_reads(genome_len=300)
        seqs = [reads.sequence_of(i) for i in range(len(reads))]
        found = self.assert_matches_oracle(ReadSet.from_strings(seqs + seqs[:2]))
        n = len(seqs)
        equal = found.kind_code == KIND_NAMES.index("equal")
        assert set(zip(found.query[equal].tolist(), found.ref[equal].tolist())) == {
            (0, n),
            (1, n + 1),
        }

    def test_reads_with_n(self):
        g = decode(random_genome(260, np.random.default_rng(3)))
        seqs = [g[0:100], g[40:70] + "N" + g[71:140], g[80:180], "N" * 50, g[120:220]]
        found = self.assert_matches_oracle(ReadSet.from_strings(seqs))
        assert pairs(found) >= {(0, 1), (1, 2), (2, 4)}

    def test_kmer_repeated_inside_one_read(self):
        # The repeat gives every read hits on itself (ref == query rows
        # of the self-join), which must vote for nothing.
        g = decode(random_genome(200, np.random.default_rng(4)))
        repeat = "ACCGTTGACTGA" * 3
        seqs = [g[0:60] + repeat + g[60:90], g[30:60] + repeat + g[60:130], repeat]
        found = self.assert_matches_oracle(ReadSet.from_strings(seqs))
        assert (found.query < found.ref).all()
        assert {(0, 1), (0, 2), (1, 2)} <= pairs(found)

    @pytest.mark.parametrize("index", ["kmer", "suffix_array"])
    def test_non_ascending_query_indices(self, index):
        reads, _ = tiled_reads(genome_len=500)
        cfg = OverlapConfig(min_overlap=50)
        order = np.random.default_rng(6).permutation(len(reads))
        expect = overlap_keys(OverlapDetector(cfg).find_overlaps(reads))
        assert expect
        for same_subset in (True, False):
            found, _ = OverlapDetector(cfg).overlap_subset_pair_packed(
                reads, order, order, same_subset, index=INDEXES[index](reads, cfg.k, order)
            )
            oracle, _ = overlap_subset_pair_loop(cfg, reads, order, order, same_subset)
            assert overlap_keys(found) == overlap_keys(oracle)
            if same_subset:
                assert overlap_keys(found) == expect


def brute_force_votes(seqs, k):
    """``{(query, ref, diagonal): (votes, matches)}`` of every diagonal
    of every read pair ``query < ref`` that shares an ``N``-free k-mer,
    by comparing the strings — no index, no k-mer packing."""
    counted = {}
    for (q, sq), (r, sr) in itertools.combinations(enumerate(seqs), 2):
        for d in range(-len(sr) + 1, len(sq)):
            q_start, r_start = max(d, 0), max(-d, 0)
            length = min(len(sq) - q_start, len(sr) - r_start)
            a, b = sq[q_start : q_start + length], sr[r_start : r_start + length]
            votes = sum(
                a[w : w + k] == b[w : w + k] and "N" not in a[w : w + k]
                for w in range(length - k + 1)
            )
            if votes:
                counted[q, r, d] = (votes, sum(x == y for x, y in zip(a, b)))
    return counted


class TestSeedsAndVotes:
    """The kernel compares exactly the diagonals that share a k-mer —
    whatever seed set names them — and the votes it reads off the bases
    are the hit counts."""

    K = 6

    def check(self, seqs, min_kmer_hits=3, expect_candidates=None):
        reads = ReadSet.from_strings(seqs)
        expected = brute_force_votes(seqs, self.K)
        everything = np.arange(len(reads))
        cfg = OverlapConfig(k=self.K, min_overlap=8, min_kmer_hits=min_kmer_hits)
        counted = oracle_votes(cfg, reads, everything, everything, True)
        assert counted == {t: v for t, (v, _) in expected.items()}
        oracle, n_candidates = find_overlaps_loop(cfg, reads)
        if expect_candidates is not None:
            assert n_candidates == expect_candidates
        for index in INDEXES:
            with recorded_votes() as seen:
                found, candidates = find_overlaps_on(index, cfg, reads)
            assert seen == expected, index
            assert_same_columns(found, oracle, index)
            assert candidates == n_candidates
        return expected

    def test_weak_diagonal_is_compared_but_is_no_candidate(self):
        g = decode(random_genome(120, np.random.default_rng(12)))
        # 7 shared bases = 2 windows of 6; 6 shared bases = 1.
        seqs = [g[0:40] + g[100:107], g[100:107] + g[50:90], g[60:66] + "TTTTTTTT"]
        votes = self.check(seqs, min_kmer_hits=3, expect_candidates=0)
        assert votes[0, 1, 40][0] == 2 and votes[1, 2, 17][0] == 1
        assert max(v for v, _ in votes.values()) == 2
        self.check(seqs, min_kmer_hits=2, expect_candidates=1)

    def test_n_inside_and_directly_before_a_seed(self):
        g = decode(random_genome(90, np.random.default_rng(13)))
        inside = g[10:30] + "N" + g[31:60]
        before = "N" + g[21:70]
        votes = self.check([g[0:60], inside, before, g[20:80]])
        # the N splits read 1's 50-base diagonal into runs of 20 and 29.
        assert votes[0, 1, 10] == ((20 - 5) + (29 - 5), 49)
        # both carry an N on this diagonal, at different places.
        assert votes[1, 2, 10][1] == 38
        assert votes[0, 2, 20] == (39 - 5, 39)

    def test_n_facing_n_matches_but_does_not_vote(self):
        g = decode(random_genome(60, np.random.default_rng(14)))
        read = g[0:25] + "N" + g[26:50]
        votes = self.check([read, read])
        assert votes[0, 1, 0] == ((25 - 5) + (24 - 5), 50)

    def test_error_directly_before_a_seed(self):
        g = decode(random_genome(80, np.random.default_rng(15)))
        wrong = "A" if g[29] != "A" else "C"
        seqs = [g[0:70], g[10:29] + wrong + g[30:80]]
        votes = self.check(seqs)
        assert votes[0, 1, 10] == ((19 - 5) + (40 - 5), 59)

    def test_kmer_repeated_inside_one_read(self):
        g = decode(random_genome(60, np.random.default_rng(16)))
        repeat = "ACCGTTGACTGA"
        votes = self.check([g[0:20] + repeat * 3 + g[20:30], repeat * 2 + g[20:45], repeat])
        # the repeat puts several strong diagonals on one read pair.
        assert len({d for q, r, d in votes if (q, r) == (0, 1) and votes[q, r, d][0] >= 3}) >= 3

    def test_prefix_read_has_one_left_maximal_window(self):
        # Seeds are both ends of a match, on either strand: the prefix's
        # 35 shared windows pair up at its first and last (nothing in
        # front of both, nothing behind read 1's) and at the one
        # palindrome, which pairs with its whole run.
        g = decode(random_genome(70, np.random.default_rng(18)))  # no 6-mer twice
        reads = ReadSet.from_strings([g, g[:40]])
        win_reads, win_offsets, win_strands, lo, counts, row_reads, _, _ = KmerIndex(
            reads, self.K
        ).self_join()
        across = sorted(
            (q, o)
            for q, o, a, n in zip(win_reads.tolist(), win_offsets.tolist(), lo, counts)
            if 1 - q in row_reads[a : a + n].tolist()
        )
        assert across == [(0, 0), (0, 21), (0, 34), (1, 0), (1, 21), (1, 34)]
        assert win_strands[win_offsets == 21].tolist() == [2, 2]
        votes = self.check([g, g[:40]])
        assert votes == {(0, 1, 0): (35, 40)}

    def test_two_letter_genome_ties_go_to_the_larger_diagonal(self):
        period = "AC" * 20
        votes = self.check([period, period[:30]], min_kmer_hits=1, expect_candidates=1)
        best = max(v for v, _ in votes.values())
        tied = sorted(d for (_, _, d), (v, _) in votes.items() if v == best)
        assert len(tied) > 1
        found = OverlapDetector(
            OverlapConfig(k=self.K, min_overlap=8, min_kmer_hits=1)
        ).find_overlaps(ReadSet.from_strings([period, period[:30]]))
        assert (found.q_start - found.r_start).tolist() == [tied[-1]]

    @pytest.mark.parametrize("k", [30, 31])
    def test_widest_kmers(self, k):
        # k = 31 leaves no room for the class digit in the sort key
        # (the index orders by lexsort there); k = 30 is the last that
        # packs it, and neither leaves room for the row number.
        g = decode(random_genome(200, np.random.default_rng(19)))
        seqs = [g[0:90], g[30:120] + "N", "N" + g[60:150], g[60:150], g[100:131], g[5:30]]
        reads = ReadSet.from_strings(seqs)
        cfg = OverlapConfig(k=k, min_overlap=31, min_kmer_hits=1)
        detector = OverlapDetector(cfg)
        with recorded_votes() as seen:
            found = detector.find_overlaps(reads)
        assert seen == brute_force_votes(seqs, k)
        oracle, n_candidates = find_overlaps_loop(cfg, reads)
        assert_same_columns(found, oracle)
        assert len(found) >= 5
        assert detector.last_candidates == n_candidates


class TestWorkIsBounded:
    """Counted, not timed: a subset against its own k-mer index is a
    sorted self-join that expands left-maximal seeds only (no lookup),
    no stripe expands more seed rows than its budget allows, and no
    compare block lays out more tile cells than its own (unless it is
    one row)."""

    @staticmethod
    def shotgun(n=400, genome_len=5000, read_len=100, seed=8, error_rate=0.0):
        rng = np.random.default_rng(seed)
        g = random_genome(genome_len, rng)
        starts = rng.integers(0, genome_len - read_len + 1, size=n)
        frags = g[starts[:, None] + np.arange(read_len)[None, :]]
        hit = rng.random(frags.shape) < error_rate
        frags[hit] = (frags[hit] + rng.integers(1, 4, size=int(hit.sum()))) % 4
        return ReadSet.from_strings([decode(f) for f in frags])

    @staticmethod
    def seed_rows(reads, k):
        """(rows a self-join must expand, all unordered k-mer hits),
        derived from the strings: per canonical k-mer, a window pairs
        with every other window whose flank class differs from its own
        — or with all of them, itself included, when it lacks a flank."""
        runs, hits = {}, Counter()
        for (x, o), (kmer, _, flanks) in string_windows(reads, k, range(len(reads))).items():
            runs.setdefault(kmer, Counter())[flanks] += 1
            hits[reads.sequence_of(x)[o : o + k]] += 1
        seeds = 0
        for classes in runs.values():
            n = sum(classes.values())
            seeds += n * n - sum(c * c for flanks, c in classes.items() if None not in flanks)
        return seeds, sum(n * (n - 1) // 2 for n in hits.values())

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"kmer_table": 0, "searches": 0, "expanded": [], "blocks": [], "bases": 0}
        real_table, real_expand = ReadSet.kmer_table, overlapper.ragged_positions
        real_tile, real_votes = overlapper._diagonal_tile, OverlapDetector._diagonal_votes

        def counting_table(self, *args, **kwargs):
            seen["kmer_table"] += 1
            return real_table(self, *args, **kwargs)

        def counting_search(name):
            real = getattr(KmerIndex, name)

            def counted(self, *query):
                seen["searches"] += 1
                return real(self, *query)

            return counted

        def counting_expand(starts, lengths):
            rows = real_expand(starts, lengths)
            seen["expanded"].append(rows.size)
            return rows

        def counting_tile(codes, first, width):
            tile = real_tile(codes, first, width)
            seen["blocks"].append(tile.shape)
            return tile

        def counting_votes(detector, *spans):
            seen["bases"] += int(spans[-1].sum())
            return real_votes(detector, *spans)

        monkeypatch.setattr(ReadSet, "kmer_table", counting_table)
        for name in ("seed_ranges", "lookup"):
            monkeypatch.setattr(KmerIndex, name, counting_search(name))
        monkeypatch.setattr(overlapper, "ragged_positions", counting_expand)
        monkeypatch.setattr(overlapper, "_diagonal_tile", counting_tile)
        monkeypatch.setattr(OverlapDetector, "_diagonal_votes", counting_votes)
        return seen

    def assert_blocks_within(self, blocks, budget, triples, bases):
        """Every block is at most ``budget`` cells unless it is one row;
        together they lay out every triple once and every base."""
        assert all(rows * width <= budget or rows == 1 for rows, width in blocks)
        assert sum(rows for rows, _ in blocks) == triples
        assert sum(rows * width for rows, width in blocks) >= bases

    def test_self_join_expands_seeds_without_a_lookup(self, counts):
        cfg = OverlapConfig(min_overlap=40)
        for error_rate in (0.0, 0.01):
            reads = self.shotgun(error_rate=error_rate)
            seeds, hits = self.seed_rows(reads, cfg.k)
            counts.update(kmer_table=0, expanded=[])
            overlaps = OverlapDetector(cfg).find_overlaps(reads)
            assert len(overlaps) > 1000
            assert (counts["kmer_table"], counts["searches"]) == (1, 0)
            # a row per end of a maximal exact match and side, where
            # counting the votes in the hit list expanded every
            # unordered pair of equal k-mers: sum c(c-1)/2.
            assert sum(counts["expanded"]) == seeds
            assert seeds < hits // 5

    def test_no_stripe_expands_more_than_the_budget(self, counts):
        reads = self.shotgun()
        detector = OverlapDetector(OverlapConfig(min_overlap=40))
        everything = np.arange(len(reads))
        win_reads, _, _, _, win_rows, *_ = KmerIndex(reads, 16).self_join()
        per_read = np.bincount(win_reads, weights=win_rows).astype(np.int64)
        whole, n_whole = detector.overlap_subset_pair_packed(
            reads, everything, everything, True
        )
        assert counts["expanded"] == [int(per_read.sum())]  # fits one default stripe
        for budget in (2000, int(per_read.max()) // 2):
            counts["expanded"].clear()
            striped, n_striped = detector.overlap_subset_pair_packed(
                reads, everything, everything, True, max_hits=budget
            )
            assert max(counts["expanded"]) <= max(budget, int(per_read.max()))
            assert sum(counts["expanded"]) == int(per_read.sum())
            assert len(counts["expanded"]) >= per_read.sum() // max(budget, per_read.max())
            assert n_striped == n_whole
            assert_same_columns(striped, whole)

    def test_no_compare_block_lays_out_more_than_the_budget(self, counts, monkeypatch):
        reads = self.shotgun(error_rate=0.01)
        detector = OverlapDetector(OverlapConfig(min_overlap=40))
        whole = detector.find_overlaps(reads)
        (triples, width), both_sides = counts["blocks"][0], counts["blocks"]
        assert both_sides == [(triples, width)] * 2  # fits one default block
        bases = counts["bases"]
        for budget in (triples * width // 7, 150, 1):
            counts["blocks"].clear()
            monkeypatch.setattr(overlapper, "_MAX_CELLS", budget)
            assert_same_columns(detector.find_overlaps(reads), whole)
            blocks = counts["blocks"][::2]
            assert counts["blocks"][1::2] == blocks  # both sides alike
            self.assert_blocks_within(blocks, budget, triples, bases)
            assert len(blocks) >= bases // max(budget, 100)

    @pytest.mark.parametrize("budget", [1, 300, overlapper._MAX_CELLS])
    def test_long_reads_among_short_ones(self, counts, monkeypatch, budget):
        # Two 1,500-bp reads overlapping by 1,000 among 100-bp reads of
        # the same genome: a block's width is its widest span, so a cut
        # by bases alone would let one long span blow the tile up.
        g = decode(random_genome(3000, np.random.default_rng(21)))
        short = [g[s : s + 100] for s in range(0, 2900, 70)]
        seqs = [*short[:20], g[0:1500], *short[20:], g[500:2000]]
        reads = ReadSet.from_strings(seqs)
        cfg = OverlapConfig(min_overlap=40)
        monkeypatch.setattr(overlapper, "_MAX_CELLS", budget)
        with recorded_votes() as seen:
            packed, candidates = find_overlaps_on("kmer", cfg, reads)
        everything = np.arange(len(reads))
        assert {t: v for t, (v, _) in seen.items()} == oracle_votes(
            cfg, reads, everything, everything, True
        )
        oracle, n_candidates = find_overlaps_loop(cfg, reads)
        assert_same_columns(packed, oracle)
        assert candidates == n_candidates
        assert (20, len(seqs) - 1) in pairs(oracle)
        blocks = counts["blocks"][::2]
        self.assert_blocks_within(blocks, budget, len(seen), counts["bases"])
        assert max(width for _, width in blocks) == 1000
