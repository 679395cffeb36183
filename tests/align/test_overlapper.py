"""Unit + integration tests for the overlap detector."""

import numpy as np
import pytest

from repro.align import overlapper
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import OverlapKind
from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs
from repro.io.readset import ReadSet
from repro.sequence.dna import decode
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from tests.reference.overlap_loop import (
    find_overlaps_loop,
    overlap_keys,
    overlap_subset_pair_loop,
)


def tiled_reads(genome_len=600, read_len=100, stride=40, seed=0):
    """Error-free reads tiled across a random genome at fixed stride."""
    g = random_genome(genome_len, np.random.default_rng(seed))
    seqs = [decode(g[s : s + read_len]) for s in range(0, genome_len - read_len + 1, stride)]
    return ReadSet.from_strings(seqs), g


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
            dict(method="smith_waterman"),
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
        overlaps = det.find_overlaps(reads)
        found = {(o.query, o.ref) for o in overlaps}
        # stride 40, read 100 -> neighbours overlap by 60, next-neighbours by 20 (<50)
        n = len(reads)
        for i in range(n - 1):
            assert (i, i + 1) in found, f"missing adjacent overlap {i},{i+1}"
        for i in range(n - 2):
            assert (i, i + 2) not in found

    def test_overlap_lengths_exact(self):
        reads, _ = tiled_reads()
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        for ov in det.find_overlaps(reads):
            assert ov.length == 60
            assert ov.identity == 1.0
            assert ov.kind == OverlapKind.QUERY_LEFT  # later reads start further right

    def test_no_duplicate_pairs(self):
        reads, _ = tiled_reads()
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        overlaps = det.find_overlaps(reads)
        keys = [(o.query, o.ref) for o in overlaps]
        assert len(keys) == len(set(keys))
        assert all(q < r for q, r in keys)  # single subset -> ordered pairs

    def test_subsets_find_same_overlaps(self):
        reads, _ = tiled_reads(genome_len=800)
        base = OverlapDetector(OverlapConfig(min_overlap=50)).find_overlaps(reads)
        split = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=3)).find_overlaps(reads)
        as_set = lambda ovs: {(min(o.query, o.ref), max(o.query, o.ref), o.length) for o in ovs}
        assert as_set(base) == as_set(split)

    def test_containment_detected(self):
        reads, g = tiled_reads()
        inner = decode(g[10:80])  # contained in read 0 (0..100)
        reads2 = ReadSet.from_strings([reads.sequence_of(i) for i in range(len(reads))] + [inner])
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        overlaps = det.find_overlaps(reads2)
        cont = [o for o in overlaps if OverlapKind.QUERY_CONTAINED in (o.kind,) or o.kind == OverlapKind.REF_CONTAINED]
        assert any(
            (o.query == len(reads2) - 1 and o.kind == OverlapKind.REF_CONTAINED)
            or (o.ref == len(reads2) - 1 and o.kind == OverlapKind.QUERY_CONTAINED)
            for o in overlaps
        ) or cont

    def test_identity_threshold_enforced(self):
        reads, _ = tiled_reads()
        seqs = [reads.sequence_of(i) for i in range(2)]
        # corrupt 20% of the second read's overlap region
        s1 = list(seqs[1])
        for i in range(0, 60, 5):
            s1[i] = "A" if s1[i] != "A" else "C"
        noisy = ReadSet.from_strings([seqs[0], "".join(s1)])
        det = OverlapDetector(OverlapConfig(min_overlap=50, min_identity=0.95, min_kmer_hits=1))
        assert det.find_overlaps(noisy) == []

    def test_banded_nw_method_agrees_on_clean_data(self):
        reads, _ = tiled_reads(genome_len=400)
        fast = OverlapDetector(OverlapConfig(min_overlap=50)).find_overlaps(reads)
        nw = OverlapDetector(OverlapConfig(min_overlap=50, method="banded_nw")).find_overlaps(reads)
        key = lambda ovs: {(o.query, o.ref) for o in ovs}
        assert key(fast) == key(nw)

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
        for ov in overlaps[:200]:
            mq, mr = reads.meta[ov.query], reads.meta[ov.ref]
            if mq["strand"] == "+" and mr["strand"] == "+":
                true_diag = mr["position"] - mq["position"]
                assert ov.q_start - ov.r_start == true_diag
                checked += 1
        assert checked > 0

    def test_empty_readset(self):
        det = OverlapDetector()
        assert det.find_overlaps(ReadSet.from_strings([])) == []

    def test_no_overlap_between_unrelated(self):
        rng = np.random.default_rng
        a = decode(random_genome(100, rng(1)))
        b = decode(random_genome(100, rng(2)))
        det = OverlapDetector(OverlapConfig(min_overlap=50))
        assert det.find_overlaps(ReadSet.from_strings([a, b])) == []


class TestStripedLoopEdgeCases:
    """Inputs the sorted self-join and the stripe cut must not trip on;
    each is held to the scalar oracle."""

    CFG = OverlapConfig(k=8, min_overlap=20, min_kmer_hits=2)

    def assert_matches_oracle(self, reads, cfg=CFG):
        detector = OverlapDetector(cfg)
        found = detector.find_overlaps(reads)
        expect, n_candidates = find_overlaps_loop(cfg, reads)
        assert overlap_keys(found) == overlap_keys(expect)
        assert detector.last_candidates == n_candidates
        return found

    @pytest.mark.parametrize("index", ["kmer", "suffix_array"])
    @pytest.mark.parametrize(
        "seqs", [["ACGTAC", "ACGTACG", "CGTA"], ["N" * 40, "N" * 33], ["ACGT"]]
    )
    def test_no_valid_kmer_window(self, seqs, index):
        detector = OverlapDetector(OverlapConfig(k=8, min_overlap=3, index=index))
        assert detector.find_overlaps(ReadSet.from_strings(seqs)) == []
        assert detector.last_candidates == 0

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
        assert tight.to_overlaps() == whole.to_overlaps()
        self.assert_matches_oracle(reads)

    def test_duplicate_reads_are_equal_overlaps(self):
        reads, _ = tiled_reads(genome_len=300)
        seqs = [reads.sequence_of(i) for i in range(len(reads))]
        found = self.assert_matches_oracle(ReadSet.from_strings(seqs + seqs[:2]))
        n = len(seqs)
        equal = {(o.query, o.ref) for o in found if o.kind is OverlapKind.EQUAL}
        assert equal == {(0, n), (1, n + 1)}

    def test_reads_with_n(self):
        g = decode(random_genome(260, np.random.default_rng(3)))
        seqs = [g[0:100], g[40:70] + "N" + g[71:140], g[80:180], "N" * 50, g[120:220]]
        found = self.assert_matches_oracle(ReadSet.from_strings(seqs))
        assert {(o.query, o.ref) for o in found} >= {(0, 1), (1, 2), (2, 4)}

    def test_kmer_repeated_inside_one_read(self):
        # The repeat gives every read hits on itself (ref == query rows
        # of the self-join), which must vote for nothing.
        g = decode(random_genome(200, np.random.default_rng(4)))
        repeat = "ACCGTTGACTGA" * 3
        seqs = [g[0:60] + repeat + g[60:90], g[30:60] + repeat + g[60:130], repeat]
        found = self.assert_matches_oracle(ReadSet.from_strings(seqs))
        assert all(o.query < o.ref for o in found)
        assert {(0, 1), (0, 2), (1, 2)} <= {(o.query, o.ref) for o in found}

    @pytest.mark.parametrize("index", ["kmer", "suffix_array"])
    def test_non_ascending_query_indices(self, index):
        reads, _ = tiled_reads(genome_len=500)
        cfg = OverlapConfig(min_overlap=50, index=index)
        order = np.random.default_rng(6).permutation(len(reads))
        expect = overlap_keys(OverlapDetector(cfg).find_overlaps(reads))
        assert expect
        for same_subset in (True, False):
            found = OverlapDetector(cfg).overlap_subset_pair(
                reads, order, order, same_subset
            )
            oracle, _ = overlap_subset_pair_loop(cfg, reads, order, order, same_subset)
            assert overlap_keys(found) == overlap_keys(oracle)
            if same_subset:
                assert overlap_keys(found) == expect


class TestWorkIsBounded:
    """Counted, not timed: a subset against its own k-mer index is a
    sorted self-join (no lookup, half the hit rows), and no stripe
    expands more rows than the budget allows."""

    @staticmethod
    def shotgun(n=400, genome_len=5000, read_len=100, seed=8):
        rng = np.random.default_rng(seed)
        g = random_genome(genome_len, rng)
        starts = rng.integers(0, genome_len - read_len + 1, size=n)
        return ReadSet.from_strings([decode(g[s : s + read_len]) for s in starts])

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"kmer_table": 0, "hit_ranges": 0, "lookup": 0, "expanded": []}
        real_table, real_expand = ReadSet.kmer_table, overlapper.ragged_positions

        def counting_table(self, *args, **kwargs):
            seen["kmer_table"] += 1
            return real_table(self, *args, **kwargs)

        def counting_search(name):
            real = getattr(KmerIndex, name)

            def counted(self, query_vals):
                seen[name] += 1
                return real(self, query_vals)

            return counted

        def counting_expand(starts, lengths):
            rows = real_expand(starts, lengths)
            seen["expanded"].append(rows.size)
            return rows

        monkeypatch.setattr(ReadSet, "kmer_table", counting_table)
        monkeypatch.setattr(KmerIndex, "hit_ranges", counting_search("hit_ranges"))
        monkeypatch.setattr(KmerIndex, "lookup", counting_search("lookup"))
        monkeypatch.setattr(overlapper, "ragged_positions", counting_expand)
        return seen

    def test_self_join_expands_half_the_hits_without_a_lookup(self, counts):
        reads = self.shotgun()
        cfg = OverlapConfig(min_overlap=40)
        _, run = np.unique(KmerIndex(reads, cfg.k).kmers, return_counts=True)
        counts["kmer_table"] = 0
        overlaps = OverlapDetector(cfg).find_overlaps(reads)
        assert len(overlaps) > 1000
        assert (counts["kmer_table"], counts["hit_ranges"], counts["lookup"]) == (1, 0, 0)
        # every unordered pair of equal k-mers once: sum c(c-1)/2, where
        # looking every window up expands sum c^2.
        assert sum(counts["expanded"]) == int((run * (run - 1) // 2).sum())
        assert sum(counts["expanded"]) < int((run * run).sum()) // 2

    def test_no_stripe_expands_more_than_the_budget(self, counts):
        reads = self.shotgun()
        detector = OverlapDetector(OverlapConfig(min_overlap=40))
        everything = np.arange(len(reads))
        win_reads, _, _, win_hits, _, _ = KmerIndex(reads, 16).self_join()
        per_read = np.bincount(win_reads, weights=win_hits).astype(np.int64)
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
            assert striped.to_overlaps() == whole.to_overlaps()
