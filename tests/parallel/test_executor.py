"""Tests for the ProcessPoolExecutor overlap driver."""

import numpy as np

from repro.align.overlapper import OverlapConfig, OverlapDetector
from repro.parallel.executor import ExecutorStats, run_subset_pairs
from tests.align.test_overlapper import tiled_reads


class TestRunSubsetPairs:
    def test_identical_to_serial(self):
        reads, _ = tiled_reads(genome_len=1200)
        config = OverlapConfig(min_overlap=50, n_subsets=4)
        serial = OverlapDetector(config).find_overlaps(reads)
        parallel, stats = run_subset_pairs(config, reads, n_workers=2)
        # Row-for-row identity, including order.
        assert parallel.to_overlaps() == serial
        assert stats.n_workers == 2
        assert stats.n_tasks == 10
        assert stats.overlaps == len(serial)
        assert stats.candidates > 0

    def test_single_worker_short_circuits(self):
        reads, _ = tiled_reads(genome_len=600)
        config = OverlapConfig(min_overlap=50, n_subsets=2)
        overlaps, stats = run_subset_pairs(config, reads, n_workers=1)
        assert overlaps.to_overlaps() == OverlapDetector(config).find_overlaps(reads)
        assert isinstance(stats, ExecutorStats)
        assert stats.n_workers == 1

    def test_detector_facade(self):
        reads, _ = tiled_reads(genome_len=800)
        config = OverlapConfig(min_overlap=50, n_subsets=3)
        detector = OverlapDetector(config)
        serial = detector.find_overlaps(reads)
        serial_candidates = detector.last_candidates
        via_processes = detector.find_overlaps_processes(reads, n_workers=2)
        assert via_processes == serial
        assert detector.last_candidates == serial_candidates

    def test_candidate_counts_match_serial(self):
        reads, _ = tiled_reads(genome_len=1000)
        config = OverlapConfig(min_overlap=50, n_subsets=4)
        detector = OverlapDetector(config)
        detector.find_overlaps(reads)
        _, stats = run_subset_pairs(config, reads, n_workers=2)
        assert stats.candidates == detector.last_candidates
