"""Tests for LPT / round-robin work-unit scheduling."""

import threading

import numpy as np
import pytest

from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.parallel.schedule import (
    assignment_imbalance,
    lpt_assignment,
    round_robin_assignment,
    subset_pair_costs,
)
from tests.align.test_overlapper import tiled_reads

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


class TestCosts:
    def test_self_pairs_halved(self):
        pairs = [(0, 0), (0, 1)]
        costs = subset_pair_costs(pairs, np.array([10, 20]))
        assert costs.tolist() == [50.0, 200.0]

    def test_standard_split(self):
        pairs = subset_pairs(4)
        costs = subset_pair_costs(pairs, np.array([8, 8, 8, 8]))
        # 4 self pairs at 32, 6 cross pairs at 64
        assert sorted(costs.tolist()) == [32.0] * 4 + [64.0] * 6


class TestLPT:
    def test_deterministic(self):
        costs = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 3.0])
        a = lpt_assignment(costs, 3)
        b = lpt_assignment(costs, 3)
        assert a.tolist() == b.tolist()

    def test_largest_first_balances(self):
        # Classic LPT witness: round-robin puts both 5s on worker 0.
        costs = np.array([5.0, 1.0, 5.0, 1.0])
        lpt = lpt_assignment(costs, 2)
        rr = round_robin_assignment(4, 2)
        assert assignment_imbalance(costs, lpt, 2) < assignment_imbalance(costs, rr, 2)
        assert assignment_imbalance(costs, lpt, 2) == 1.0

    def test_all_tasks_assigned_valid_workers(self):
        costs = np.arange(1, 11, dtype=np.float64)
        owner = lpt_assignment(costs, 4)
        assert owner.shape == (10,)
        assert set(owner.tolist()) <= {0, 1, 2, 3}

    def test_single_worker(self):
        owner = lpt_assignment(np.array([3.0, 1.0]), 1)
        assert owner.tolist() == [0, 0]

    def test_empty(self):
        assert lpt_assignment(np.array([]), 4).size == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            lpt_assignment(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            lpt_assignment(np.array([-1.0]), 2)
        with pytest.raises(ValueError):
            round_robin_assignment(3, 0)

    def test_estimated_imbalance_beats_round_robin_on_standard_split(self):
        # The exact configuration of the overlap stage: 4 subsets, 10
        # pairs, 4 workers.  LPT is perfectly even; round-robin is not.
        pairs = subset_pairs(4)
        costs = subset_pair_costs(pairs, np.full(4, 100))
        lpt_imb = assignment_imbalance(costs, lpt_assignment(costs, 4), 4)
        rr_imb = assignment_imbalance(costs, round_robin_assignment(len(pairs), 4), 4)
        assert lpt_imb == 1.0
        assert rr_imb > 1.2


class TestClusterScheduleImbalance:
    def test_lpt_improves_compute_balance(self, monkeypatch):
        # What the schedule controls is which pairs a rank owns, so the
        # balance is asserted on the work each rank was handed
        # (sum of |Q|*|R| over the pairs it actually ran, self pairs
        # halved as in ``subset_pair_costs``) — measured per-rank thread
        # time of a few ms of numpy is noise on a shared host.
        reads, _ = tiled_reads(genome_len=4000, stride=20)
        detector = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=4))
        here = threading.local()
        owned = np.zeros(4)
        run_pair = detector._pair_with_stats

        def counted_pair(reads, queries, refs, same_subset, **kw):
            owned[here.rank] += queries.size * refs.size / (2 if same_subset else 1)
            return run_pair(reads, queries, refs, same_subset=same_subset, **kw)

        monkeypatch.setattr(detector, "_pair_with_stats", counted_pair)

        def rank_fn(comm, reads, schedule):
            here.rank = comm.rank
            return detector.find_overlaps_parallel(comm, reads, schedule=schedule)

        def imbalance(schedule):
            owned[:] = 0
            results, _ = SimCluster(4, cost_model=FAST).run(
                rank_fn, reads, schedule=schedule
            )
            return results[0], float(owned.max() / owned.mean())

        lpt_result, lpt_imb = imbalance("lpt")
        rr_result, rr_imb = imbalance("round_robin")
        key = lambda ovs: sorted((o.query, o.ref, o.length, o.identity) for o in ovs)
        assert key(lpt_result) == key(rr_result)
        # 4 subsets on 4 ranks: LPT is even, round-robin striping is not.
        assert lpt_imb == pytest.approx(1.0)
        assert rr_imb == pytest.approx(1.25)

    def test_unknown_schedule_rejected(self):
        reads, _ = tiled_reads(genome_len=600)
        detector = OverlapDetector(OverlapConfig(min_overlap=50, n_subsets=2))
        with pytest.raises(RuntimeError, match="unknown schedule"):
            SimCluster(2, cost_model=FAST).run(
                detector.find_overlaps_parallel, reads, schedule="random"
            )
