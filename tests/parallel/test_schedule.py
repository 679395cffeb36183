"""Tests for LPT work-unit scheduling."""

import numpy as np
import pytest

from repro.align.overlapper import OverlapConfig, OverlapSubject, subset_pairs
from repro.parallel.schedule import lpt_assignment, subset_pair_costs
from tests.align.test_overlapper import tiled_reads


def imbalance(costs, owner, n_workers):
    """max/mean per-worker load of an assignment (1.0 = perfectly even)."""
    loads = np.bincount(owner, weights=costs, minlength=n_workers)
    return float(loads.max() / loads.mean())


def striped(n_tasks, n_workers):
    """Blind striping, the baseline LPT is compared with."""
    return np.arange(n_tasks) % n_workers


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
        # Classic LPT witness: striping puts both 5s on worker 0.
        costs = np.array([5.0, 1.0, 5.0, 1.0])
        lpt = lpt_assignment(costs, 2)
        assert imbalance(costs, lpt, 2) < imbalance(costs, striped(4, 2), 2)
        assert imbalance(costs, lpt, 2) == 1.0

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

    def test_estimated_imbalance_beats_round_robin_on_standard_split(self):
        # The exact configuration of the overlap stage: 4 subsets, 10
        # pairs, 4 workers.  LPT is perfectly even; striping is not.
        pairs = subset_pairs(4)
        costs = subset_pair_costs(pairs, np.full(4, 100))
        assert imbalance(costs, lpt_assignment(costs, 4), 4) == 1.0
        assert imbalance(costs, striped(len(pairs), 4), 4) > 1.2


class TestClusterScheduleImbalance:
    def test_lpt_improves_compute_balance(self):
        # What the schedule controls is which units a part owns, so the
        # balance is asserted on the subject's unit -> part assignment
        # (sum of |Q|*|R| over a part's pairs, self pairs halved) —
        # measured per-rank thread time of a few ms of numpy is noise
        # on a shared host.
        reads, _ = tiled_reads(genome_len=4000, stride=20)
        subject = OverlapSubject(
            reads, OverlapConfig(min_overlap=50, n_subsets=4), n_parts=4
        )
        assert subject.n_parts == 4
        assert sorted(np.unique(subject.owner).tolist()) == [0, 1, 2, 3]
        loads = subject.partition_costs()
        # 4 subsets on 4 parts: LPT is even, striping is not.
        assert loads.max() / loads.mean() == pytest.approx(1.0)
        assert imbalance(
            subject.unit_costs, striped(len(subject.pairs), 4), 4
        ) == pytest.approx(1.25)

    def test_parts_capped_at_unit_count(self):
        reads, _ = tiled_reads(genome_len=600)
        subject = OverlapSubject(reads, OverlapConfig(n_subsets=2), n_parts=8)
        assert subject.n_parts == 3  # 2 subsets -> 3 pairs
        assert OverlapSubject(reads, OverlapConfig(), n_parts=0).n_parts == 1
