"""Overlap recall and precision against the simulator's ground truth.

Each simulated read records where it came from (``meta["position"]``,
``meta["strand"]``).  Two reads truly overlap when they read the genome
on the same strand — a read and the reverse complement the pipeline
adds for it read opposite strands — and their genomic intervals share
at least ``min_overlap`` bases.  On 0.5 %-error shotgun reads of a
uniform random genome, untrimmed, the detector must find nearly all of
those pairs and almost nothing else.
"""

import numpy as np

from repro.align.overlapper import OverlapConfig, OverlapDetector
from repro.io.readset import ragged_positions
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

READ_LENGTH = 100


def true_pairs(position: np.ndarray, forward: np.ndarray, min_overlap: int) -> set:
    """``{(a, b)}``, ``a < b``, of the reads sharing ``min_overlap``
    genomic bases on the same strand."""
    order = np.lexsort((position, forward))
    pos, fwd = position[order], forward[order]
    key = fwd * (int(pos.max()) + READ_LENGTH + 1) + pos
    # a read's partners follow it in (strand, position) order while
    # they start no more than READ_LENGTH - min_overlap bases later.
    reach = np.searchsorted(key, key + READ_LENGTH - min_overlap, side="right")
    first = np.arange(order.size) + 1
    counts = reach - first
    a = np.repeat(order, counts)
    b = order[ragged_positions(first, counts)]
    return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def test_recall_and_precision_against_the_truth():
    rng = np.random.default_rng(7)
    genome = Genome("g", random_genome(20_000, rng))
    sim = ReadSimulator(
        ReadSimConfig(read_length=READ_LENGTH, coverage=10, flat_error_rate=0.005, seed=7)
    )
    reads = sim.simulate_genome(genome)
    position = np.array([m["position"] for m in reads.meta] * 2)
    forward = np.array([m["strand"] == "+" for m in reads.meta])
    forward = np.concatenate([forward, ~forward]).astype(np.int64)
    reads = reads.with_reverse_complements()
    config = OverlapConfig()
    found = OverlapDetector(config).find_overlaps(reads)
    detected = set(
        zip(
            np.minimum(found.query, found.ref).tolist(),
            np.maximum(found.query, found.ref).tolist(),
        )
    )
    assert len(detected) == len(found)  # one row per read pair
    truth = true_pairs(position, forward, config.min_overlap)
    hits = len(truth & detected)
    recall, precision = hits / len(truth), hits / len(detected)
    # measured: 20,610 true pairs, 20,604 found, recall 0.99971,
    # precision 1.0 (EXPERIMENTS.md, "§II-B — the truth below the
    # contigs").
    assert len(truth) > 20_000
    assert recall >= 0.999
    assert precision >= 0.999
