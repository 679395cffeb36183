"""Fig. 7 — distribution of major genera across 16 graph partitions.

Paper: reads are classified to genera with BWA against the HMP gut
reference; the fraction of each genus's reads per partition is far
from uniform (genera concentrate in few partitions), and genera of the
same phylum (e.g. Roseburia / Clostridium / Eubacterium, all
Firmicutes) show correlated partition profiles.

Here the classifier is the k-mer voter against the simulated reference
genomes, partitions come from the 16-way hybrid partitioning, and the
heat map is rendered in ASCII.

"Far from uniform" is checked twice: against the fixed bound of 0.9
normalised entropy, and against a shuffled-label baseline — the same
partition labels permuted over the reads with fixed seeds, which keeps
every partition's size and destroys only the link between a read and
its partition.  The ground-truth genus entropy must sit below the
lowest shuffled one by ``ENTROPY_MARGIN`` (EXPERIMENTS.md, Fig. 7).
"""

import numpy as np

from repro.analysis.classify import KmerClassifier
from repro.analysis.community import (
    genus_partition_matrix,
    max_fraction_per_genus,
    normalized_entropy_per_genus,
    phylum_colocation,
)
from repro.analysis.heatmap import render_heatmap
from repro.partition.multilevel import partition_via_hybrid
from repro.simulate.taxonomy import PHYLUM_OF

K_PARTS = 16
#: shuffles of the partition labels in the baseline (seeds 0..N-1).
N_SHUFFLES = 20
#: how far the real mean entropy must sit below the lowest shuffled one.
ENTROPY_MARGIN = 0.15


def _analyse(ds, prep):
    part = partition_via_hybrid(prep.mls, prep.hyb, K_PARTS)
    read_parts = part.labels_finest[prep.hyb.base_maps[0]]
    classifier = KmerClassifier(ds.community.reference_database(), k=21)
    genus_labels = [m.get("genus") for m in prep.reads.meta]
    predicted = classifier.classify_readset(prep.reads)
    genera = sorted({g.meta["genus"] for g in ds.community.genomes})
    matrix = genus_partition_matrix(predicted, read_parts, genera, K_PARTS)
    truth_matrix = genus_partition_matrix(genus_labels, read_parts, genera, K_PARTS)
    agree = np.mean(
        [p == t for p, t in zip(predicted, genus_labels) if t is not None and p is not None]
    )
    shuffled = [
        normalized_entropy_per_genus(
            genus_partition_matrix(
                genus_labels,
                np.random.default_rng(seed).permutation(read_parts),
                genera,
                K_PARTS,
            )
        ).mean()
        for seed in range(N_SHUFFLES)
    ]
    return genera, matrix, truth_matrix, float(agree), float(min(shuffled))


def test_fig7_genus_partition_distribution(benchmark, datasets, prepared, write_result):
    analysis = {}

    def run_all():
        for ds in datasets:
            analysis[ds.name] = _analyse(ds, prepared[ds.name])

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    blocks = []
    for name, (genera, matrix, truth, agree, shuffled) in analysis.items():
        maxf = max_fraction_per_genus(matrix)
        ent = normalized_entropy_per_genus(matrix)
        truth_ent = normalized_entropy_per_genus(truth).mean()
        same, cross = phylum_colocation(matrix, genera, PHYLUM_OF)
        blocks.append(
            f"--- {name} (classifier/truth agreement {agree:.3f}) ---\n"
            + render_heatmap(matrix, genera)
            + f"\nmean max-fraction {maxf.mean():.3f} (uniform floor {1 / K_PARTS:.3f})"
            + f"\nmean normalised entropy {ent.mean():.3f} (uniform = 1.0)"
            + f"\nground truth: mean normalised entropy {truth_ent:.3f}, lowest of "
            + f"{N_SHUFFLES} label shuffles {shuffled:.3f}"
            + f"\nprofile correlation same-phylum {same:.3f} vs cross-phylum {cross:.3f}"
        )
    write_result("fig7_genus_partitions", "\n\n".join(blocks))

    for name, (genera, matrix, truth_matrix, agree, shuffled) in analysis.items():
        # The BWA-substitute classifier must be accurate on its own refs.
        assert agree > 0.9, f"{name}: classifier agreement {agree}"
        # Concentration: distributions are far from uniform (paper's
        # central qualitative observation).
        maxf = max_fraction_per_genus(matrix)
        assert maxf.mean() > 3.0 / K_PARTS, f"{name}: genera not concentrated"
        assert normalized_entropy_per_genus(matrix).mean() < 0.9
        # ...and far below what the same partition sizes give by chance.
        truth_ent = normalized_entropy_per_genus(truth_matrix).mean()
        assert truth_ent < shuffled - ENTROPY_MARGIN, (
            f"{name}: entropy {truth_ent:.3f} not below shuffled {shuffled:.3f} "
            f"by {ENTROPY_MARGIN}"
        )
        # Phylum co-location: same-phylum genera correlate more.
        same, cross = phylum_colocation(matrix, genera, PHYLUM_OF)
        assert same > cross, f"{name}: no phylum co-location ({same} vs {cross})"
        # Ground-truth labels tell the same story (classifier not doing
        # the work by itself).
        t_same, t_cross = phylum_colocation(truth_matrix, genera, PHYLUM_OF)
        assert t_same > t_cross
