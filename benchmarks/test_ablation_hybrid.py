"""Ablation — the best-representative contiguity criterion.

The hybrid graph keeps a coarse node only if its read cluster lays out
into one contiguous contig; otherwise it descends to finer levels.
This bench quantifies (a) how often the criterion actually fires (the
coarsest clusters that *fail* and force descent) and (b) the
compression the verified hybrid graph achieves over the overlap graph.
Without the criterion ("always trust the coarsest level"), repeat- and
phylum-tangled clusters admit no layout and contig construction would
be unsound — exactly the failures counted here.
"""

from repro.bench.reporting import format_table
from repro.graph.contigs import layout_clusters


def test_ablation_hybrid_criterion(benchmark, prepared, write_result):
    rows = []
    checks = {}

    def run_all():
        for name, prep in prepared.items():
            # One batched layout over every coarsest cluster.
            members, first = prep.mls.members_at_level(prep.mls.n_levels - 1)
            _, ok = layout_clusters(prep.g0, members, first)
            failing = int((~ok).sum())
            rep_levels = prep.hyb.rep_level
            checks[name] = (failing, ok.size)
            rows.append(
                [
                    name,
                    ok.size,
                    failing,
                    prep.hyb.hybrid.n_nodes,
                    prep.g0.n_nodes,
                    f"{prep.g0.n_nodes / prep.hyb.hybrid.n_nodes:.1f}x",
                    int(rep_levels.min()),
                    int(rep_levels.max()),
                ]
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = format_table(
        [
            "Data set",
            "Coarsest clusters",
            "Fail contiguity",
            "Hybrid nodes",
            "G0 nodes",
            "Compression",
            "Min rep level",
            "Max rep level",
        ],
        rows,
    )
    write_result("ablation_hybrid", table)

    for name, (failing, total) in checks.items():
        prep = prepared[name]
        # The criterion is not vacuous: metagenome data tangles some
        # coarsest clusters (repeats + shared ancestry), forcing descent.
        assert failing > 0, f"{name}: criterion never fired"
        # But linearity dominates: most coarsest clusters are clean and
        # the hybrid graph stays far smaller than the overlap graph.
        assert failing < total
        assert prep.hyb.hybrid.n_nodes < prep.g0.n_nodes / 5
        # Descent happened: representatives exist below the top level.
        assert prep.hyb.rep_level.min() < prep.mls.n_levels - 1
