"""Table III — assembly statistics across partition counts.

Paper: for each dataset, N50, max contig length and contig count are
essentially invariant as the hybrid graph is cut into 4, 16, 32 or 64
partitions — partitioning does not change assembly quality.
"""

from repro.bench.reporting import format_table

K_VALUES = (4, 16, 32, 64)


def test_table3_assembly_stats(benchmark, prepared, assembler, write_result):
    results = {}

    def run_all():
        for name, prep in prepared.items():
            for k in K_VALUES:
                results[(name, k)] = assembler.finish(prep, n_partitions=k).stats

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [
            name,
            k,
            results[(name, k)].n50,
            results[(name, k)].max_contig,
            results[(name, k)].n_contigs,
        ]
        for name in prepared
        for k in K_VALUES
    ]
    table = format_table(
        ["Data set", "Part. Num.", "N50 (bp)", "Max Contig (bp)", "Num. of Contigs"], rows
    )
    write_result("table3_assembly_stats", table)

    # Shape: per dataset, stats are invariant across partition counts.
    # The paper's N50 varies by <1%, contig counts by a few hundred in
    # ~10^5.  Here all three columns are exactly equal at every k on
    # D1-D3, so the check is equality.  The contig sets themselves are
    # not byte-identical across k (their sorted SHA-256 differs), so
    # only the statistics are held equal.
    for name in prepared:
        stats = [results[(name, k)] for k in K_VALUES]
        assert stats[0].n50 > 0
        for column in ("n50", "max_contig", "n_contigs"):
            values = [getattr(s, column) for s in stats]
            assert len(set(values)) == 1, f"{name}: {column} varies with k {values}"
