"""Backend equivalence: serial, sim, and process must agree bit for bit.

The fast tier runs a small simulated genome across backends and
partition counts; the ``slow`` tier (excluded from tier-1, run with
``pytest -m slow``) repeats the check on the standard D1/D2 benchmark
datasets — the acceptance contract of the kernel/merge split.
"""

import numpy as np
import pytest

from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.mpi.timing import CommCostModel
from repro.parallel.backend import BACKEND_NAMES
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator

FAST = CommCostModel(alpha=1e-6, beta=1e-9)


def small_reads(genome_len=6000, coverage=10, seed=3):
    g = Genome("g", random_genome(genome_len, np.random.default_rng(seed)))
    cfg = ReadSimConfig(read_length=100, coverage=coverage, seed=seed)
    return ReadSimulator(cfg).simulate_genome(g)


def contig_key(result):
    return sorted(c.tobytes() for c in result.contigs)


def finish_all_backends(assembler, prep, k):
    """result per backend name at partition count ``k``."""
    return {
        name: assembler.finish(prep, n_partitions=k, backend=name)
        for name in BACKEND_NAMES
    }


@pytest.fixture(scope="module")
def small_prepared():
    assembler = FocusAssembler(
        AssemblyConfig(backend_workers=2), cost_model=FAST
    )
    return assembler, assembler.prepare(small_reads())


class TestSmallGenomeEquivalence:
    @pytest.mark.parametrize("k", [2, 4])
    def test_contigs_and_masks_identical(self, small_prepared, k):
        assembler, prep = small_prepared
        results = finish_all_backends(assembler, prep, k)
        base = results["serial"]
        for name in ("sim", "process"):
            res = results[name]
            assert contig_key(res) == contig_key(base), name
            assert (res.dag.node_alive == base.dag.node_alive).all(), name
            assert (res.dag.edge_alive == base.dag.edge_alive).all(), name
            for got, want in zip(res.paths, base.paths):
                assert np.array_equal(got, want), name

    def test_result_is_tagged_with_backend(self, small_prepared):
        assembler, prep = small_prepared
        results = finish_all_backends(assembler, prep, 4)
        for name, res in results.items():
            assert res.backend == name
            assert res.time_kind == ("virtual" if name == "sim" else "wall")

    def test_repeat_runs_deterministic(self, small_prepared):
        assembler, prep = small_prepared
        a = assembler.finish(prep, n_partitions=4, backend="process")
        b = assembler.finish(prep, n_partitions=4, backend="process")
        assert contig_key(a) == contig_key(b)


@pytest.mark.slow
class TestStandardDatasetEquivalence:
    """D1/D2 across partition counts — the PR's acceptance gate."""

    @pytest.mark.parametrize("dataset_name", ["D1", "D2"])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_backends_agree(self, dataset_name, k):
        from repro.bench.datasets import standard_datasets

        dataset = next(
            d for d in standard_datasets() if d.name == dataset_name
        )
        assembler = FocusAssembler(
            AssemblyConfig(backend_workers=2), cost_model=FAST
        )
        prep = assembler.prepare(dataset.reads)
        results = finish_all_backends(assembler, prep, k)
        base = results["serial"]
        for name in ("sim", "process"):
            res = results[name]
            assert contig_key(res) == contig_key(base), (dataset_name, k, name)
            assert (res.dag.node_alive == base.dag.node_alive).all()
            assert (res.dag.edge_alive == base.dag.edge_alive).all()
