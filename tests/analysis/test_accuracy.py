"""Tests for the QUAST-lite assembly accuracy evaluator."""

import numpy as np
import pytest

from repro.analysis.accuracy import evaluate_assembly
from repro.sequence.dna import reverse_complement
from repro.simulate.genome import Genome, random_genome


@pytest.fixture
def reference():
    return Genome("ref", random_genome(5000, np.random.default_rng(42)))


class TestEvaluateAssembly:
    def test_perfect_single_contig(self, reference):
        report = evaluate_assembly([reference.codes.copy()], [reference])
        assert report.n_placed == 1
        assert report.genome_fraction == pytest.approx(1.0)
        assert report.mean_identity == pytest.approx(1.0)
        assert report.duplication_ratio == pytest.approx(1.0)
        assert report.n_misassembled == 0

    def test_partial_coverage(self, reference):
        contigs = [reference.codes[:1000].copy(), reference.codes[3000:4000].copy()]
        report = evaluate_assembly(contigs, [reference])
        assert report.genome_fraction == pytest.approx(0.4)
        assert report.n_placed == 2
        p0 = report.placements[0]
        assert p0.position == 0 and p0.strand == "+"

    def test_reverse_strand_placed(self, reference):
        contig = reverse_complement(reference.codes[1000:2000])
        report = evaluate_assembly([contig], [reference])
        assert report.n_placed == 1
        assert report.placements[0].strand == "-"

    def test_duplicated_assembly(self, reference):
        contig = reference.codes[:2000].copy()
        report = evaluate_assembly([contig, contig.copy()], [reference])
        assert report.duplication_ratio == pytest.approx(2.0)
        assert report.genome_fraction == pytest.approx(0.4)

    def test_garbage_contig_flagged(self, reference):
        alien = random_genome(800, np.random.default_rng(999))
        report = evaluate_assembly([alien], [reference])
        assert report.n_misassembled == 1
        assert report.n_placed == 0
        assert report.genome_fraction == 0.0

    def test_chimeric_contig_flagged(self, reference):
        # two distant regions glued together: no single placement verifies
        chimera = np.concatenate([reference.codes[:500], reference.codes[3000:3500]])
        report = evaluate_assembly([chimera], [reference], min_identity=0.95)
        assert report.n_misassembled == 1

    def test_unplaced_contig_reports_best_unverified_identity(
        self, reference, monkeypatch
    ):
        """One placement pass for all contigs, placed or not: the
        chimera's best diagonal verifies its first half and ~1/4 of the
        second."""
        from repro.analysis import accuracy

        calls = []
        real = accuracy.place_each
        monkeypatch.setattr(
            accuracy,
            "place_each",
            lambda queries, *a, **kw: calls.append(len(queries)) or real(queries, *a, **kw),
        )
        chimera = np.concatenate([reference.codes[:500], reference.codes[3000:3500]])
        report = evaluate_assembly([chimera, reference.codes[:400].copy()], [reference])
        bad, good = report.placements
        assert not bad.placed and bad.reference is None and bad.position is None
        assert 0.55 < bad.identity < 0.7
        assert good.placed and good.identity == 1.0
        assert calls == [2]

    def test_small_errors_tolerated(self, reference):
        noisy = reference.codes[:2000].copy()
        noisy[::211] = (noisy[::211] + 1) % 4  # ~0.5% errors
        report = evaluate_assembly([noisy], [reference], min_identity=0.95)
        assert report.n_placed == 1
        assert 0.98 < report.placements[0].identity < 1.0

    def test_multiple_references(self, reference):
        other = Genome("ref2", random_genome(3000, np.random.default_rng(43)))
        contigs = [reference.codes[:1000].copy(), other.codes[500:1500].copy()]
        report = evaluate_assembly(contigs, [reference, other])
        assert report.n_placed == 2
        refs = {p.reference for p in report.placements}
        assert refs == {"ref", "ref2"}

    def test_no_references_rejected(self):
        with pytest.raises(ValueError):
            evaluate_assembly([np.zeros(10, dtype=np.uint8)], [])

    def test_focus_assembly_is_accurate(self, reference):
        # integration: the real assembler's output passes the evaluator
        from repro import AssemblyConfig, FocusAssembler
        from repro.mpi.timing import CommCostModel
        from repro.simulate.reads import ReadSimConfig, ReadSimulator

        reads = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=10, seed=42)
        ).simulate_genome(reference)
        result = FocusAssembler(
            AssemblyConfig(n_partitions=2), cost_model=CommCostModel(alpha=1e-6)
        ).assemble(reads)
        report = evaluate_assembly(result.contigs, [reference], min_identity=0.95)
        assert report.n_misassembled == 0
        assert report.genome_fraction > 0.8
        assert report.mean_identity > 0.99
