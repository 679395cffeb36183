"""Tests for spectral read correction."""

import numpy as np
import pytest

from repro.correct.corrector import ReadCorrector
from repro.correct.spectrum import KmerSpectrum
from repro.io.readset import ReadSet
from repro.sequence.dna import decode
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator


@pytest.fixture(scope="module")
def clean_world():
    g = Genome("g", random_genome(3000, np.random.default_rng(8)))
    sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=15, seed=8, flat_error_rate=0.0))
    reads = sim.simulate_genome(g)
    spectrum = KmerSpectrum(reads, k=21, threshold=3)
    return g, reads, spectrum


def plant_error(codes, pos):
    out = codes.copy()
    out[pos] = (out[pos] + 1) % 4
    return out


class TestCorrectRead:
    def test_clean_read_untouched(self, clean_world):
        _, reads, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        codes, changed, clean = corrector.correct_read(reads.codes_of(0))
        assert changed == 0 and clean
        assert (codes == reads.codes_of(0)).all()

    @pytest.mark.parametrize("pos", [0, 30, 50, 99])
    def test_single_error_fixed_exactly(self, clean_world, pos):
        _, reads, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        original = reads.codes_of(5)
        noisy = plant_error(original, pos)
        fixed, changed, clean = corrector.correct_read(noisy)
        assert clean
        assert changed == 1
        assert (fixed == original).all()

    def test_two_errors_fixed(self, clean_world):
        _, reads, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        original = reads.codes_of(7)
        noisy = plant_error(plant_error(original, 20), 70)
        fixed, changed, clean = corrector.correct_read(noisy)
        assert clean and changed == 2
        assert (fixed == original).all()

    def test_garbage_read_uncorrectable(self, clean_world):
        _, _, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        alien = random_genome(100, np.random.default_rng(12345))
        _, _, clean = corrector.correct_read(alien)
        assert not clean

    def test_short_read_left_alone(self, clean_world):
        _, _, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        short = np.array([0, 1, 2, 3], dtype=np.uint8)
        codes, changed, clean = corrector.correct_read(short)
        assert changed == 0 and clean

    def test_max_corrections_cap(self, clean_world):
        _, reads, spectrum = clean_world
        corrector = ReadCorrector(spectrum, max_corrections_per_read=1)
        original = reads.codes_of(9)
        noisy = plant_error(plant_error(original, 20), 70)
        _, changed, clean = corrector.correct_read(noisy)
        assert changed <= 1
        assert not clean  # one fix is not enough

    def test_invalid_config(self, clean_world):
        _, _, spectrum = clean_world
        with pytest.raises(ValueError):
            ReadCorrector(spectrum, max_corrections_per_read=0)


class TestCorrectReadSet:
    def test_stats_accounting(self, clean_world):
        _, reads, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        # corrupt every 10th read
        from repro.io.records import Read

        noisy_reads = []
        for i in range(60):
            codes = reads.codes_of(i).copy()
            if i % 10 == 0:
                codes = plant_error(codes, 50)
            noisy_reads.append(Read(reads.ids[i], codes, meta=reads.meta[i]))
        rs = ReadSet(noisy_reads)
        fixed, stats = corrector.correct_readset(rs)
        assert stats.n_reads == 60
        assert stats.n_corrected == 6
        assert stats.n_bases_changed == 6
        assert stats.n_clean == 54
        assert len(fixed) == 60

    def test_drop_uncorrectable(self, clean_world):
        _, reads, spectrum = clean_world
        corrector = ReadCorrector(spectrum)
        from repro.io.records import Read

        alien = Read("alien", random_genome(100, np.random.default_rng(77)))
        rs = ReadSet([reads[0], alien])
        fixed, stats = corrector.correct_readset(rs, drop_uncorrectable=True)
        assert len(fixed) == 1
        assert stats.n_uncorrectable == 1

    def test_end_to_end_improves_error_assembly(self):
        # simulate errory reads; correction should reduce weak k-mers
        g = Genome("g", random_genome(3000, np.random.default_rng(9)))
        sim = ReadSimulator(
            ReadSimConfig(read_length=100, coverage=15, seed=9, flat_error_rate=0.005)
        )
        reads = sim.simulate_genome(g)
        spectrum = KmerSpectrum(reads, k=21, threshold=3)
        corrector = ReadCorrector(spectrum)
        fixed, stats = corrector.correct_readset(reads)
        assert stats.n_corrected > 0
        # weak-window mass decreases after correction
        before = sum(
            int(corrector._weak_windows(reads.codes_of(i)).sum()) for i in range(len(reads))
        )
        after = sum(
            int(corrector._weak_windows(fixed.codes_of(i)).sum()) for i in range(len(fixed))
        )
        assert after < before


class TestAgainstTruth:
    """Corrections scored against the simulator's error-free twin reads."""

    @pytest.mark.parametrize("seed", [3, 5, 17])
    def test_corrections_match_truth(self, seed):
        g = Genome("g", random_genome(4000, np.random.default_rng(seed)))
        config = dict(read_length=100, coverage=14, seed=seed)
        noisy = ReadSimulator(ReadSimConfig(**config, flat_error_rate=0.012)).simulate_genome(g)
        truth = ReadSimulator(ReadSimConfig(**config, flat_error_rate=0.0)).simulate_genome(g)
        # Starts and strands are drawn before any error, so the twins
        # sample the same fragments.
        assert [(m["position"], m["strand"]) for m in noisy.meta] == [
            (m["position"], m["strand"]) for m in truth.meta
        ]
        corrector = ReadCorrector(KmerSpectrum(noisy, k=21))
        changed = right = errors = fixed = 0
        for i in range(len(noisy)):
            before, want = noisy.codes_of(i), truth.codes_of(i)
            after, _, clean = corrector.correct_read(before)
            if clean:
                assert (after == want).all(), f"read {i} reported clean but is wrong"
            moved = after != before
            changed += int(moved.sum())
            right += int((moved & (after == want)).sum())
            wrong = before != want
            errors += int(wrong.sum())
            fixed += int((wrong & (after == want)).sum())
        assert errors > 0 and changed > 0
        assert right / changed >= 0.99
        assert fixed / errors >= 0.6
