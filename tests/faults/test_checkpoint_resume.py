"""Checkpoint/resume: interrupted runs restart from the last good stage.

Interruption is simulated deterministically: an ``on_stage`` callback
raises once stage X's checkpoint is durable — the path the job service
aborts a cancelled run by — leaving exactly the state a run killed
before the next stage leaves on disk.
"""

import numpy as np
import pytest

from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler

from tests.faults.conftest import FAST, contig_key, small_reads


class Interrupted(Exception):
    """Stands in for a run killed between two stages."""


def interrupt_after(stage):
    """``on_stage`` callback that stops the run once ``stage`` is done."""

    def on_stage(done):
        if done == stage:
            raise Interrupted(stage)

    return on_stage


def run_interrupted(assembler, prep, ckpt, after):
    """Run ``finish`` until the checkpoint after stage ``after``."""
    with pytest.raises(Interrupted):
        assembler.finish(
            prep,
            n_partitions=4,
            backend="serial",
            checkpoint=ckpt,
            on_stage=interrupt_after(after),
        )


@pytest.fixture(scope="module")
def prepared_trimming():
    """A prepared input whose trim stages kill both nodes and edges.

    At 20x coverage transitive reduction removes an edge and
    containment removes nodes before any interruption point below, so
    a resume must restore both alive masks.  (At the suite's shared 10x
    input no edge ever dies, and a resume that drops ``edge_alive``
    would pass.)
    """
    assembler = FocusAssembler(AssemblyConfig(backend_workers=2), cost_model=FAST)
    return assembler, assembler.prepare(small_reads(coverage=20))


@pytest.fixture(scope="module")
def uninterrupted(prepared_trimming):
    """The fault-free serial run a resumed run must reproduce."""
    assembler, prep = prepared_trimming
    result = assembler.finish(prep, n_partitions=4, backend="serial")
    assert not result.dag.node_alive.all() and not result.dag.edge_alive.all()
    return result


def assert_resumed(result, uninterrupted):
    """Same contigs and both alive masks as the uninterrupted run."""
    assert contig_key(result) == contig_key(uninterrupted)
    for mask in ("node_alive", "edge_alive"):
        np.testing.assert_array_equal(
            getattr(result.dag, mask), getattr(uninterrupted.dag, mask), err_msg=mask
        )


class TestResume:
    def test_resume_skips_completed_trim_stages(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="containment")

        result = assembler.finish(
            prep, n_partitions=4, backend="serial", checkpoint=ckpt, resume=True
        )
        assert_resumed(result, uninterrupted)
        # transitive+containment were restored, dead_ends onward re-ran:
        # the trim timer exists but the restored stage times come from
        # the checkpoint.
        assert "trim" in result.timer.durations
        for stage in ("transitive", "containment", "dead_ends", "bubbles"):
            assert stage in result.virtual_times

    def test_resume_after_trim_skips_trim_entirely(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="bubbles")

        result = assembler.finish(
            prep, n_partitions=4, backend="serial", checkpoint=ckpt, resume=True
        )
        assert_resumed(result, uninterrupted)
        # Every trim stage was restored: the StageTimer must not have
        # opened a "trim" stage at all (nothing was executed).
        assert "trim" not in result.timer.durations
        assert "traverse" in result.timer.durations
        assert result.virtual_times["trim_total"] >= 0.0

    def test_resume_of_finished_checkpoint_runs_no_stage(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        assembler.finish(
            prep, n_partitions=4, backend="serial", checkpoint=ckpt
        )
        result = assembler.finish(
            prep, n_partitions=4, backend="serial", checkpoint=ckpt, resume=True
        )
        assert_resumed(result, uninterrupted)
        assert "trim" not in result.timer.durations
        assert "traverse" not in result.timer.durations

    def test_resume_across_backends(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        # Contigs are backend-identical, so a checkpoint written under
        # serial may resume under sim.
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="dead_ends")
        result = assembler.finish(
            prep, n_partitions=4, backend="sim", checkpoint=ckpt, resume=True
        )
        assert_resumed(result, uninterrupted)

    def test_missing_checkpoint_starts_fresh(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        result = assembler.finish(
            prep,
            n_partitions=4,
            backend="serial",
            checkpoint=tmp_path / "never_written.bin",
            resume=True,
        )
        assert_resumed(result, uninterrupted)
        assert "trim" in result.timer.durations

    def test_mismatched_fingerprint_refused(self, prepared_trimming, tmp_path):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        assembler.finish(prep, n_partitions=4, backend="serial", checkpoint=ckpt)
        with pytest.raises(ValueError, match="does not match"):
            assembler.finish(
                prep, n_partitions=2, backend="serial", checkpoint=ckpt, resume=True
            )

    def test_resume_requires_checkpoint_path(self, prepared_trimming):
        assembler, prep = prepared_trimming
        with pytest.raises(ValueError, match="requires a checkpoint"):
            assembler.finish(prep, n_partitions=4, resume=True)
