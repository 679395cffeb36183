"""Checkpoint/resume: interrupted runs restart from the last good stage.

Interruption is simulated deterministically: an ``on_stage`` callback
raises once stage X's checkpoint is durable — the path the job service
aborts a cancelled run by — leaving exactly the state a run killed
before the next stage leaves on disk.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AssemblyConfig, FocusAssembler, finish_plan
from repro.io.store import load_checkpoint

from tests.faults.conftest import FAST, contig_key, small_reads


class Interrupted(Exception):
    """Stands in for a run killed between two stages."""


def run_interrupted(assembler, prep, ckpt, after):
    """Run ``finish`` until the checkpoint after stage ``after``."""

    def on_stage(done):
        if done == after:
            raise Interrupted(after)

    with pytest.raises(Interrupted):
        assembler.finish(
            prep,
            n_partitions=4,
            backend="serial",
            checkpoint=ckpt,
            on_stage=on_stage,
        )


def resume(assembler, prep, ckpt, n_partitions=4, backend="serial"):
    """``finish`` resumed from the checkpoint at ``ckpt``."""
    return assembler.finish(
        prep, n_partitions=n_partitions, backend=backend, checkpoint=ckpt, resume=True
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

        result = resume(assembler, prep, ckpt)
        assert_resumed(result, uninterrupted)
        # transitive+containment were restored, dead_ends onward re-ran:
        # the trim timer exists but the restored stage times come from
        # the checkpoint.
        assert "trim" in result.timer.durations
        for stage, _ in finish_plan(assembler.config):
            assert stage in result.virtual_times

    def test_resume_after_trim_skips_trim_entirely(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="bubbles")

        result = resume(assembler, prep, ckpt)
        assert_resumed(result, uninterrupted)
        # Every trim stage was restored: the StageTimer must not have
        # opened a "trim" stage at all (nothing was executed).
        assert "trim" not in result.timer.durations
        assert "traverse" in result.timer.durations

    def test_resume_of_finished_checkpoint_runs_no_stage(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        assembler.finish(
            prep, n_partitions=4, backend="serial", checkpoint=ckpt
        )
        result = resume(assembler, prep, ckpt)
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
        result = resume(assembler, prep, ckpt, backend="sim")
        assert_resumed(result, uninterrupted)

    def test_missing_checkpoint_starts_fresh(
        self, prepared_trimming, uninterrupted, tmp_path
    ):
        assembler, prep = prepared_trimming
        result = resume(assembler, prep, tmp_path / "never_written.bin")
        assert_resumed(result, uninterrupted)
        assert "trim" in result.timer.durations

    def test_mismatched_fingerprint_refused(self, prepared_trimming, tmp_path):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        assembler.finish(prep, n_partitions=4, backend="serial", checkpoint=ckpt)
        with pytest.raises(ValueError, match="does not match"):
            resume(assembler, prep, ckpt, n_partitions=2)

    def test_changed_seed_refused(self, prepared_trimming, tmp_path):
        # Another seed partitions differently: its masks are not this run's.
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="transitive")
        changed = FocusAssembler(replace(assembler.config, seed=7))
        with pytest.raises(ValueError, match="does not match"):
            resume(changed, prep, ckpt)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("transitive_tolerance", 3),
            ("containment_min_overlap", 60),
            ("containment_min_identity", 0.95),
            ("max_tip_bases", 100),
            ("run_trimming", False),
        ],
    )
    def test_changed_finish_parameter_refused(
        self, prepared_trimming, tmp_path, field, value
    ):
        # Masks trimmed under one setting must never seed a run under another.
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="transitive")
        changed = FocusAssembler(replace(assembler.config, **{field: value}))
        assert finish_plan(changed.config) != finish_plan(assembler.config)
        with pytest.raises(ValueError, match="does not match"):
            resume(changed, prep, ckpt)

    def test_fingerprint_survives_the_json_header(self, prepared_trimming, tmp_path):
        assembler, prep = prepared_trimming
        ckpt = tmp_path / "ck.bin"
        run_interrupted(assembler, prep, ckpt, after="transitive")
        saved = load_checkpoint(ckpt).fingerprint
        assert saved == assembler._fingerprint(prep, 4, "hybrid")
        assert saved["plan"] == [list(step) for step in finish_plan(assembler.config)]

    def test_resume_requires_checkpoint_path(self, prepared_trimming):
        assembler, prep = prepared_trimming
        with pytest.raises(ValueError, match="requires a checkpoint"):
            assembler.finish(prep, n_partitions=4, resume=True)
