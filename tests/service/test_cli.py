"""CLI surface tests: submit / jobs / serve / cancel round trips."""

import re

import pytest

from repro.cli import main


class TestSubmitJobsServe:
    def test_full_round_trip(self, tmp_path, reads_path, capsys):
        store = str(tmp_path / "jobs.store")
        rc = main(
            [
                "submit",
                store,
                reads_path,
                "--name",
                "cli",
                "--seed",
                "7",
                "--priority",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "submitted cli-" in out
        job_id = out.split()[1]

        rc = main(["jobs", store])
        assert rc == 0
        listing = capsys.readouterr().out
        assert job_id in listing
        assert "queued" in listing

        rc = main(["serve", store, "--drain", "--poll-interval", "0.02",
                   "--lease-ttl", "5", "--max-seconds", "60"])
        assert rc == 0
        assert "done" in capsys.readouterr().out

        rc = main(["jobs", store])
        assert rc == 0
        assert "done" in capsys.readouterr().out

        rc = main(["jobs", store, "--journal", job_id])
        assert rc == 0
        journal = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"\d\d:\d\d:\d\d +submitted -> queued +attempt 1 *", journal[0])
        assert re.match(r"\d\d:\d\d:\d\d +[a-z]+ -> done +attempt 1 ", journal[-1])

    def test_submit_requires_exactly_one_input(self, tmp_path, capsys):
        rc = main(["submit", str(tmp_path / "s")])
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_relative_reads_path_is_stored_absolute(
        self, tmp_path, reads_path, capsys, monkeypatch
    ):
        import os

        from repro.service import JobStore

        store = str(tmp_path / "jobs.store")
        monkeypatch.chdir(os.path.dirname(reads_path))
        assert main(["submit", store, os.path.basename(reads_path)]) == 0
        job_id = capsys.readouterr().out.split()[1]
        stored = JobStore(store).load_spec(job_id).reads_path
        assert os.path.isabs(stored) and os.path.samefile(stored, reads_path)

    @pytest.mark.parametrize("flag", [None, "--store"])
    def test_missing_input_exits_one_and_queues_nothing(self, tmp_path, capsys, flag):
        store = tmp_path / "jobs.store"
        missing = str(tmp_path / "missing")
        argv = ["submit", str(store)] + ([flag] if flag else []) + [missing]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not store.exists()

    @pytest.mark.parametrize(
        "options",
        [
            ["--partitions", "3"],
            ["--fault-plan", "random:1", "--backend", "serial"],
            ["--retries", "0"],
            ["--seed", "-1"],
        ],
        ids=["partitions-3", "fault-plan-off-process", "retries-0", "seed-negative"],
    )
    def test_bad_assembly_option_exits_one_and_queues_nothing(
        self, tmp_path, reads_path, capsys, options
    ):
        store = tmp_path / "jobs.store"
        assert main(["submit", str(store), reads_path, *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not store.exists()

    def test_job_runs_the_config_assemble_parses(self, tmp_path, reads_path, capsys):
        from repro.cli import _assemble_config, build_parser
        from repro.core.config import AssemblyConfig
        from repro.service import JobStore

        options = [
            "--cache-budget-mb", "8", "--partitions", "8", "--mode", "multilevel",
            "--min-overlap", "45", "--min-identity", "0.85", "--workers", "2",
            "--backend", "process", "--backend-workers", "2",
            "--fault-plan", "random:3", "--retries", "4", "--seed", "5",
        ]
        assemble = build_parser().parse_args(["assemble", reads_path, "-o", "c.fa", *options])
        expected = _assemble_config(assemble)
        assert expected.fault_plan is not None and expected.retry.max_attempts == 4
        store = str(tmp_path / "jobs.store")
        assert main(["submit", store, reads_path, *options]) == 0
        job_id = capsys.readouterr().out.split()[1]
        # spec.json keeps the config itself, fault plan included.
        assert JobStore(store).load_spec(job_id).config == expected
        assert expected != AssemblyConfig()

    def test_unreadable_spec_fails_that_job_alone(self, tmp_path, reads_path, capsys):
        import json
        import os

        from repro.service import JobStore
        from repro.service.jobstore import SPEC_NAME

        store = str(tmp_path / "jobs.store")
        ids = []
        for name in ("a", "b"):
            argv = ["submit", store, reads_path, "--name", name, "--backend", "serial"]
            assert main(argv) == 0
            ids.append(capsys.readouterr().out.split()[1])
        a, b = ids
        spec_path = os.path.join(JobStore(store).job_dir(a), SPEC_NAME)
        with open(spec_path, "w") as fh:
            json.dump({"reads_path": "x", "color": 1}, fh)
        rc = main(["serve", store, "--drain", "--poll-interval", "0.02",
                   "--lease-ttl", "5", "--max-seconds", "60"])
        assert rc == 0
        jobs = JobStore(store)
        assert jobs.load_record(b).state == "done"
        failed = jobs.load_record(a)
        assert failed.state == "failed" and spec_path in failed.error
        last = jobs.journal(a)[-1]
        assert (last.prior, last.record.state) == ("queued", "failed")

    def test_unreadable_record_skips_that_job_and_is_named(self, tmp_path, reads_path, capsys):
        import os

        from repro.service import JobStore
        from repro.service.jobstore import JOURNAL_NAME

        store = str(tmp_path / "jobs.store")
        ids = []
        for name in ("a", "b"):
            argv = ["submit", store, reads_path, "--name", name, "--backend", "serial"]
            assert main(argv) == 0
            ids.append(capsys.readouterr().out.split()[1])
        a, b = ids
        journal_path = os.path.join(JobStore(store).job_dir(b), JOURNAL_NAME)
        with open(journal_path, "rb") as fh:
            journal = fh.read()
        with open(journal_path, "wb") as fh:
            fh.write(b"{\n" + journal)  # an undecodable line before the first
        rc = main(["serve", store, "--drain", "--poll-interval", "0.02",
                   "--lease-ttl", "5", "--max-seconds", "60"])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and journal_path in err
        assert JobStore(store).load_record(a).state == "done"
        assert main(["jobs", store]) == 1
        out, err = capsys.readouterr()
        assert a in out and b not in out
        assert err.startswith(f"error: corrupt job record {journal_path!r} line 1:")
        assert main(["jobs", store, "--journal", b]) == 1
        assert capsys.readouterr().err.startswith(f"error: corrupt job record {journal_path!r}")

    def test_jobs_on_missing_store_errors(self, tmp_path, capsys):
        rc = main(["jobs", str(tmp_path / "nope")])
        assert rc == 1
        assert "not a job store" in capsys.readouterr().err

    def test_cancel_queued_job(self, tmp_path, reads_path, capsys):
        store = str(tmp_path / "jobs.store")
        main(["submit", store, reads_path])
        job_id = capsys.readouterr().out.split()[1]
        rc = main(["cancel", store, job_id])
        assert rc == 0
        assert "cancelled" in capsys.readouterr().out
        # cancelling again is a no-op and exits 1
        rc = main(["cancel", store, job_id])
        assert rc == 1
        assert "ignored" in capsys.readouterr().out


class TestVerifyStoreCli:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        import numpy as np

        from repro.io.records import Read
        from repro.store.reads import pack_reads

        reads = [
            Read(f"r{i}", np.zeros(50, dtype=np.uint8)) for i in range(300)
        ]
        store = str(tmp_path / "reads.store")
        pack_reads(reads, store, shard_size=128)
        rc = main(["verify-store", store])
        assert rc == 0
        assert "scrub: ok" in capsys.readouterr().out

    def test_corrupt_store_exits_one_and_quarantines(self, tmp_path, capsys):
        import os

        import numpy as np

        from repro.io.records import Read
        from repro.store.reads import pack_reads
        from repro.store.sharded import SHARD_PATTERN

        reads = [
            Read(f"r{i}", np.zeros(50, dtype=np.uint8)) for i in range(300)
        ]
        store = str(tmp_path / "reads.store")
        pack_reads(reads, store, shard_size=128)
        shard = next(
            e for e in sorted(os.listdir(store)) if SHARD_PATTERN.fullmatch(e)
        )
        with open(os.path.join(store, shard), "r+b") as fh:
            fh.truncate(100)
        rc = main(["verify-store", store, "--quarantine"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "BAD" in out and "quarantined" in out
        assert os.path.exists(os.path.join(store, "quarantine", shard))

    def test_bit_flipped_shard_is_quarantined_then_repacked(
        self, tmp_path, reads_path, capsys
    ):
        import os

        from repro.io.fasta import parse_reads
        from repro.io.readset import ReadSet
        from repro.store.sharded import shard_name

        store = str(tmp_path / "reads.store")
        pack = ["pack", reads_path, "-o", store, "--shard-size", "100"]
        assert main(pack) == 0
        victim = os.path.join(store, shard_name(1))
        with open(victim, "r+b") as fh:
            fh.seek(os.path.getsize(victim) // 2)  # inside the base codes
            byte = fh.read(1)[0]
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte ^ 0x04]))
        capsys.readouterr()
        assert main(["verify-store", store, "--quarantine"]) == 1
        out = capsys.readouterr().out
        assert f"BAD {shard_name(1)}" in out and "quarantined" in out
        assert not os.path.exists(victim)
        assert os.path.exists(os.path.join(store, "quarantine", shard_name(1)))
        assert main([*pack, "--resume"]) == 0
        assert main(["verify-store", store]) == 0
        opened = ReadSet.open(store)
        source = list(parse_reads(reads_path))
        assert len(opened) == len(source)
        for i, read in enumerate(source):
            assert opened.ids[i] == read.id
            assert (opened.codes_of(i) == read.codes).all()
