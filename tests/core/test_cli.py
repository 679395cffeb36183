"""Tests for the command-line interface."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.io.fasta import parse_fasta, write_contigs
from repro.io.fastq import parse_fastq


@pytest.fixture
def genome_fasta(tmp_path):
    path = tmp_path / "genome.fasta"
    assert main(["simulate-genome", "--length", "6000", "--seed", "1", "-o", str(path)]) == 0
    return path


@pytest.fixture
def reads_fastq(tmp_path, genome_fasta):
    path = tmp_path / "reads.fastq"
    rc = main(
        ["simulate-reads", "--genome", str(genome_fasta), "--coverage", "10",
         "--seed", "1", "-o", str(path)]
    )
    assert rc == 0
    return path


class TestSimulateCommands:
    def test_simulate_genome(self, genome_fasta):
        recs = list(parse_fasta(genome_fasta))
        assert len(recs) == 1
        assert len(recs[0]) == 6000

    def test_simulate_reads(self, reads_fastq):
        reads = list(parse_fastq(reads_fastq))
        assert len(reads) == 600
        assert all(len(r) == 100 for r in reads)
        assert all(r.quals is not None for r in reads)

    def test_simulate_reads_missing_genome(self, tmp_path):
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        rc = main(["simulate-reads", "--genome", str(empty), "-o", str(tmp_path / "r.fq")])
        assert rc == 1

    def test_simulate_community(self, tmp_path):
        reads_path = tmp_path / "community.fastq"
        refs_path = tmp_path / "refs.fasta"
        rc = main(
            ["simulate-community", "--seed", "3", "--coverage", "2",
             "--shared-length", "1500", "--private-length", "1000",
             "-o", str(reads_path), "--refs", str(refs_path)]
        )
        assert rc == 0
        assert len(list(parse_fastq(reads_path))) > 100
        refs = list(parse_fasta(refs_path))
        assert len(refs) == 10  # the ten gut genera


class TestAssembleAndStats:
    def test_assemble_roundtrip(self, tmp_path, reads_fastq, capsys):
        contigs_path = tmp_path / "contigs.fasta"
        rc = main(
            ["assemble", str(reads_fastq), "-o", str(contigs_path), "--partitions", "2"]
        )
        assert rc == 0
        contigs = list(parse_fasta(contigs_path))
        assert len(contigs) >= 1
        assert sum(len(c) for c in contigs) > 3000
        out = capsys.readouterr().out
        assert "N50" in out

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_assemble_backend_flag(self, tmp_path, reads_fastq, capsys, backend):
        contigs_path = tmp_path / f"contigs_{backend}.fasta"
        rc = main(
            ["assemble", str(reads_fastq), "-o", str(contigs_path),
             "--partitions", "2", "--backend", backend]
        )
        assert rc == 0
        assert len(list(parse_fasta(contigs_path))) >= 1
        assert f"[{backend} backend]" in capsys.readouterr().out

    def test_assemble_backends_agree_on_contigs(self, tmp_path, reads_fastq):
        outputs = {}
        for backend in ("serial", "sim", "process"):
            path = tmp_path / f"c_{backend}.fasta"
            rc = main(
                ["assemble", str(reads_fastq), "-o", str(path),
                 "--partitions", "2", "--backend", backend]
            )
            assert rc == 0
            outputs[backend] = sorted(
                r.codes.tobytes() for r in parse_fasta(path)
            )
        assert outputs["serial"] == outputs["sim"] == outputs["process"]

    def test_assemble_workers_gives_the_pool_units_to_share(self, tmp_path, reads_fastq):
        from repro.cli import _assemble_config, build_parser

        outputs = {}
        for workers in (0, 1, 2):
            path = tmp_path / f"c_{workers}.fasta"
            argv = ["assemble", str(reads_fastq), "-o", str(path), "--partitions", "2",
                    "--backend", "serial", "--workers", str(workers)]
            config = _assemble_config(build_parser().parse_args(argv))
            assert config.overlap_workers == workers
            assert (config.overlap.n_subsets > 1) == (workers > 1)
            assert main(argv) == 0
            outputs[workers] = path.read_bytes()
        assert outputs[2] == outputs[1] == outputs[0]

    def test_assemble_timings_json(self, tmp_path, reads_fastq):
        import json

        contigs_path = tmp_path / "contigs.fasta"
        timings_path = tmp_path / "timings.json"
        rc = main(
            ["assemble", str(reads_fastq), "-o", str(contigs_path),
             "--partitions", "2", "--backend", "serial",
             "--timings", str(timings_path)]
        )
        assert rc == 0
        payload = json.loads(timings_path.read_text())
        assert payload["backend"] == "serial"
        assert payload["distributed"]["time_kind"] == "wall"
        for stage in ("align", "partition", "traverse"):
            assert stage in payload["stages"]
        for stage in ("transitive", "traversal"):
            assert stage in payload["distributed"]["stages"]
        assert payload["total"] == pytest.approx(sum(payload["stages"].values()))

    def test_assemble_trace_jsonl(self, tmp_path, reads_fastq):
        import json

        trace_path, timings_path = tmp_path / "trace.jsonl", tmp_path / "t.json"
        rc = main(
            ["assemble", str(reads_fastq), "-o", str(tmp_path / "c.fasta"),
             "--partitions", "2", "--backend", "serial",
             "--timings", str(timings_path), "--trace", str(trace_path)]
        )
        assert rc == 0
        spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert all(
            s.keys() == {"id", "name", "start", "end", "parent", "tags", "counts"}
            for s in spans
        )
        assert [s["id"] for s in spans] == list(range(len(spans)))
        # The top-level spans are the --timings stages, summed by name.
        stages = json.loads(timings_path.read_text())["stages"]
        top = {}
        for s in spans:
            if s["parent"] is None:
                top[s["name"]] = top.get(s["name"], 0.0) + s["end"] - s["start"]
        assert top.keys() == stages.keys()
        assert all(top[k] == pytest.approx(v) for k, v in stages.items())
        (contigs,) = [s for s in spans if s["name"] == "contigs"]
        assert contigs["counts"]["bases_voted"] > 0

    def test_assemble_store_trace_counts(self, tmp_path, reads_fastq):
        """The align span counts the candidates verified, the partition
        span the imbalance, and the store-reading spans the read store
        cache's hits, misses and evictions."""
        import json

        store, trace_path = tmp_path / "reads.store", tmp_path / "trace.jsonl"
        assert main(["pack", str(reads_fastq), "-o", str(store), "--shard-size", "50"]) == 0
        rc = main(
            ["assemble", "--store", str(store), "-o", str(tmp_path / "c.fasta"),
             "--partitions", "2", "--backend", "serial", "--trace", str(trace_path)]
        )
        assert rc == 0
        spans = {
            s["name"]: s["counts"]
            for s in map(json.loads, trace_path.read_text().splitlines())
            if s["parent"] is None
        }
        assert spans["align"]["candidates_verified"] > 0
        assert spans["partition"]["imbalance"] >= 1.0
        # Trimming loads each of the 12 shards of 50 reads once; align
        # loads the trimmed shards, builds their mates and packs their
        # k-mers, which enrich reads back.  A 64 MiB cache evicts nothing.
        assert spans["preprocess"]["cache_misses"] >= 12
        assert spans["align"]["cache_hits"] > 0 and spans["align"]["cache_misses"] >= 24
        assert spans["enrich"]["cache_hits"] > 0 and "cache_misses" in spans["enrich"]
        for name in ("preprocess", "align", "enrich"):
            assert spans[name]["cache_evictions"] == 0

    def test_assemble_trace_counts_fault_recovery(self, tmp_path, reads_fastq):
        """Crashed workers on both pools: the align span and the finish
        spans count the retries and fallbacks, and their sums are the
        run's fault report."""
        import json

        plan = {
            "kernel_faults": [
                {"kind": "crash", "stage": "overlap", "part": 0},
                # Past the 2-attempt budget: one retry, then the fallback.
                {"kind": "crash", "stage": "transitive", "part": 1, "attempts": 5},
                {"kind": "crash", "stage": "dead_ends", "part": 0},
            ]
        }
        plan_path, trace_path = tmp_path / "plan.json", tmp_path / "trace.jsonl"
        timings_path = tmp_path / "t.json"
        plan_path.write_text(json.dumps(plan))
        rc = main(
            ["assemble", str(reads_fastq), "-o", str(tmp_path / "c.fasta"),
             "--partitions", "2", "--workers", "2", "--backend", "process",
             "--backend-workers", "2", "--retries", "2", "--fault-plan", str(plan_path),
             "--trace", str(trace_path), "--timings", str(timings_path)]
        )
        assert rc == 0
        report = json.loads(timings_path.read_text())["faults"]
        spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
        counted = {
            s["name"]: (s["counts"]["retries"], s["counts"]["fallbacks"])
            for s in spans
            if "retries" in s["counts"]
        }
        faulted = {name: c for name, c in counted.items() if c != (0, 0)}
        assert faulted.keys() == {"align", "transitive", "dead_ends"}
        assert faulted["align"] == faulted["dead_ends"] == (1, 0)
        assert faulted["transitive"][1] == 1
        for i, name in enumerate(("retries", "fallbacks")):
            assert sum(c[i] for c in counted.values()) == report[name]

    def test_assemble_unknown_backend_exits(self, tmp_path, reads_fastq):
        with pytest.raises(SystemExit):
            main(
                ["assemble", str(reads_fastq), "-o", str(tmp_path / "c.fasta"),
                 "--backend", "threads"]
            )

    def test_assemble_empty_input(self, tmp_path):
        empty = tmp_path / "none.fasta"
        empty.write_text("")
        rc = main(["assemble", str(empty), "-o", str(tmp_path / "c.fasta")])
        assert rc == 1

    def test_stats(self, tmp_path, capsys):
        path = tmp_path / "c.fasta"
        path.write_text(">a\n" + "A" * 300 + "\n>b\n" + "C" * 100 + "\n")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "N50:         300" in out
        assert "contigs:     2" in out

    def test_stats_empty(self, tmp_path):
        path = tmp_path / "c.fasta"
        path.write_text("")
        assert main(["stats", str(path)]) == 1

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_pack_and_assemble_store_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        p = parser.parse_args(["pack", "r.fastq", "-o", "r.store"])
        assert p.command == "pack" and p.shard_size == 4096
        a = parser.parse_args(["assemble", "--store", "r.store", "-o", "c.fa"])
        assert a.store == "r.store" and a.reads is None

    def test_options_match_by_exact_name(self, capsys):
        """``--cache-budget`` is not taken for ``--cache-budget-mb``: an
        abbreviation exits 2 and names the option it did not know."""
        from repro.cli import build_parser

        parser = build_parser()
        args = ["assemble", "--store", "r.store", "-o", "c.fa"]
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([*args, "--cache-budget", "20000"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache-budget" in capsys.readouterr().err
        assert parser.parse_args([*args, "--cache-budget-mb", "20"]).cache_budget_mb == 20

    @pytest.mark.parametrize(
        "argv",
        [
            ["assemble", "--store", "r.store", "-o", "c.fa", "--cache-budget", "20000"],
            ["stats", "--bogus", "a.fa"],
        ],
    )
    def test_unknown_option_shows_the_subcommand_usage(self, argv, capsys):
        """An option the subcommand does not know exits 2 under that
        subcommand's usage line, not the list of subcommands."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ")
        assert f"repro {argv[0]}: error: unrecognized arguments: {argv[-2]}" in err

    def test_resume_restores_every_finish_stage(self, tmp_path, reads_fastq, capsys):
        import json

        from repro.core.focus import FINISH_STAGES
        from repro.io.store import load_checkpoint

        checkpoint = tmp_path / "ck"
        fastas, timings = [], []
        for run in range(2):
            out, times = tmp_path / f"c{run}.fasta", tmp_path / f"t{run}.json"
            argv = ["assemble", str(reads_fastq), "-o", str(out), "--partitions", "2",
                    "--checkpoint", str(checkpoint), "--resume", "--timings", str(times)]
            assert main(argv) == 0
            assert f"stage checkpoint at {checkpoint}\n" in capsys.readouterr().out
            fastas.append(out.read_bytes())
            timings.append(json.loads(times.read_text()))
        assert sorted(load_checkpoint(checkpoint).stage_times) == sorted(FINISH_STAGES)
        # The first run executes the trim and traversal stages; the second
        # restores all five from the checkpoint and runs neither.
        assert {"trim", "traverse"} <= timings[0]["stages"].keys()
        assert not {"trim", "traverse"} & timings[1]["stages"].keys()
        assert set(FINISH_STAGES) <= timings[1]["distributed"]["stages"].keys()
        assert fastas[1] == fastas[0]


class TestOverlapTsv:
    """`repro overlap` writes the same bytes, serial or pooled: the
    digests are of the TSVs written when each row was still an object."""

    DIGESTS = {
        # simulate-reads output: dovetails and equal reads, with errors.
        "simulated": "b17a43c1d2e6ea4724995d516f2116288843ffd3e7c373bf70decdfef244a74d",
        # error-free substrings of 60-140 bp: containments on both sides.
        "tiled": "1e56dde1761ff2afeb8c9041f06b9a8692f0b8a9530cd2cdf01263c86771d927",
    }

    @pytest.mark.parametrize("workers", ["0", "2"])
    @pytest.mark.parametrize("reads", ["simulated", "tiled"])
    def test_tsv_bytes_are_fixed(self, tmp_path, genome_fasta, reads_fastq, reads, workers):
        if reads == "simulated":
            path = reads_fastq
        else:
            text = "".join(genome_fasta.read_text().splitlines()[1:])
            seqs = [text[s : s + 60 + (s * 7) % 81] for s in range(0, len(text) - 140, 29)]
            seqs.append(seqs[3])
            path = tmp_path / "tiled.fasta"
            path.write_text("".join(f">t{i}\n{seq}\n" for i, seq in enumerate(seqs)))
        out = tmp_path / "overlaps.tsv"
        argv = ["overlap", str(path), "-o", str(out), "--workers", workers, "--subsets", "3"]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[reads]


class TestOutputsAreAtomic:
    @pytest.mark.parametrize("output", ["contigs", "timings", "overlap"])
    def test_failed_write_leaves_previous_output_intact(
        self, tmp_path, reads_fastq, monkeypatch, output
    ):
        """What `repro assemble -o / --timings`, `repro overlap -o` and the
        service worker rely on: a killed writer leaves no torn file."""
        from repro import cli
        from repro.core.pipeline import StageTimer

        def killed(*args, **kwargs):
            raise OSError("killed mid-write")

        def dies_half_way(items):
            yield from items[: len(items) // 2]
            killed()

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / output
        out.write_text("previous\n")
        if output == "contigs":
            with pytest.raises(OSError, match="killed mid-write"):
                write_contigs(out, dies_half_way([np.array([2, 2, 2]), np.array([3, 3])]))
        elif output == "timings":
            monkeypatch.setattr(StageTimer, "to_json", killed)
            argv = ["assemble", str(reads_fastq), "-o", str(tmp_path / "c.fasta"),
                    "--partitions", "2", "--backend", "serial", "--timings", str(out)]
            assert main(argv) == 1
        else:
            real = cli.atomic_write

            def tsv_dies_half_way(path, write_rows, mode):
                rows = []
                write_rows(SimpleNamespace(write=rows.append))
                real(path, lambda fh: fh.writelines(dies_half_way(rows)), mode)

            monkeypatch.setattr(cli, "atomic_write", tsv_dies_half_way)
            assert main(["overlap", str(reads_fastq), "-o", str(out)]) == 1
        assert out.read_text() == "previous\n"
        assert [p.name for p in out_dir.iterdir()] == [output]


class TestBadInputIsOneLine:
    """Bad input exits 1 with ``error: ...`` on stderr, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pack", "{reads}", "-o", "{tmp}/s", "--shard-size", "0"], "shard_size"),
            (["assemble", "--store", "{tmp}/missing", "-o", "{tmp}/c.fa"], "not a sharded store"),
            (["overlap", "{reads}", "-o", "{tmp}/o.tsv", "--subsets", "0"], "n_subsets"),
            (["stats", "{tmp}/missing.fa"], "missing.fa"),
            (
                ["assemble", "{reads}", "-o", "{tmp}/c.fa", "--fault-plan", "random:7"],
                "process workers",
            ),
            # Flags are checked before the input is read, so a missing
            # reads file is not what these report.
            (["assemble", "{tmp}/missing.fq", "-o", "{tmp}/c.fa", "--resume"], "--checkpoint"),
            (
                ["assemble", "{tmp}/missing.fq", "-o", "{tmp}/c.fa", "--fault-plan", "random:7"],
                "process workers",
            ),
            (["assemble", "{tmp}/missing.fq", "-o", "{tmp}/c.fa", "--seed", "-1"], "seed"),
        ],
        ids=[
            "pack-shard-size-0",
            "assemble-missing-store",
            "overlap-subsets-0",
            "stats-missing-file",
            "assemble-fault-plan-off-process",
            "assemble-resume-checked-before-reading",
            "assemble-fault-plan-checked-before-reading",
            "assemble-seed-checked-before-reading",
        ],
    )
    def test_error_line_and_exit_code(self, tmp_path, reads_fastq, capsys, argv, message):
        argv = [a.format(reads=reads_fastq, tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
