"""Tests of the benchmark itself, on tiny inputs (seconds, not minutes).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = run.contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY_READS = {"shared_length": 600, "private_length": 400, "repeat_length": 100}
TINY = {
    "meta_d1": TINY_READS,
    "shotgun_s4": {"genome_length": 6_000},
    "par2_store_d1": TINY_READS,
    "finish_100k": {"backbone": 600},
}


def names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


def test_names_match_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert names("workloads") == list(workloads.WORKLOADS)
    everything = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(set(everything)) == len(everything)
    assert all(NAME.match(n) for n in everything)
    assert "setup_s" in names("end_to_end")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    measured = {f"{n}_s" for n in run.SPAN_METRICS} | set(run.COUNT_METRICS)
    assert measured <= set(names("per_layer"))
    assert set(run.expected()) == set(workloads.WORKLOADS)


def test_recorded_input_digests_match_the_generators():
    for name, wl in workloads.WORKLOADS.items():
        generated = wl.make_inputs(run.DEFAULT_SEED).sha256
        assert generated == run.expected()[name]["input_sha256"], name
    assert (
        workloads.community_reads(1).sha256 != workloads.community_reads(2).sha256
    )


def test_self_time_is_span_minus_children():
    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end,
                "parent": parent, "workload": "w", "rep": "traced"}

    tree = [
        span(0, "op", 0.0, 10.0, None),
        span(1, "align", 1.0, 5.0, 0),
        span(2, "index", 1.5, 2.5, 1),
        span(3, "dedupe", 5.0, 9.5, 0),
        span(4, "op", 20.0, 21.0, None),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 1.5, 1: 3.0, 2: 1.0, 3: 4.5, 4: 1.0})
    assert spans.durations(tree, "traced")["op"] == pytest.approx(11.0)
    assert spans.durations(tree, "cold") == {}


def test_tracer_nests_spans_and_buckets_counts_by_rep():
    tracer = spans.Tracer("w")
    tracer.rep = "traced"
    with tracer.span("op"):
        with tracer.span("layer"):
            tracer.count("n", 2)
        tracer.count("n", 3)
    tracer.rep = "reference"
    tracer.count("n", 7)
    assert [s["parent"] for s in tracer.spans] == [None, 0]
    assert tracer.counts == {"traced": {"n": 5}, "reference": {"n": 7}}
    off = spans.Tracer("w", enabled=False)
    with off.span("op"):
        off.count("n", 1)
    assert off.spans == [] and off.counts == {}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_yields_every_metric_and_passes_its_checks(name, tmp_path):
    floors = {"analysis.n50_bp": 100, "analysis.genome_fraction": 0.1}
    record = run.measure(
        name, 3, 0, False, time.time(), str(tmp_path), size=TINY[name], floors=floors
    )
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1 + run.MIN_REPS
    assert set(record["metrics"]) == set(names("end_to_end"))
    assert all(v > 0 for v in record["metrics"].values())

    traced = run.measure(
        name, 3, 0, True, time.time(), str(tmp_path), size=TINY[name], floors=floors
    )
    assert traced["failures"] == []
    assert set(traced["metrics"]) == set(names("per_layer"))
    assert traced["contig_digest"] == record["contig_digest"]
    lines = (tmp_path / f"trace-{name}-seed3.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert {"id", "name", "start", "end", "parent", "workload", "rep"} == set(rows[0])
    assert {r["rep"] for r in rows} >= {"traced"}
    assert list(tmp_path.iterdir()) == [tmp_path / f"trace-{name}-seed3.jsonl"]


def test_a_tampered_output_counts_as_a_failure(tmp_path, monkeypatch):
    honest = workloads.operate
    calls = []

    def tampering(*args, **kwargs):
        contigs = honest(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            contigs[0] = contigs[0].copy()
            contigs[0][0] = (contigs[0][0] + 1) % 4
        return contigs

    monkeypatch.setattr(workloads, "operate", tampering)
    record = run.measure(
        "meta_d1", 3, 0, False, time.time(), str(tmp_path), size=TINY_READS, floors={}
    )
    assert not record["correct"] and record["failed"] == 1
    assert "digest of repetition timed0" in record["failures"][0]


def test_check_outputs_names_each_kind_of_failure():
    good = {"cold": "a", "timed0": "a"}
    measured = {"analysis.n50_bp": 900.0, "analysis.genome_fraction": 0.9}
    assert run.check_outputs(good, "a", measured, {"analysis.n50_bp": 800}) == []
    assert len(run.check_outputs({**good, "traced": "b"}, "a", measured, {})) == 1
    assert len(run.check_outputs(good, "b", measured, {})) == 1
    assert len(run.check_outputs(good, None, measured, {"analysis.n50_bp": 901})) == 1


def test_an_exception_counts_as_a_failure_and_stops_the_run(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "operate", broken)
    with pytest.raises(SystemExit, match="boom"):
        run.measure(
            "meta_d1", 3, 0, False, time.time(), str(tmp_path), size=TINY_READS, floors={}
        )


def test_compare_classifies_ok_worse_and_unresolved(tmp_path, capsys):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert compare.spread(steady) < 0.03 < 0.1 < compare.spread(noisy)
    assert compare.classify(1.0, 1.05, steady, steady, "lower", 0.1) == "ok"
    assert compare.classify(1.0, 1.2, steady, steady, "lower", 0.1) == "worse"
    assert compare.classify(1.0, 0.8, steady, steady, "higher", 0.1) == "worse"
    assert compare.classify(1.0, 1.2, steady, steady, "higher", 0.1) == "ok"
    assert compare.classify(1.0, 1.0, noisy, steady, "lower", 0.1) == "unresolved"
    overlapping = [s * 0.6 for s in noisy]
    assert compare.classify(1.0, 0.6, noisy, overlapping, "lower", 0.1) == "unresolved"
    separated = [s / 2 for s in noisy]
    assert compare.classify(1.0, 0.5, noisy, separated, "lower", 0.1) == "ok"

    def result(wall: float) -> dict:
        metrics = {m: {"value": 1.0, "unit": "s"} for m in names("end_to_end")}
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        record = {"metrics": metrics, "samples": {"wall_s": [wall] * 3}, "failed": 0}
        return {"meta": {}, "workloads": {"meta_d1": record}}

    paths = []
    for label, wall in (("a", 1.0), ("same", 1.02), ("slow", 1.5)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(result(wall)))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    assert "worse" in capsys.readouterr().out


def test_generators_are_deterministic_in_the_seed():
    a, b = (workloads.finish_graph(5, backbone=90) for _ in range(2))
    assert a.sha256 == b.sha256 != workloads.finish_graph(6, backbone=90).sha256
    assert a.graph.graph.n_nodes == a.n_items == a.labels.size
    assert np.array_equal(np.unique(a.labels), np.arange(8))
