"""End-to-end reads -> contigs benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --trace 1            # per-layer split
    python3 benchmarks/e2e/run.py --workload meta_d1 --seed 7 --seconds 12 --trace 0

Each workload is measured in a fresh child process started with glibc
allocator retention (``MALLOC_ENV``): set-up, one cold repetition
(reported, not gated), then timed repetitions in a closed loop, one
operation at a time, until ``--seconds`` have been measured (at least
``MIN_REPS``).  With ``--workload`` the last stdout line is the JSON
object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

from spans import Tracer, durations, self_times, usage, write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: ``--seed`` default; ``expected.json`` records the input digests for it.
DEFAULT_SEED = 101

#: glibc keeps freed memory instead of returning it to the kernel, so a
#: warm repetition reuses its heap and pays no page faults; un-isolated,
#: 35-75 % of the align stage's wall time is kernel fault handling and
#: wall clocks vary 2-3x run to run.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "4294967296",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
}
#: prctl option; inherited by every child.  With transparent huge pages
#: on, each fresh process pays 20-45 s of kernel time faulting its ~0.9 GB
#: heap in (2 MiB allocations collide with the hypervisor's free-page
#: reporting of the memory the previous run just released); with 4 KiB
#: pages the same cold repetition costs 4-8 s and warm ones are unchanged.
PR_SET_THP_DISABLE = 41
MIN_REPS = 3
#: untraced repetitions of a traced run (the base of trace.overhead_frac).
TRACED_RUN_REPS = 2
#: extra set-up-only processes per run; ``setup_s`` is the median.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
STAGES = ("transitive", "containment", "dead_ends", "bubbles", "traversal")
#: spans whose summed duration is reported as ``<name>_s``.
SPAN_METRICS = (
    "io.preprocess",
    "align.find_overlaps",
    "graph.overlap_graph",
    "graph.coarsen",
    "graph.hybrid",
    "distributed.enrich",
    "distributed.dag_build",
    *(f"distributed.{s}" for s in STAGES),
    "distributed.contigs_from_paths",
    "partition.partition",
    "core.dedupe",
    "store.pack",
)
#: counts reported under their own name.
COUNT_METRICS = (
    "io.reads_kept_frac",
    "align.candidates_verified",
    "align.overlaps_found",
    "align.sys_s",
    "align.minor_faults",
    "graph.g0_edges",
    "graph.levels",
    "graph.hybrid_nodes",
    "distributed.nodes_removed",
    "distributed.edges_removed",
    "partition.edge_cut",
    "partition.imbalance",
    "core.contigs_in",
    "core.contigs_kept",
    "parallel.retries",
    "parallel.fallbacks",
    "store.bytes_on_disk",
    "store.cache_hits",
    "store.cache_misses",
    "store.evictions",
)


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- measurement (runs in the child process) --------------------------------


def check_outputs(
    digests: dict[str, str], reference_digest: str | None, measured: dict, floors: dict
) -> list[str]:
    """Every way an output can be wrong; each entry counts as a failure."""
    failures = []
    first = next(iter(digests.values()))
    for label, value in digests.items():
        if value != first:
            failures.append(f"contig digest of repetition {label} differs from the first")
    if reference_digest is not None and reference_digest != first:
        failures.append("contig digest differs from the in-RAM serial reference")
    for name, floor in floors.items():
        if measured[name] < floor:
            failures.append(f"{name} = {measured[name]:.6g} is below its floor {floor}")
    return failures


def layer_metrics(wl, tracer, cold: dict, base_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of the traced repetition (0 = layer not run)."""
    d = durations(tracer.spans, "traced")
    ref = durations(tracer.spans, "reference")
    sim = durations(tracer.spans, "sim")
    c = tracer.counts.get("traced", {})
    m = {f"{name}_s": d.get(name, 0.0) for name in SPAN_METRICS}
    m.update({name: c.get(name, 0) for name in COUNT_METRICS})
    m.update(tracer.counts.get("sim", {}))
    for name in ("mpi.sim_virtual_s", "mpi.messages", "mpi.bytes"):
        m.setdefault(name, 0)

    def stages(spans: dict) -> float:
        return sum(spans.get(f"distributed.{s}", 0.0) for s in STAGES)

    align_s = d.get("align.find_overlaps", 0.0)
    pooled = wl.config.get("overlap_workers", 0) > 1
    process = wl.config["backend"] == "process"
    hits, misses = c.get("store.cache_hits", 0), c.get("store.cache_misses", 0)
    root = next(s for s in tracer.spans if s["rep"] == "traced" and s["parent"] is None)
    m.update(
        {
            "align.reads_per_s": _ratio(c.get("align.reads", 0), align_s),
            "align.useful_ratio": _ratio(
                c.get("align.overlaps_found", 0), c.get("align.candidates_verified", 0)
            ),
            "graph.reduction_ratio": _ratio(
                c.get("align.reads", 0), c.get("graph.hybrid_nodes", 0)
            ),
            "parallel.align_pool_s": align_s if pooled else 0.0,
            "parallel.finish_process_s": stages(d) if process else 0.0,
            "parallel.finish_serial_s": stages(ref) if process else stages(d),
            "parallel.align_speedup_2p": (
                _ratio(ref.get("align.find_overlaps", 0.0), align_s) if pooled else 0.0
            ),
            "parallel.finish_speedup_2p": (
                _ratio(stages(ref), stages(d)) if process else 0.0
            ),
            "mpi.sim_wall_s": stages(sim),
            "store.pack_mb_per_s": _ratio(
                c.get("store.packed_bytes", 0) / 2**20, d.get("store.pack", 0.0)
            ),
            "store.cache_hit_ratio": _ratio(hits, hits + misses),
            "cold.wall_s": cold["wall_s"],
            "cold.sys_s": cold["sys_s"],
            "cold.minor_faults": cold["minor_faults"],
            "trace.overhead_frac": traced_wall / base_wall - 1,
            "trace.root_self_frac": self_times(tracer.spans)[root["id"]] / traced_wall,
        }
    )
    return m


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    t0: float,
    out_dir: str,
    size: dict | None = None,
    floors: dict | None = None,
) -> dict:
    """Set up and measure one workload in this process; returns its record.

    ``size`` overrides the input generator's sizes and ``floors`` the
    quality floors (the tests pass tiny inputs); ``t0`` is the epoch
    time at which set-up began (before the interpreter started).
    """
    from workloads import WORKLOADS, digest, operate, quality, sim_pass

    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed, **(size or {}))
    setup_s = time.time() - t0
    want = expected()[name]
    failures: list[str] = []
    if size is None and seed == DEFAULT_SEED and inputs.sha256 != want["input_sha256"]:
        failures.append(
            f"generated input drifted: sha256 {inputs.sha256} != recorded "
            f"{want['input_sha256']} (did repro.simulate change?)"
        )
    digests: dict[str, str] = {}
    kept: list = []
    attempted = 0

    def one(label: str, tracer) -> dict | None:
        """One operation, timed; its digest is kept for the checks."""
        nonlocal attempted
        attempted += 1
        tracer.rep = label
        with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
            before, start = usage(), time.perf_counter()
            try:
                contigs = operate(wl, inputs, tracer, scratch)
            except Exception:  # noqa: BLE001 - a failed operation is a counted result
                failures.append(f"repetition {label} raised:\n{traceback.format_exc()}")
                return None
            wall, after = time.perf_counter() - start, usage()
        digests[label] = digest(contigs)
        if not kept:
            kept.extend(contigs)
        return {
            "wall_s": wall,
            "cpu_s": after.cpu_s - before.cpu_s,
            "sys_s": after.sys_s - before.sys_s,
            "minor_faults": after.minor_faults - before.minor_faults,
        }

    off = Tracer(name, enabled=False)
    cold = one("cold", off)
    timed: list[dict] = []
    began = time.perf_counter()
    while cold is not None and (
        len(timed) < TRACED_RUN_REPS
        if trace
        else len(timed) < MIN_REPS or time.perf_counter() - began < seconds
    ):
        rep = one(f"timed{len(timed)}", off)
        if rep is None:
            break
        timed.append(rep)
    if not timed:
        raise SystemExit("\n".join(failures))
    peak_rss_mb = usage().peak_rss_mb
    walls = [r["wall_s"] for r in timed]
    cpus = [r["cpu_s"] for r in timed]

    tracer = Tracer(name, enabled=trace)
    traced = tracked_peak = None
    if trace:
        traced = one("traced", tracer)
        tracemalloc.start()
        one("tracked", off)
        tracked_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    reference_digest = None
    if trace and wl.reference_config is not None:
        attempted += 1
        tracer.rep = "reference"
        reference_digest = digest(operate(wl, inputs, tracer, "", wl.reference_config))
    if trace and inputs.graph is not None:
        tracer.rep = "sim"
        sim_pass(inputs, tracer)

    measured = quality(inputs, kept)
    failures += check_outputs(
        digests, reference_digest, measured, want["floors"] if floors is None else floors
    )
    if trace and traced is not None:
        metrics = layer_metrics(wl, tracer, cold, statistics.median(walls), traced["wall_s"])
        metrics["mem.peak_tracked_mb"] = tracked_peak / 2**20
        metrics.update(measured)
        write_jsonl(tracer.spans, os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "metrics": metrics,
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": [setup_s]},
        "cold": cold,
        "reads_per_s": inputs.n_items / statistics.median(walls),
        "n_items": inputs.n_items,
        "input_sha256": inputs.sha256,
        "contig_digest": next(iter(digests.values())),
        **measured,
    }


def child_main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to benchmark")
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].make_inputs(args.seed)
        record = {"setup_s": time.time() - args.t0}
    else:
        record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.t0, args.scratch
        )
    print(json.dumps(record))
    return 0


# -- orchestration (the parent process) -------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, scratch: str, *extra) -> dict:
    """Run one child under ``MALLOC_ENV``; returns its JSON record.

    The child leads its own process group so that a timeout or an
    interrupt also stops the worker pools it started.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--scratch", scratch, "--t0", repr(time.time()), *extra]
    proc = subprocess.Popen(
        cmd,
        env={**os.environ, **MALLOC_ENV},
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.exit(f"workload {workload} failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def disable_thp() -> bool:
    """Turn transparent huge pages off for this process tree (Linux)."""
    try:
        return ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def metadata(args, thp_disabled: bool) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "malloc_env": MALLOC_ENV,
        "thp_disabled": thp_disabled,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_workload(name: str, args, scratch: str, units: dict) -> dict:
    """Measure one workload in child processes and print its metrics."""
    record = spawn(name, args.seed, args.seconds, args.trace, scratch)
    if not args.trace:
        setups = record["samples"]["setup_s"]
        for _ in range(SETUP_PROBES):
            setups.append(spawn(name, args.seed, 0, 0, scratch, "--setup-only")["setup_s"])
        record["metrics"]["setup_s"] = statistics.median(setups)
    if set(record["metrics"]) != set(units):
        sys.exit(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(record['metrics']) ^ set(units))}"
        )
    for metric in units:
        value = record["metrics"][metric]
        samples = record["samples"].get(metric, [])
        spread = (
            f"  (min {min(samples):.6g}, max {max(samples):.6g}, n={len(samples)})"
            if len(samples) > 1
            else ""
        )
        print(f"{name:14s} {metric:34s} {value:14.6g} {units[metric]}{spread}")
        record["metrics"][metric] = {"value": value, "unit": units[metric]}
    print(
        f"{name:14s} {'throughput':34s} {record['reads_per_s']:14.6g} items/s  "
        f"cold {record['cold']['wall_s']:.3f} s, failed {record['failed']}/"
        f"{record['attempted']}, n50 {record['analysis.n50_bp']:.0f} bp, "
        f"genome_fraction {record['analysis.genome_fraction']:.4f}"
    )
    for failure in record["failures"]:
        print(f"{name}: FAILED: {failure}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: out/e2e-*.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    spec = contract()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to benchmark")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    OUT.mkdir(exist_ok=True)
    result = {"meta": metadata(args, disable_thp()), "workloads": {}}
    print(json.dumps(result["meta"]))
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for name in [args.workload] if args.workload else names:
            result["workloads"][name] = run_workload(name, args, scratch, units)
            for trace_file in Path(scratch).glob("trace-*.jsonl"):
                trace_file.replace(OUT / trace_file.name)
    which = args.workload or "all"
    out = Path(args.out or OUT / f"e2e-{which}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    records = result["workloads"].values()
    if args.workload:
        record = result["workloads"][args.workload]
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({k: record[k] for k in keys}))
        return 0  # the verdict is the JSON line's "correct"
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
