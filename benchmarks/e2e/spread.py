"""Run-to-run spread of the end-to-end metrics, as the contract takes it.

    python3 benchmarks/e2e/spread.py [--runs 10] [--first-seed 1] [--workload NAME] [--out FILE]

Runs the benchmark ``--runs`` times per workload, each with another
``--seed``, and prints for every end-to-end metric the median and the
distance between the first and third quartile as a share of the median.
The result file has the format of ``run.py``'s (value = median over the
runs, samples = one value per run), so two sets compare with
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import spread
from run import OUT, ROOT, contract


def main(argv: list[str] | None = None) -> int:
    spec = contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=str(OUT / "spread.json"))
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    result = {"meta": {"runs": args.runs, "first_seed": args.first_seed}, "workloads": {}}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            began = time.perf_counter()
            done = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
            )
            took = time.perf_counter() - began
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed} took {took:.1f} s: {runs[-1]}", file=sys.stderr)
        record = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
            "samples": {},
        }
        for metric in spec["end_to_end"]:
            m = metric["name"]
            values = [r["metrics"][m]["value"] for r in runs]
            record["samples"][m] = values
            record["metrics"][m] = {
                "value": statistics.median(values), "unit": metric["unit"]
            }
            share = spread(values)
            print(
                f"{name:14s} {m:12s} median {statistics.median(values):10.5g} "
                f"{metric['unit']:4s} spread {share:6.3f}  bound {metric['bound']:.2f}  "
                f"{'ok' if share <= metric['bound'] / 3 else 'wide'}"
            )
        result["workloads"][name] = record
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
