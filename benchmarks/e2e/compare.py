"""Compare two result files of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base.  One row per workload x end-to-end metric: both medians,
the ratio B/A, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  B is within the bound but either side's own spread is
                wider than the bound, so "unchanged" cannot be claimed
                (unless every sample of B is better than every one of A).

Exits non-zero if any row is ``worse`` or an operation failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import contract


def spread(samples: list[float]) -> float:
    """Quartile distance over the median (range below four samples)."""
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        width = max(samples) - min(samples)
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        width = q3 - q1
    return width / statistics.median(samples)


def classify(
    a: float, b: float, a_samples: list[float], b_samples: list[float],
    better: str, bound: float,
) -> str:
    sign = 1 if better == "lower" else -1
    if sign * (b - a) > bound * abs(a):
        return "worse"
    if max(spread(a_samples), spread(b_samples)) > bound:
        separated = a_samples and b_samples and (
            max(b_samples) < min(a_samples)
            if better == "lower"
            else min(b_samples) > max(a_samples)
        )
        return "ok" if separated else "unresolved"
    return "ok"


def compare(a: dict, b: dict, end_to_end: list[dict]) -> list[dict]:
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in end_to_end:
            m = metric["name"]
            va, vb = wa["metrics"][m]["value"], wb["metrics"][m]["value"]
            rows.append(
                {
                    "workload": name,
                    "metric": m,
                    "a": va,
                    "b": vb,
                    "ratio": vb / va,
                    "bound": metric["bound"],
                    "verdict": classify(
                        va, vb, wa["samples"].get(m, []), wb["samples"].get(m, []),
                        metric["better"], metric["bound"],
                    ),
                }
            )
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                rows.append(
                    {
                        "workload": name,
                        "metric": f"failed ({side})",
                        "a": wa["failed"],
                        "b": wb["failed"],
                        "ratio": float("nan"),
                        "bound": 0.0,
                        "verdict": "worse",
                    }
                )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(a, b, contract()["end_to_end"])
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(
            f"{r['workload']:14s} {r['metric']:12s} {r['a']:12.6g} {r['b']:12.6g} "
            f"{r['ratio']:7.3f} {r['bound']:6.2f}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
