"""Compare two sets of benchmark results, for example parent and change.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by ``perfbench/run.py`` or
directories holding them (``--results``).  For every workload the
end-to-end metrics (``--trace 0`` results) are printed as median and
quartiles per side, with a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``unresolved``: not worse by the bound, but a side's spread
  (interquartile range over median) exceeds the bound and the change
  does not read better than the base on every run;
* ``better``: better by more than the larger spread of the two sides;
* ``unchanged``: otherwise.

Per-layer self times (``--trace 1`` results) are printed as medians and
deltas.  The exit code is 1 when any end-to-end metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results: list[dict], workload: str, trace: int, name: str):
    return [
        r["metrics"][name]["value"]
        for r in results
        if r["workload"] == workload and r["trace"] == trace
        and name in r["metrics"]
    ]


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """Classify one metric; returns (verdict, signed relative change)."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - bm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    every_run_better = all(
        sign * (c - b) < 0 for c in change for b in base
    )
    if worse_by > bound:
        return "worse", worse_by
    if spread > bound and not every_run_better:
        return "unresolved", worse_by
    if -worse_by > spread:
        return "better", worse_by
    return "unchanged", worse_by


def compare(base: list[dict], change: list[dict], spec: dict) -> dict:
    """Verdicts per (workload, end-to-end metric) and per-layer deltas."""
    workloads = [w["name"] for w in spec["workloads"]]
    report: dict = {"end_to_end": {}, "self_ms": {}}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = values_of(base, workload, 0, name)
            c = values_of(change, workload, 0, name)
            if not b or not c:
                continue
            result, rel = verdict(b, c, metric["better"], metric["bound"])
            report["end_to_end"][(workload, name)] = {
                "base": quartiles(b), "change": quartiles(c),
                "n": (len(b), len(c)), "worse_by": rel, "verdict": result,
            }
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not (name.endswith(".self_ms") or name == "trace.unattributed_ms"):
                continue
            b = values_of(base, workload, 1, name)
            c = values_of(change, workload, 1, name)
            if b and c:
                report["self_ms"][(workload, name)] = (
                    statistics.median(b), statistics.median(c)
                )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    report = compare(load(args.base), load(args.change), spec)
    print(f"{'workload':13s} {'metric':18s} {'base q1/median/q3':>31s} "
          f"{'change q1/median/q3':>31s} {'worse by':>9s}  verdict")
    for (workload, name), row in report["end_to_end"].items():
        base = "/".join(f"{v:.4g}" for v in row["base"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{workload:13s} {name:18s} {base:>24s} (n={row['n'][0]:2d}) "
              f"{change:>24s} (n={row['n'][1]:2d}) {row['worse_by']:+8.1%}  "
              f"{row['verdict']}")
    if report["self_ms"]:
        print(f"\n{'workload':13s} {'layer self time':24s} {'base ms':>10s} "
              f"{'change ms':>10s} {'delta ms':>10s}")
        for (workload, name), (b, c) in report["self_ms"].items():
            if b == 0 and c == 0:
                continue
            print(f"{workload:13s} {name:24s} {b:10.1f} {c:10.1f} "
                  f"{c - b:+10.1f}")
    worse = any(
        row["verdict"] == "worse" for row in report["end_to_end"].values()
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
