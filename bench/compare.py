#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.jsonl B.jsonl``.

Each file holds the lines ``run.py --out`` appends; traced lines are
ignored.  For every workload and end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles and a verdict for B against A:

* ``unresolved``: a side's run-to-run spread (quartile distance over median)
  exceeds the metric's bound, unless every B run beats every A run
  (``better``) or loses to every A run (``worse``);
* ``better``: B wins at least nine tenths of the pairs (runs paired in file
  order, ties count for neither side) and the medians differ by more than
  A's quartile distance;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unchanged``: otherwise.

Metrics with the unit ``count`` compare their medians exactly.  The exit
code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs, in file order."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        for metric, entry in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float, unit: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    if unit == "count":
        if a_med == b_med:
            return "unchanged"
        return "better" if sign * (b_med - a_med) > 0 else "worse"
    if max((a3 - a1) / abs(a_med), (b3 - b1) / abs(b_med)) > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a3 - a1:
        return "better"
    if sign * (b_med - a_med) / abs(a_med) < -bound:
        return "worse"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    side_a, side_b = (load(Path(arg)) for arg in argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    any_worse = False
    print(f"{'workload':<20} {'metric':<14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for workload in (w["name"] for w in config["workloads"]):
        for metric in config["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a or key not in side_b:
                continue
            a, b = side_a[key], side_b[key]
            result = verdict(a, b, metric["better"], metric["bound"], metric["unit"])
            any_worse = any_worse or result == "worse"
            a1, a_med, a3 = quartiles(a)
            b1, b_med, b3 = quartiles(b)
            print(f"{workload:<20} {metric['name']:<14} "
                  f"{a_med:>12.5g} [{a1:.5g}, {a3:.5g}] n={len(a):<2} "
                  f"{b_med:>12.5g} [{b1:.5g}, {b3:.5g}] n={len(b):<2} "
                  f"{100 * (b_med - a_med) / abs(a_med):>+7.1f}%  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
