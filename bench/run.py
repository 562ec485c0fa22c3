#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout::

    python3 bench/run.py --workload paper-market --seed 2009 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 2009 --out results.jsonl
    python3 bench/run.py --workload stress-10k --seed 7 --trace 1 --spans spans.jsonl

It prints every metric with its unit, then, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit code is 0
only when every output check passed.  ``bench/README.md`` describes the
workloads and metrics; ``bench/compare.py`` compares two ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def _terminate(signum, _frame):
    # SystemExit unwinds the stack, so every ``finally`` reaps its workers.
    raise SystemExit(128 + signum)


def _print_result(name: str, result: dict) -> None:
    for check in result["checks"]:
        status = "ok" if check.ok else f"MISMATCH (pinned {check.pinned})"
        pinned = "" if check.pinned is not None else " (not pinned)"
        print(f"check {check.label}: sha256 {check.sha256}{pinned} {status}")
    print(f"{name}: {result['ops']} ops measured, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    if result["rechecked"]:
        print(f"{result['rechecked']} epochs: the program's constraint report flagged a team "
              "with several bids; re-checked line by line against each line's own bid")
    for layer in result.get("layers", ()):
        print(f"  {layer['name']:<52} {layer['calls']:>9} calls {layer['total_s']:>10.4f} s "
              f"self {layer['self_s']:>9.4f} s {100 * layer['share']:>6.1f}% "
              f"p50 {layer['p50_ms']:>9.4f} ms p95 {layer['p95_ms']:>9.4f} ms")
    for target in result.get("skipped_targets", ()):
        print(f"  trace target not found, skipped: {target}")
    if "speed" in result:
        speed = result["speed"]
        print(f"speed probe: median {speed['probe_s']:.6f} s over {speed['probes']} probes; "
              "times below are scaled to the reference host speed")
        for metric, value in speed["raw"].items():
            print(f"  unscaled {metric:<35} {value:>16.6f}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<44} {entry['value']:>16.6f} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="workload name from BENCHMARK.json")
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: measure the per-layer metrics from a traced pass")
    parser.add_argument("--out", type=Path, default=None,
                        help="append each workload's result as a JSON line (for compare.py)")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write the recorded spans as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: the program's sources (src/repro) are missing from this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)
    import harness

    config = harness.load_config()
    names = [w["name"] for w in config["workloads"]] if args.all else [args.workload]
    unknown = [name for name in names if name not in harness.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(harness.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]

    all_correct = True
    for name in names:
        print(f"== {name}  seed {args.seed}  seconds {seconds:g}  trace {args.trace}", flush=True)
        result = harness.run_workload(name, args.seed, seconds, bool(args.trace))
        _print_result(name, result)
        if args.spans is not None and "recorder" in result:
            result["recorder"].dump(args.spans)
        final = {key: result[key] for key in RESULT_KEYS}
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": name, "seed": args.seed,
                                      "trace": args.trace, **final}) + "\n")
        all_correct = all_correct and final["correct"]
        print(json.dumps(final), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
