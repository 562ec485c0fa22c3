"""Benchmark E-MECH: baseline mechanisms vs the market on paper-reference.

The point of the allocation-mechanism layer is that baseline policies ride the
same scenario/runner/store pipeline as the market — and that doing so is
nearly free.  A baseline epoch is one allocator pass over the request list;
a market auction iterates clock rounds of demand collection until no pool is
over-demanded.  This benchmark times every registered mechanism's
``simulate`` phase on the ``paper-reference`` scenario — fleet generation is
mechanism-independent and excluded, each trial gets a freshly built scenario
off the clock — and records each baseline's speedup over the market (they
skip price discovery entirely).  At full scale the
measurements are appended to ``BENCH_mechanisms.json`` at the repository
root so the trajectory is tracked across PRs.

Set ``REPRO_BENCH_SCALE=test`` (as for every other benchmark) to run a
reduced variant that skips the JSON recording: at smoke scale both sides
finish in milliseconds and the ratio measures interpreter noise, not the
mechanisms.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from conftest import print_section, record_bench_entry

from repro.mechanisms import baseline_mechanism_names, get_mechanism, mechanism_names
from repro.simulation.catalog import get_scenario

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_mechanisms.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper").lower() != "test"
TRIALS = 2


def bench_spec(mechanism: str):
    spec = get_scenario("paper-reference").with_overrides(mechanism=mechanism)
    if not FULL_SCALE:
        spec = spec.with_overrides(auctions=1)
    return spec


def best_seconds(mechanism: str, build_seconds: list[float]) -> float:
    best = float("inf")
    for _ in range(TRIALS):
        spec = bench_spec(mechanism)
        build_start = time.perf_counter()
        scenario = spec.build()  # mechanism-independent, kept off the clock
        build_seconds.append(time.perf_counter() - build_start)
        start = time.perf_counter()
        result = get_mechanism(mechanism).simulate(scenario, spec)
        elapsed = time.perf_counter() - start
        assert result.mechanism == mechanism
        assert result.auctions == spec.auctions
        best = min(best, elapsed)
    return best


def test_baselines_run_5x_faster_than_the_market(benchmark):
    seconds: dict[str, float] = {}
    build_seconds: list[float] = []

    def run_trials():
        for mechanism in mechanism_names():
            seconds[mechanism] = best_seconds(mechanism, build_seconds)
        return seconds

    benchmark.pedantic(run_trials, rounds=1, iterations=1)

    best_build = min(build_seconds)
    market = seconds["market"]
    print_section("Allocation mechanisms on paper-reference (best of 2 runs)")
    print(f"{'mechanism':<14} {'seconds':>9} {'speedup vs market':>18}")
    for mechanism in mechanism_names():
        speedup = market / seconds[mechanism] if seconds[mechanism] > 0 else float("inf")
        print(f"{mechanism:<14} {seconds[mechanism]:>9.4f} {speedup:>17.1f}x")
    print(f"scenario build (off the clock above): best {best_build:.4f}s "
          f"over {len(build_seconds)} builds")

    if FULL_SCALE:
        record_bench_entry(
            BENCH_JSON,
            scenario="paper-reference",
            build_seconds=best_build,
            seconds={name: seconds[name] for name in mechanism_names()},
            speedup_vs_market={
                name: (market / seconds[name]) if seconds[name] > 0 else None
                for name in baseline_mechanism_names()
            },
        )
