"""Benchmark E-PAR: serial vs process-pool execution of a catalog sweep.

The parallel economy runner exists to make many-scenario batches run at
hardware speed.  This benchmark sweeps the default catalog (every non-stress
scenario, >= 6 economies) once serially (``workers=1``) and once across a
process pool (``workers=4``), asserts the two canonical JSON reports are
**byte-identical** (the runner's determinism contract), records the pool's
speedup, and appends the measurement to
``BENCH_parallel_runner.json`` at the repository root so the trajectory is
tracked across PRs.

Set ``REPRO_BENCH_SCALE=test`` (as for every other benchmark) to run a
single-auction reduced sweep that skips the JSON recording.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from conftest import print_section, record_bench_entry

from repro.simulation.catalog import default_sweep_names, get_scenario
from repro.simulation.runner import ParallelRunner

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel_runner.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper").lower() != "test"
POOL_WORKERS = 4
TRIALS = 2


def sweep_specs():
    specs = [get_scenario(name) for name in default_sweep_names()]
    if not FULL_SCALE:
        specs = [spec.with_overrides(auctions=1) for spec in specs]
    return specs


def measure(workers: int) -> tuple[float, str]:
    """Best-of-``TRIALS`` wall-clock seconds for one full sweep, plus its report."""
    specs = sweep_specs()
    best = float("inf")
    payload = ""
    for _ in range(TRIALS):
        start = time.perf_counter()
        report = ParallelRunner(workers=workers).run_specs(specs)
        elapsed = time.perf_counter() - start
        payload = report.to_json()
        best = min(best, elapsed)
    return best, payload


def test_parallel_sweep_is_deterministic_and_faster(benchmark):
    rows = {}

    def run_both():
        rows["serial"], rows["serial_report"] = measure(workers=1)
        rows["parallel"], rows["parallel_report"] = measure(workers=POOL_WORKERS)
        return rows

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    # The hard guarantee: the pool changes nothing about the report bytes.
    assert rows["parallel_report"] == rows["serial_report"], (
        "parallel sweep produced a different canonical report than serial"
    )

    speedup = rows["serial"] / rows["parallel"]

    scenario_names = default_sweep_names()
    print_section(f"Serial vs {POOL_WORKERS}-worker sweep over {len(scenario_names)} scenarios")
    print("scenarios:", ", ".join(scenario_names))
    print(
        f"serial {rows['serial']:.2f}s   workers={POOL_WORKERS} {rows['parallel']:.2f}s   "
        f"speedup {speedup:.2f}x   (cores: {os.cpu_count()})"
    )

    if FULL_SCALE:
        record_bench_entry(
            BENCH_JSON,
            scenarios=scenario_names,
            workers=POOL_WORKERS,
            cpu_count=os.cpu_count(),
            serial_seconds=rows["serial"],
            parallel_seconds=rows["parallel"],
            speedup=speedup,
            reports_identical=True,
        )
