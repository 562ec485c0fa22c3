"""Benchmark E-DIST: the remote execution fabric vs the local process pool.

The remote backend buys multi-host scale with a TCP hop, JSON framing, and a
coordinator loop in the middle; this benchmark prices that overhead and
records how it scales, on real ``python -m repro worker`` subprocesses bound
to localhost:

1. **Determinism** — the remote sweep's canonical report is byte-identical
   to the process pool's (the backend contract; asserted).
2. **Overhead** — with 2 local workers, the smoke sweep (every registered
   mechanism on the ``smoke`` scenario) against the 2-worker process pool.
   Workers are started and connected before the clock: daemons are
   long-lived in production, while the process pool is recreated per sweep
   — the ratio prices the fabric (framing, dispatch, heartbeats), not Python
   interpreter startup.
3. **Scaling** — replicate throughput of 2 remote workers against 1 on a
   4-replicate paper-reference batch.

At full scale the measurements are appended to ``BENCH_distributed.json`` at
the repository root so the trajectory is tracked across PRs.  Set
``REPRO_BENCH_SCALE=test`` to run a single-auction variant that skips the
JSON recording.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import print_section, record_bench_entry

from repro.exec import RemoteBackend
from repro.mechanisms import mechanism_names
from repro.simulation.catalog import get_scenario
from repro.simulation.runner import ParallelRunner, expand_mechanisms

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_distributed.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper").lower() != "test"
TRIALS = 2


def smoke_sweep_specs():
    """The smoke sweep: every registered mechanism on the smoke scenario."""
    spec = get_scenario("smoke")
    if not FULL_SCALE:
        spec = spec.with_overrides(auctions=1)
    return expand_mechanisms([spec], mechanism_names())


def replicate_specs(count: int = 4):
    """Equal-weight market jobs, for the worker-count scaling measurement.

    Paper-reference replicates (sub-second each): heavy enough that dispatch
    overhead cannot mask the parallelism, light enough for tier-1.
    """
    spec = get_scenario("paper-reference" if FULL_SCALE else "smoke")
    if not FULL_SCALE:
        spec = spec.with_overrides(auctions=1)
    return [spec.with_overrides(seed=spec.config.seed + i) for i in range(count)]


def spawn_worker(address: str, worker_id: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", address,
         "--id", worker_id, "--retry", "30"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def run_remote(specs, worker_count: int) -> tuple[float, str]:
    """Wall seconds (workers pre-connected) and report for one remote sweep."""
    backend = RemoteBackend(
        bind="127.0.0.1:0", workers=worker_count, quiet=True, wait_timeout=30.0
    )
    address = backend.listen()
    workers = [spawn_worker(address, f"bench-w{i}") for i in range(worker_count)]
    try:
        deadline = time.monotonic() + 30.0
        while backend.connected_workers() < worker_count:
            if time.monotonic() > deadline:
                raise RuntimeError("benchmark workers failed to connect")
            time.sleep(0.05)
        start = time.perf_counter()
        report = ParallelRunner(backend=backend).run_specs(specs)
        elapsed = time.perf_counter() - start
    finally:
        backend.close()  # idempotent; releases workers if the sweep raised
        for worker in workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
    return elapsed, report.to_json()


def run_process(specs, worker_count: int) -> tuple[float, str]:
    start = time.perf_counter()
    report = ParallelRunner(workers=worker_count, backend="process").run_specs(specs)
    return time.perf_counter() - start, report.to_json()


def best_of(fn, *args) -> tuple[float, str]:
    best, payload = float("inf"), ""
    for _ in range(TRIALS):
        seconds, payload = fn(*args)
        best = min(best, seconds)
    return best, payload


def test_remote_fabric_overhead_and_scaling(benchmark):
    rows: dict[str, float | str] = {}

    def run_all():
        sweep = smoke_sweep_specs()
        rows["process_2w"], rows["process_report"] = best_of(run_process, sweep, 2)
        rows["remote_2w"], rows["remote_report"] = best_of(run_remote, sweep, 2)
        replicates = replicate_specs()
        rows["remote_1w_reps"], _ = best_of(run_remote, replicates, 1)
        rows["remote_2w_reps"], _ = best_of(run_remote, replicates, 2)
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The hard guarantee, at any scale: the fabric changes nothing about the
    # report bytes.
    assert rows["remote_report"] == rows["process_report"], (
        "remote sweep produced a different canonical report than the process pool"
    )

    overhead = rows["remote_2w"] / rows["process_2w"]
    scaling = rows["remote_1w_reps"] / rows["remote_2w_reps"]
    cores = os.cpu_count() or 1

    print_section("Remote fabric vs process pool (smoke sweep, best of 2)")
    print(f"process pool, 2 workers:  {rows['process_2w']:.2f}s")
    print(f"remote,       2 workers:  {rows['remote_2w']:.2f}s   "
          f"overhead {overhead:.2f}x")
    print(f"remote replicate batch:   1 worker {rows['remote_1w_reps']:.2f}s, "
          f"2 workers {rows['remote_2w_reps']:.2f}s   "
          f"scaling {scaling:.2f}x (cores: {cores})")

    if FULL_SCALE:
        record_bench_entry(
            BENCH_JSON,
            sweep="smoke x all mechanisms",
            cpu_count=cores,
            process_2w_seconds=rows["process_2w"],
            remote_2w_seconds=rows["remote_2w"],
            overhead=overhead,
            remote_1w_replicates_seconds=rows["remote_1w_reps"],
            remote_2w_replicates_seconds=rows["remote_2w_reps"],
            scaling_2w_over_1w=scaling,
            reports_identical=True,
        )
