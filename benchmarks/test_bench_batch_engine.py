"""Benchmark E-BATCH: scalar vs batch demand engines.

The per-round demand-collection step is the dominant cost of every clock
auction.  ``test_batch_engine_round_collection_speedup`` times one full
round of demand collection under the scalar proxy loop and under the
vectorized batch engine at 100 / 1 000 / 10 000 bidders and records the
speedup.

The test merges its measurements into ``BENCH_batch_engine.json`` at the
repository root (one entry per day) so the trajectory is tracked across
PRs.  Set ``REPRO_BENCH_SCALE=test`` (as for every other benchmark) to run
a reduced sweep — no 10k-bidder collection point — that skips the
recording.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from conftest import print_section, record_bench_entry

from repro.cluster.pools import PoolIndex, ResourcePool
from repro.cluster.resources import ResourceType
from repro.core.bids import Bid
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_batch_engine.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper").lower() != "test"
BIDDER_COUNTS = (100, 1_000, 10_000) if FULL_SCALE else (100, 1_000)
POOL_COUNT_CLUSTERS = 17  # x3 resource types = 51 pools


def build_index(clusters: int) -> PoolIndex:
    pools = []
    costs = {ResourceType.CPU: 10.0, ResourceType.RAM: 2.0, ResourceType.DISK: 0.05}
    caps = {ResourceType.CPU: 1000.0, ResourceType.RAM: 4000.0, ResourceType.DISK: 100_000.0}
    for c in range(clusters):
        for rtype in ResourceType:
            pools.append(
                ResourcePool(
                    cluster=f"cluster-{c:02d}",
                    rtype=rtype,
                    capacity=caps[rtype],
                    unit_cost=costs[rtype],
                    utilization=0.5,
                )
            )
    return PoolIndex(pools)


def build_bids(index: PoolIndex, count: int, rng: np.random.Generator) -> list[Bid]:
    names = index.names
    bids = []
    for i in range(count):
        bundles = []
        for _ in range(int(rng.integers(1, 4))):
            chosen = rng.choice(names, size=3, replace=False)
            bundles.append({str(n): float(rng.uniform(1, 100)) for n in chosen})
        bids.append(Bid.buy(f"team-{i}", index, bundles, max_payment=float(rng.uniform(100, 10_000))))
    return bids


def time_collect(auction: AscendingClockAuction, prices: np.ndarray, *, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one `_collect` call (noise-robust)."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        auction._collect(prices)
        timings.append(time.perf_counter() - start)
    return float(np.min(timings))


def measure_point(index: PoolIndex, count: int, rng: np.random.Generator, reserve: np.ndarray) -> dict:
    bids = build_bids(index, count, rng)
    repeats = max(5, 3_000 // count)
    scalar = AscendingClockAuction(
        index, bids, reserve_prices=reserve, config=AuctionConfig(engine="scalar")
    )
    batch = AscendingClockAuction(
        index, bids, reserve_prices=reserve, config=AuctionConfig(engine="batch")
    )
    batch._collect(reserve)  # build the stacked matrices outside the timed region
    scalar_s = time_collect(scalar, reserve, repeats=repeats)
    batch_s = time_collect(batch, reserve, repeats=repeats)
    return {
        "bidders": count,
        "pools": len(index),
        "scalar_seconds_per_round": scalar_s,
        "batch_seconds_per_round": batch_s,
        "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
    }


def test_batch_engine_round_collection_speedup(benchmark):
    index = build_index(POOL_COUNT_CLUSTERS)
    rng = np.random.default_rng(99)
    reserve = np.ones(len(index))
    rows = []

    def measure():
        rows.clear()
        for count in BIDDER_COUNTS:
            rows.append(measure_point(index, count, rng, reserve))
        return rows

    benchmark.pedantic(measure, rounds=1, iterations=1)

    print_section("Scalar vs batch demand collection (one clock-auction round)")
    print(f"{'bidders':>8} {'pools':>6} {'scalar s':>12} {'batch s':>12} {'speedup':>9}")
    for row in rows:
        print(
            f"{row['bidders']:>8d} {row['pools']:>6d} {row['scalar_seconds_per_round']:>12.6f} "
            f"{row['batch_seconds_per_round']:>12.6f} {row['speedup']:>8.1f}x"
        )

    # Record the speedup trajectory across PRs (full scale only).
    if FULL_SCALE:
        record_bench_entry(BENCH_JSON, merge=True, points=rows)

