"""Scalar vs batch demand engines: the time of one clock-auction round.

The per-round demand-collection step is the dominant cost of every clock
auction.  This script times one full round of demand collection (every
bidder's proxy evaluated at the reserve prices) under the scalar proxy loop
and under the vectorized batch engine, at 8, 24, 100, 1 000 and 10 000
bidders over 51 pools.  The two small sizes are auctions that a bid-count
rule once kept on the scalar loop, on the claim that batch's fixed cost is
not repaid there; they check that batch wins at that scale too.  Each point
alternates the two engines :data:`REPEATS` times and keeps the median and
quartiles of each, so a timing is never one sample.

Run from the root of a checkout::

    PYTHONPATH=src python3 benchmarks/batch_engine.py

It prints one row per bidder count and appends one entry to
``BENCH_batch_engine.json`` at the repository root, keeping the last
:data:`MAX_ENTRIES` entries.  ``make bench`` runs it after ``bench/run.py``;
``docs/engines.md`` copies the figures it relies on into its own text, since
entries roll off, and ``docs/benchmarks.md`` describes the entry format.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.cluster.pools import PoolIndex, ResourcePool
from repro.cluster.resources import ResourceType
from repro.core.bids import Bid
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_batch_engine.json"

BIDDER_COUNTS = (8, 24, 100, 1_000, 10_000)
CLUSTERS = 17  # x3 resource types = 51 pools
#: Timed rounds per engine and bidder count.
REPEATS = 15
#: How many entries ``BENCH_batch_engine.json`` keeps (the oldest roll off).
MAX_ENTRIES = 5


def build_index() -> PoolIndex:
    costs = {ResourceType.CPU: 10.0, ResourceType.RAM: 2.0, ResourceType.DISK: 0.05}
    caps = {ResourceType.CPU: 1000.0, ResourceType.RAM: 4000.0, ResourceType.DISK: 100_000.0}
    return PoolIndex(
        [
            ResourcePool(
                cluster=f"cluster-{c:02d}",
                rtype=rtype,
                capacity=caps[rtype],
                unit_cost=costs[rtype],
                utilization=0.5,
            )
            for c in range(CLUSTERS)
            for rtype in ResourceType
        ]
    )


def build_bids(index: PoolIndex, count: int, rng: np.random.Generator) -> list[Bid]:
    """``count`` buyers, each with 1-3 bundles of three random pools."""
    names = index.names
    bids = []
    for i in range(count):
        bundles = []
        for _ in range(int(rng.integers(1, 4))):
            chosen = rng.choice(names, size=3, replace=False)
            bundles.append({str(n): float(rng.uniform(1, 100)) for n in chosen})
        bids.append(Bid.buy(f"team-{i}", index, bundles, max_payment=float(rng.uniform(100, 10_000))))
    return bids


def quartiles(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def measure_point(index: PoolIndex, count: int, rng: np.random.Generator) -> dict:
    """Median and quartiles of one demand-collection round on each engine."""
    bids = build_bids(index, count, rng)
    reserve = np.ones(len(index))
    auctions = {
        engine: AscendingClockAuction(
            index, bids, reserve_prices=reserve, config=AuctionConfig(engine=engine)
        )
        for engine in ("scalar", "batch")
    }
    # Building the collectors builds the proxies and stacked matrices off the clock.
    collectors = {engine: auction._collector() for engine, auction in auctions.items()}
    for collect in collectors.values():
        collect(reserve)
    samples: dict[str, list[float]] = {engine: [] for engine in auctions}
    for _ in range(REPEATS):
        for engine, collect in collectors.items():
            start = time.perf_counter()
            collect(reserve)
            samples[engine].append(time.perf_counter() - start)
    scalar, batch = quartiles(samples["scalar"]), quartiles(samples["batch"])
    return {
        "bidders": count,
        "pools": len(index),
        "repeats": REPEATS,
        "scalar_seconds_per_round": scalar,
        "batch_seconds_per_round": batch,
        "speedup": scalar["median"] / batch["median"],
    }


def append_entry(path: Path, entry: dict) -> None:
    """Append ``entry`` to the JSON array at ``path``, keeping the last :data:`MAX_ENTRIES`."""
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(entry)
    path.write_text(json.dumps(history[-MAX_ENTRIES:], indent=2) + "\n")


def main() -> None:
    index = build_index()
    rng = np.random.default_rng(99)
    points = [measure_point(index, count, rng) for count in BIDDER_COUNTS]
    print(f"{'bidders':>8} {'pools':>6} {'scalar s (q1-q3)':>30} {'batch s (q1-q3)':>30} {'speedup':>8}")
    for point in points:
        cells = [
            f"{s['median']:.6f} ({s['q1']:.6f}-{s['q3']:.6f})"
            for s in (point["scalar_seconds_per_round"], point["batch_seconds_per_round"])
        ]
        print(f"{point['bidders']:>8d} {point['pools']:>6d} {cells[0]:>30} {cells[1]:>30} {point['speedup']:>7.1f}x")
    append_entry(
        BENCH_JSON,
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "cpu_count": os.cpu_count(),
            "points": points,
        },
    )
    print(f"appended one entry to {BENCH_JSON.name}")


if __name__ == "__main__":
    main()
