"""Benchmark E-INC: the incremental (delta-driven) demand engine vs batch.

The incremental engine re-evaluates only the bundle rows that touch pools
whose prices moved, retires dropped-out buyers permanently, and patches the
running total-demand vector per changed pool.  Its payoff grows as the clock
matures: late rounds move few pools and most buyers have dropped out.  This
module pins that payoff in three measurements:

* ``test_incremental_round_throughput`` runs full clock auctions over
  synthetic bid populations at 1k / 10k bidders with the batch and the
  incremental engines, asserts bit-identical outcomes, and records the
  rounds/second of each.  Synthetic populations keep most pools moving
  (~70% of rows re-evaluated per round), so this is the engine's *worst*
  regime — near parity is the expectation, not a speedup;
* ``test_incremental_stress_late_rounds`` (marked ``slow``) replays the
  recorded price path of the ``10k-bidder-stress`` preset's first auction
  round by round under both engines and records the rounds/second of each
  on late rounds (after round 2, moved-pool fraction < 50%) — the regime the
  engine exists for;
* ``test_row_fraction_paper_reference`` clears the ``paper-reference``
  preset's first auction on the incremental engine and asserts that after
  round 2 it re-evaluates < 30% of the bundle rows per round on average.

All three merge their measurements into ``BENCH_incremental.json`` at the
repository root (one entry per day, capped history).  Set
``REPRO_BENCH_SCALE=test`` for a reduced sweep that skips the recording.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import print_section, record_bench_entry
from test_bench_batch_engine import build_bids, build_index

from repro.core.batch import BatchDemandEngine
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig
from repro.core.reserve import PAPER_PHI_1, ReservePricer
from repro.simulation.catalog import get_scenario
from repro.simulation.economy import MarketEconomySimulation

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "paper").lower() != "test"
BIDDER_COUNTS = (1_000, 10_000) if FULL_SCALE else (200, 1_000)
POOL_COUNT_CLUSTERS = 17  # x3 resource types = 51 pools

#: "Late" rounds: after round 2, with under half the pools moving.
LATE_MOVED_FRACTION = 0.5
#: Row-targeting bar on the paper's own scale: after round 2 the delta
#: kernel re-evaluates under 30% of the bundle rows per round on average.
MAX_MEAN_ROW_FRACTION = 0.30

STRESS_PRESET = "10k-bidder-stress" if FULL_SCALE else "smoke"
REPLAY_REPEATS = 3


def stress_bid_window(preset: str):
    """The preset's first-auction bid window, exactly as an epoch collects it."""
    spec = get_scenario(preset)
    scenario = spec.build()
    sim = MarketEconomySimulation.from_spec(scenario, spec)
    platform = scenario.platform
    platform.open_bid_window()
    sim._refresh_agent_state()
    view = sim._market_view()
    bids = [bid for agent in scenario.agents for bid in agent.prepare_bids(view)]
    index = platform.index
    reserve = ReservePricer(weighting=PAPER_PHI_1).reserve_prices(index)
    supply = index.available() * spec.config.operator_supply_fraction
    return index, bids, reserve, supply


def run_engine(index, bids, reserve, supply, engine: str):
    auction = AscendingClockAuction(
        index, bids, reserve_prices=reserve, supply=supply,
        config=AuctionConfig(engine=engine),
    )
    start = time.perf_counter()
    outcome = auction.run()
    return auction, outcome, time.perf_counter() - start


def assert_identical(batch_outcome, inc_outcome) -> None:
    """Identity first: a fast wrong answer is worthless."""
    assert inc_outcome.round_count == batch_outcome.round_count
    assert inc_outcome.final_prices.tobytes() == batch_outcome.final_prices.tobytes()
    assert inc_outcome.excess_demand.tobytes() == batch_outcome.excess_demand.tobytes()


def test_incremental_round_throughput(benchmark):
    index = build_index(POOL_COUNT_CLUSTERS)
    rng = np.random.default_rng(99)
    reserve = np.ones(len(index))
    supply = index.available() * 0.9
    rows = []

    def measure():
        rows.clear()
        for count in BIDDER_COUNTS:
            bids = build_bids(index, count, rng)
            _, batch_outcome, batch_wall = run_engine(index, bids, reserve, supply, "batch")
            inc_auction, inc_outcome, inc_wall = run_engine(
                index, bids, reserve, supply, "incremental"
            )
            assert_identical(batch_outcome, inc_outcome)
            stats = inc_auction.incremental_stats
            rounds = batch_outcome.round_count
            rows.append(
                {
                    "bidders": count,
                    "pools": len(index),
                    "rounds": rounds,
                    "batch_rounds_per_second": rounds / batch_wall,
                    "incremental_rounds_per_second": rounds / inc_wall,
                    "speedup": batch_wall / inc_wall if inc_wall > 0 else float("inf"),
                    "mean_rows_fraction_after_first": stats[
                        "mean_rows_fraction_after_first"
                    ],
                }
            )
        return rows

    benchmark.pedantic(measure, rounds=1, iterations=1)

    print_section("Batch vs incremental full clock auctions (synthetic bids)")
    print(f"{'bidders':>8} {'rounds':>7} {'batch r/s':>11} {'inc r/s':>11} {'x':>6} {'rows%':>7}")
    for row in rows:
        print(
            f"{row['bidders']:>8d} {row['rounds']:>7d} "
            f"{row['batch_rounds_per_second']:>11.1f} "
            f"{row['incremental_rounds_per_second']:>11.1f} "
            f"{row['speedup']:>5.2f}x {row['mean_rows_fraction_after_first'] * 100:>6.1f}"
        )

    if FULL_SCALE:
        record_bench_entry(BENCH_JSON, merge=True, throughput=rows)


@pytest.mark.slow
def test_incremental_stress_late_rounds(benchmark):
    """Replay the stress preset's price path: late rounds must clear >= 2x.

    A full batch auction run records the price trajectory; both engines then
    replay it round by round (best-of-``REPLAY_REPEATS``, responses checked
    bitwise each round).  The acceptance bar is on the late rounds — after
    round 2, with under half the pools still moving — where retirement and
    delta targeting concentrate the engine's advantage.
    """
    index, bids, reserve, supply = stress_bid_window(STRESS_PRESET)
    _, outcome, _ = run_engine(index, bids, reserve, supply, "batch")
    path = [r.prices for r in outcome.rounds]
    engine = BatchDemandEngine(index, bids)
    engine.respond_all(path[0])  # build the stacked matrices off the clock

    measured: dict[str, object] = {}

    def replay():
        batch_best = None
        for _ in range(REPLAY_REPEATS):
            timings = []
            for prices in path:
                start = time.perf_counter()
                engine.respond_all(prices)
                timings.append(time.perf_counter() - start)
            if batch_best is None or sum(timings) < sum(batch_best):
                batch_best = timings
        inc_best, state = None, None
        for _ in range(REPLAY_REPEATS):
            trial_state = engine.incremental()
            timings = []
            for prices in path:
                start = time.perf_counter()
                trial_state.advance(prices)
                timings.append(time.perf_counter() - start)
            if inc_best is None or sum(timings) < sum(inc_best):
                inc_best, state = timings, trial_state
        measured["batch"] = batch_best
        measured["incremental"] = inc_best
        measured["state"] = state
        return measured

    benchmark.pedantic(replay, rounds=1, iterations=1)

    # Bitwise identity of the replayed rounds (totals and activity).
    check = engine.incremental()
    for prices in path:
        response = check.respond_delta(prices)
        want = engine.respond_all(prices)
        assert response.total.tobytes() == want.total.tobytes()
        assert response.active.tobytes() == want.active.tobytes()

    moved_fraction = [1.0] + [
        float(np.mean(path[i] != path[i - 1])) for i in range(1, len(path))
    ]
    late = [i for i in range(2, len(path)) if moved_fraction[i] < LATE_MOVED_FRACTION]

    batch_times = measured["batch"]
    inc_times = measured["incremental"]
    late_batch = sum(batch_times[i] for i in late)
    late_inc = sum(inc_times[i] for i in late)
    late_speedup = late_batch / late_inc if late_inc > 0 else float("inf")
    stats = measured["state"].stats()
    row = {
        "preset": STRESS_PRESET,
        "bidders": len(bids),
        "pools": len(index),
        "bundle_rows": stats["bundle_rows"],
        "rounds": len(path),
        "late_rounds": len(late),
        "mean_late_moved_fraction": (
            float(np.mean([moved_fraction[i] for i in late])) if late else 0.0
        ),
        "full_path_speedup": sum(batch_times) / sum(inc_times),
        "late_batch_rounds_per_second": len(late) / late_batch if late_batch else 0.0,
        "late_incremental_rounds_per_second": len(late) / late_inc if late_inc else 0.0,
        "late_speedup": late_speedup,
        "rows_fraction_per_round": [
            round(r / stats["bundle_rows"], 4) for r in stats["rows_evaluated"]
        ],
    }

    print_section(f"Incremental vs batch replay ({STRESS_PRESET})")
    print(
        f"bidders={row['bidders']} pools={row['pools']} rounds={row['rounds']} "
        f"late={row['late_rounds']} (moved < {LATE_MOVED_FRACTION * 100:.0f}%)"
    )
    print(
        f"full path {row['full_path_speedup']:.2f}x   late rounds "
        f"{row['late_batch_rounds_per_second']:.1f} -> "
        f"{row['late_incremental_rounds_per_second']:.1f} rounds/s "
        f"({late_speedup:.2f}x)"
    )

    if FULL_SCALE:
        record_bench_entry(BENCH_JSON, merge=True, stress_late_rounds=row)
        assert late, "stress path produced no late rounds to measure"


def test_row_fraction_paper_reference(benchmark):
    """The paper's own scale: < 30% of rows re-evaluated after round 2."""
    index, bids, reserve, supply = stress_bid_window("paper-reference")
    results: dict[str, object] = {}

    def measure():
        results.clear()
        auction, outcome, wall = run_engine(index, bids, reserve, supply, "incremental")
        results["stats"] = auction.incremental_stats
        results["rounds"] = outcome.round_count
        results["wall"] = wall
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)

    stats = results["stats"]
    k = stats["bundle_rows"]
    fractions = [r / k for r in stats["rows_evaluated"]]
    after_round_2 = fractions[2:]
    mean_after_2 = float(np.mean(after_round_2)) if after_round_2 else 0.0
    row = {
        "bidders": len(bids),
        "bundle_rows": k,
        "rounds": results["rounds"],
        "retired_bidders": stats["retired_bidders"],
        "mean_rows_fraction_after_round_2": mean_after_2,
        "rows_fraction_per_round": [round(f, 4) for f in fractions],
    }

    print_section("Incremental row targeting (paper-reference)")
    print(
        f"rounds={row['rounds']} bundle_rows={k} retired={row['retired_bidders']} "
        f"mean rows after round 2: {mean_after_2 * 100:.1f}%"
    )

    if FULL_SCALE:
        record_bench_entry(BENCH_JSON, merge=True, paper_reference=row)
    assert results["rounds"] > 2, "paper-reference auction ended before round 3"
    assert mean_after_2 < MAX_MEAN_ROW_FRACTION, row
