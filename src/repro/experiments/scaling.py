"""Section III-C-4 scaling claim: execution time is linear in bidders and resources.

"All else being equal, the execution time scales linearly in the number of
participants and the number of resources.  Solving for the prices in our
experimental resource auction (having around 100 bidders and 100 system-level
resources) ... took only a few minutes despite the fact that the underlying
code was written in Python and was highly non-optimized."

This driver times the clock auction over a grid of (bidders, resource pools)
sizes and fits the growth exponent, so the benchmark can check the scaling is
close to linear (exponent well below quadratic) and that the paper's reference
size (100 x 100) solves quickly.

Only :meth:`AscendingClockAuction.run` is timed, on the batch engine (the
default) at every grid point: validation, reserve pricing, settlement and the
SYSTEM check do not scale with the round count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.agents.population import PopulationSpec
from repro.core.bids import validate_bid
from repro.core.clock_auction import AscendingClockAuction
from repro.core.exchange import CombinatorialExchange
from repro.core.increment import default_increment
from repro.experiments import first_auction_bids

#: Timed auction runs per grid point; the point's time is their median.
TIMED_RUNS = 5


@dataclass(frozen=True)
class ScalingPoint:
    """Timing of one (bidders, pools) grid point.

    ``seconds`` is the median clock-auction run time; ``rounds`` and
    ``settled_fraction`` come from the exchange run over the same bids.
    """

    bidders: int
    pools: int
    seconds: float
    rounds: int
    settled_fraction: float

    @property
    def seconds_per_round(self) -> float:
        """Wall-clock time per clock round (isolates the per-round O(U x R) work)."""
        return self.seconds / max(self.rounds, 1)


@dataclass(frozen=True)
class ScalingResult:
    """All grid points plus fitted growth exponents.

    The exponents are fitted on the *per-round* time: the number of rounds a
    clock auction takes depends on how far prices must travel (a property of
    the bids, not of the system size), while the per-round work — evaluating
    every bidder's bundle costs over every pool — is what the paper's
    linear-scaling claim is about.
    """

    points: tuple[ScalingPoint, ...]
    bidder_exponent: float
    pool_exponent: float

    def point(self, bidders: int, pools: int) -> ScalingPoint:
        for point in self.points:
            if point.bidders == bidders and point.pools == pools:
                return point
        raise KeyError((bidders, pools))


def _one_auction(bidders: int, clusters: int, *, seed: int) -> ScalingPoint:
    index, bids = first_auction_bids(
        clusters, PopulationSpec(team_count=bidders, budget_per_team=1e6), seed=seed
    )
    exchange = CombinatorialExchange(
        index, increment=default_increment(index.capacities()), strict_validation=False
    )
    result = exchange.run(bids)
    accepted = [bid for bid in bids if not validate_bid(bid)]
    timings = []
    for _ in range(TIMED_RUNS):
        auction = AscendingClockAuction(
            index,
            accepted,
            reserve_prices=result.reserve_prices,
            supply=result.operator_supply,
            increment=exchange.increment,
        )
        start = time.perf_counter()
        auction.run()
        timings.append(time.perf_counter() - start)
    return ScalingPoint(
        bidders=bidders,
        pools=len(index),
        seconds=float(np.median(timings)),
        rounds=result.rounds,
        settled_fraction=result.settlement.settled_fraction(),
    )


def _fit_exponent(sizes: np.ndarray, times: np.ndarray) -> float:
    """Least-squares slope of log(time) vs log(size)."""
    if len(sizes) < 2:
        return 0.0
    return float(np.polyfit(np.log(sizes), np.log(np.maximum(times, 1e-9)), 1)[0])


def run_scaling(
    *,
    bidder_counts: tuple[int, ...] = (25, 50, 100, 200),
    cluster_counts: tuple[int, ...] = (8, 17, 34, 68),
    reference_bidders: int = 100,
    reference_clusters: int = 34,
    seed: int = 0,
) -> ScalingResult:
    """Time the auction across the bidder sweep and the pool sweep.

    The bidder sweep holds the fleet at ``reference_clusters`` clusters
    (~3x that many pools); the pool sweep holds bidders at
    ``reference_bidders``.  The reference point (100 bidders x ~102 pools)
    matches the paper's reported problem size.
    """
    points: list[ScalingPoint] = []
    for bidders in bidder_counts:
        points.append(_one_auction(bidders, reference_clusters, seed=seed))
    for clusters in cluster_counts:
        if clusters != reference_clusters:
            points.append(_one_auction(reference_bidders, clusters, seed=seed))

    bidder_points = [p for p in points if p.pools == reference_clusters * 3]
    pool_points = [p for p in points if p.bidders == reference_bidders]
    bidder_exp = _fit_exponent(
        np.array([p.bidders for p in bidder_points], dtype=float),
        np.array([p.seconds_per_round for p in bidder_points], dtype=float),
    )
    pool_exp = _fit_exponent(
        np.array([p.pools for p in pool_points], dtype=float),
        np.array([p.seconds_per_round for p in pool_points], dtype=float),
    )
    return ScalingResult(points=tuple(points), bidder_exponent=bidder_exp, pool_exponent=pool_exp)


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_scaling()
    print("Clock auction scaling (Section III-C-4)")
    print(f"{'bidders':>8} {'pools':>6} {'seconds':>9} {'rounds':>7} {'settled':>8}")
    for point in result.points:
        print(
            f"{point.bidders:>8d} {point.pools:>6d} {point.seconds:>9.3f} {point.rounds:>7d} {point.settled_fraction:>7.1%}"
        )
    print(f"\nfitted exponent in bidders: {result.bidder_exponent:.2f}")
    print(f"fitted exponent in pools:   {result.pool_exponent:.2f}")


if __name__ == "__main__":  # pragma: no cover
    main()
