"""Figure 1 / Algorithm 1: the price-update loop of the clock auction.

Figure 1 is a schematic, not a data plot, so the reproducible artifact is the
round-by-round trace of the loop it depicts: at each round the auctioneer
collects proxy demands, computes excess demand, and raises the prices of
over-demanded pools.  This driver runs a reference scenario with the trace
enabled and summarises how prices and excess demand evolve per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agents.population import PopulationSpec
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig, AuctionOutcome
from repro.core.increment import default_increment
from repro.core.reserve import PAPER_PHI_1, ReservePricer
from repro.experiments import first_auction_bids


@dataclass(frozen=True)
class ClockRoundsResult:
    """The trace of one reference clock auction."""

    outcome: AuctionOutcome
    #: Number of pools whose price moved at least once.
    moved_pools: int
    #: Largest relative price rise over the reserve price across pools.
    max_relative_rise: float

    @property
    def rounds(self) -> int:
        return self.outcome.round_count

    def excess_demand_norms(self) -> list[float]:
        """The L1 norm of positive excess demand per round (monotonically shrinking pressure)."""
        return [float(np.clip(r.excess_demand, 0.0, None).sum()) for r in self.outcome.rounds]


def run_clock_rounds(
    *,
    cluster_count: int = 12,
    team_count: int = 40,
    seed: int = 0,
    record_bidder_demands: bool = False,
) -> ClockRoundsResult:
    """Run the reference clock auction with full round tracing."""
    index, bids = first_auction_bids(cluster_count, PopulationSpec(team_count=team_count), seed=seed)
    reserve = ReservePricer(weighting=PAPER_PHI_1).reserve_prices(index)
    auction = AscendingClockAuction(
        index,
        bids,
        reserve_prices=reserve,
        supply=index.available() * 0.9,
        increment=default_increment(index.capacities()),
        config=AuctionConfig(record_bidder_demands=record_bidder_demands),
    )
    outcome = auction.run()
    rises = (outcome.final_prices - reserve) / np.maximum(reserve, 1e-9)
    return ClockRoundsResult(
        outcome=outcome,
        moved_pools=int(np.count_nonzero(outcome.final_prices > reserve + 1e-12)),
        max_relative_rise=float(rises.max(initial=0.0)),
    )


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_clock_rounds()
    print("Algorithm 1 price-update loop trace")
    print(f"rounds: {result.rounds}, pools with price movement: {result.moved_pools}")
    print(f"max price rise over reserve: {result.max_relative_rise:.1%}")
    norms = result.excess_demand_norms()
    for t, norm in enumerate(norms[:: max(1, len(norms) // 10)]):
        print(f"  round {t * max(1, len(norms) // 10):>4d}: positive excess demand L1 = {norm:.1f}")


if __name__ == "__main__":  # pragma: no cover
    main()
