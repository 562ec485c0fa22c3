"""The combinatorial exchange: reserve pricing + clock auction + settlement.

This is the top-level mechanism the paper's trading platform maps user
requests into ("the trading platform then maps these into a simulated clock
auction of the form discussed previously").  One :class:`CombinatorialExchange`
instance corresponds to one auction event: it is configured with the current
pool index (capacities, unit costs, utilizations), computes congestion-weighted
reserve prices, runs the ascending clock auction over the collected bids plus
the operator's own supply, settles at the final prices, and verifies the
SYSTEM constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.bids import Bid, validate_bid
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig, AuctionOutcome
from repro.core.increment import IncrementPolicy, default_increment
from repro.core.prices import PriceTable, price_ratios
from repro.core.reserve import PAPER_PHI_1, ReservePricer, WeightingFunction
from repro.core.settlement import (
    ConstraintReport,
    Settlement,
    settle,
    verify_system_constraints,
)


class BidValidationError(ValueError):
    """A submitted bid failed structural validation."""


def require_valid_bid(bid: Bid) -> None:
    """Raise :class:`BidValidationError` if :func:`~repro.core.bids.validate_bid` finds problems.

    The message names the bidder and every problem.
    """
    problems = validate_bid(bid)
    if problems:
        raise BidValidationError(f"bid from {bid.bidder!r} is invalid: {'; '.join(problems)}")


@dataclass
class ExchangeResult:
    """Everything produced by one auction event."""

    index: PoolIndex
    reserve_prices: np.ndarray
    outcome: AuctionOutcome
    settlement: Settlement
    constraints: ConstraintReport
    operator_supply: np.ndarray

    @property
    def final_prices(self) -> PriceTable:
        """Final uniform unit prices as a :class:`PriceTable`."""
        return PriceTable(index=self.index, prices=self.outcome.final_prices)

    @property
    def rounds(self) -> int:
        """Number of clock rounds the auction took."""
        return self.outcome.round_count

    def price_ratio_to(self, fixed_prices: Mapping[str, float]) -> dict[str, float]:
        """Settled price / former fixed price per pool (Figure 6)."""
        return price_ratios(self.final_prices.as_map(), dict(fixed_prices))


class CombinatorialExchange:
    """Runs one complete auction event over a pool index.

    :meth:`run` raises :class:`BidValidationError` on the first structurally
    invalid bid, before any price is computed.

    Parameters
    ----------
    index:
        Resource pools with capacities, unit costs, and current utilizations.
    weighting:
        Weighting function (or :class:`ReservePricer`) used for the
        congestion-weighted reserve prices; defaults to the paper's phi_1.
    increment:
        Price-increment policy for the clock; defaults to the proportional
        policy scaled by pool capacities.
    auction_config:
        Round limits / tolerances for the clock auction.
    operator_supply_fraction:
        Fraction of each pool's *unused* capacity the operator offers to the
        market (the company "acts as a seller of resources").  1.0 offers
        everything that is currently free; 0.0 makes the operator a pure
        price-setter and all supply must come from selling teams.

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bids import Bid
    >>> index = demo_pool_index()
    >>> exchange = CombinatorialExchange(index)
    >>> result = exchange.run([Bid.buy("t", index, [{"b/cpu": 10}], max_payment=500.0)])
    >>> result.outcome.converged and result.constraints.satisfied
    True
    >>> [line.bidder for line in result.settlement.winners]
    ['t']
    """

    def __init__(
        self,
        index: PoolIndex,
        *,
        weighting: WeightingFunction | ReservePricer | None = None,
        increment: IncrementPolicy | None = None,
        auction_config: AuctionConfig | None = None,
        operator_supply_fraction: float = 1.0,
    ):
        if not (0.0 <= operator_supply_fraction <= 1.0):
            raise ValueError("operator_supply_fraction must lie in [0, 1]")
        self.index = index
        if isinstance(weighting, ReservePricer):
            self.reserve_pricer = weighting
        else:
            self.reserve_pricer = ReservePricer(weighting=weighting or PAPER_PHI_1)
        self.increment = increment or default_increment(index.capacities())
        self.auction_config = auction_config or AuctionConfig()
        self.operator_supply_fraction = operator_supply_fraction

    # -- components ----------------------------------------------------------------
    def reserve_prices(self) -> np.ndarray:
        """Congestion-weighted reserve prices for the current pool state."""
        return self.reserve_pricer.reserve_prices(self.index)

    def operator_supply(self) -> np.ndarray:
        """The quantity of each pool the operator offers to the market."""
        return self.index.available() * self.operator_supply_fraction

    def _validated(self, bids: Sequence[Bid]) -> list[Bid]:
        for bid in bids:
            require_valid_bid(bid)
        return list(bids)

    # -- main entry point --------------------------------------------------------------
    def run(self, bids: Sequence[Bid]) -> ExchangeResult:
        """Run reserve pricing, the clock auction, and settlement over ``bids``."""
        accepted = self._validated(bids)
        reserve = self.reserve_prices()
        supply = self.operator_supply()
        auction = AscendingClockAuction(
            self.index,
            accepted,
            reserve_prices=reserve,
            supply=supply,
            increment=self.increment,
            config=self.auction_config,
        )
        outcome = auction.run()
        settlement = settle(self.index, accepted, outcome.final_prices, supply=supply)
        constraints = verify_system_constraints(settlement, accepted)
        return ExchangeResult(
            index=self.index,
            reserve_prices=reserve,
            outcome=outcome,
            settlement=settlement,
            constraints=constraints,
            operator_supply=supply,
        )

    def preliminary_prices(self, bids: Sequence[Bid]) -> PriceTable:
        """Run a full simulation and return only the prices.

        The trading platform ran this "at periodic intervals during the bid
        collection phase" to display preliminary settlement prices on the
        market front end (Figure 5); only the final run is binding.
        """
        return self.run(bids).final_prices
