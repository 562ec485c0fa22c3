"""The trading platform: bid windows, two-step bid entry, periodic auctions.

This is the programmatic equivalent of the paper's internal web application
(Section V-A).  A platform instance owns:

* the current :class:`~repro.cluster.pools.PoolIndex` (capacities, costs,
  utilizations — refreshed by the operator between auctions);
* the budget-dollar :class:`~repro.market.accounts.Ledger`;
* the :class:`~repro.market.quotas.QuotaRegistry` of team holdings;
* the :class:`~repro.market.services.ServiceCatalog` used for two-step bid entry;
* an :class:`~repro.market.orderbook.OrderBook` per bid window;
* the :class:`~repro.core.exchange.CombinatorialExchange` configuration used to
  run preliminary and binding clock auctions.

Typical flow for one auction event::

    platform.open_bid_window()
    ticket = platform.quote(team, ServiceRequest("gfs_storage", "cluster-03", 50))
    platform.submit_quoted_bid(ticket, max_payment=1.2 * ticket.estimated_cost)
    platform.run_preliminary()          # repeated during the window
    record = platform.finalize_auction()  # binding prices + allocations
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.bidlang.ast import BidNode
from repro.bidlang.flatten import to_bundle_set
from repro.bidlang.validate import require_valid
from repro.cluster.pools import PoolIndex
from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.clock_auction import AuctionConfig
from repro.core.exchange import CombinatorialExchange, ExchangeResult, require_valid_bid
from repro.core.increment import IncrementPolicy
from repro.core.prices import PriceTable
from repro.core.reserve import ReservePricer, WeightingFunction
from repro.market.accounts import Ledger
from repro.market.orderbook import Order, OrderBook
from repro.market.quotas import QuotaRegistry
from repro.market.services import ServiceCatalog, ServiceRequest, default_catalog
from repro.market.summary import MarketSummary, build_market_summary


class BidWindowError(RuntimeError):
    """An operation was attempted outside an open bid window."""


@dataclass(frozen=True)
class BidTicket:
    """Step-1/step-2 output of the two-step bid entry (Figure 4).

    Produced by :meth:`TradingPlatform.quote`: the covering resource bundles
    for a service request (one per candidate cluster), the current market
    prices of those components, and the estimated cost of the cheapest
    alternative.  The team completes the bid by choosing a limit price.
    """

    team: str
    bundles: tuple[dict[str, float], ...]
    component_prices: dict[str, float]
    estimated_cost: float
    service: str | None = None

    def bundle_costs(self) -> list[float]:
        """Cost of each alternative bundle at the quoted component prices."""
        return [
            float(sum(qty * self.component_prices[name] for name, qty in bundle.items()))
            for bundle in self.bundles
        ]


@dataclass
class AuctionRecord:
    """The archived result of one binding auction run."""

    auction_id: int
    result: ExchangeResult
    order_count: int
    #: Prices displayed on the front end before this auction ran (for deltas).
    prior_prices: dict[str, float]

    @property
    def prices(self) -> dict[str, float]:
        return self.result.final_prices.as_map()

    @property
    def settled_fraction(self) -> float:
        return self.result.settlement.settled_fraction()

    @property
    def rounds(self) -> int:
        """Clock rounds the binding auction took to clear."""
        return self.result.rounds


class TradingPlatform:
    """The resource-market trading platform."""

    def __init__(
        self,
        index: PoolIndex,
        *,
        catalog: ServiceCatalog | None = None,
        ledger: Ledger | None = None,
        quotas: QuotaRegistry | None = None,
        weighting: WeightingFunction | ReservePricer | None = None,
        increment: IncrementPolicy | None = None,
        auction_config: AuctionConfig | None = None,
        operator_supply_fraction: float = 1.0,
        fixed_prices: Mapping[str, float] | None = None,
    ):
        self.index = index
        self.catalog = catalog or default_catalog()
        self.ledger = ledger or Ledger()
        self.quotas = quotas or QuotaRegistry(index=index)
        self._weighting = weighting
        self._increment = increment
        self._auction_config = auction_config
        self._operator_supply_fraction = operator_supply_fraction
        #: The operator's pre-market fixed price per pool (defaults to unit costs).
        self.fixed_prices: dict[str, float] = dict(
            fixed_prices or {pool.name: pool.unit_cost for pool in index}
        )
        self.order_book = OrderBook()
        self._window_open = False
        self._auction_ids = itertools.count(1)
        self._current_auction_id: int | None = None
        #: Prices shown on the market summary; start at the fixed prices and
        #: are refreshed by preliminary and binding auction runs.
        self.displayed_prices: dict[str, float] = dict(self.fixed_prices)

    # -- exchange construction ----------------------------------------------------------
    def _exchange(self) -> CombinatorialExchange:
        return CombinatorialExchange(
            self.index,
            weighting=self._weighting,
            increment=self._increment,
            auction_config=self._auction_config,
            operator_supply_fraction=self._operator_supply_fraction,
        )

    # -- participants -------------------------------------------------------------------
    def register_team(self, team: str, *, budget: float = 0.0, initial_quota: Mapping[str, float] | None = None) -> None:
        """Open an account (with a budget endowment) and optional starting quota for a team."""
        if not self.ledger.has_account(team):
            self.ledger.open_account(team, endowment=budget)
        elif budget:
            self.ledger.credit(team, budget)
        if initial_quota:
            self.quotas.grant(team, dict(initial_quota))

    # -- bid window lifecycle --------------------------------------------------------------
    @property
    def window_open(self) -> bool:
        """Whether a bid window is currently accepting orders."""
        return self._window_open

    def open_bid_window(self) -> int:
        """Start a new bid window; returns the auction id it will settle under."""
        if self._window_open:
            raise BidWindowError("a bid window is already open")
        self.order_book.clear()
        self._current_auction_id = next(self._auction_ids)
        self._window_open = True
        return self._current_auction_id

    def _require_window(self) -> None:
        if not self._window_open:
            raise BidWindowError("no bid window is open")

    # -- two-step bid entry ----------------------------------------------------------------
    def quote(
        self,
        team: str,
        request: ServiceRequest,
        *,
        alternative_clusters: Sequence[str] | None = None,
    ) -> BidTicket:
        """Step 1 + 2 of bid entry: covering bundles and their current prices.

        ``alternative_clusters`` lists other clusters the team would accept the
        same service in; each becomes one bundle of the XOR indifference set.

        Examples
        --------
        >>> from repro.cluster.pools import demo_pool_index
        >>> from repro.cluster.resources import cpu_ram_disk
        >>> from repro.market.services import ServiceSpec
        >>> catalog = ServiceCatalog()
        >>> catalog.register(ServiceSpec("cache", "GiB cached", cpu_ram_disk(0.5, 1.0, 0.0)))
        >>> platform = TradingPlatform(demo_pool_index(), catalog=catalog)
        >>> ticket = platform.quote("web", ServiceRequest("cache", "a", 8.0), alternative_clusters=["b"])
        >>> ticket.bundles
        ({'a/cpu': 4.0, 'a/ram': 8.0}, {'b/cpu': 4.0, 'b/ram': 8.0})
        >>> ticket.component_prices        # displayed prices: the fixed prices before any auction
        {'a/cpu': 10.0, 'a/ram': 2.0, 'b/cpu': 10.0, 'b/ram': 2.0}
        >>> ticket.estimated_cost
        56.0
        >>> _ = platform.open_bid_window()
        >>> platform.submit_quoted_bid(ticket, max_payment=70.0).side.value
        'bid'
        """
        clusters = [request.cluster, *(alternative_clusters or [])]
        amounts = self.catalog.covering_amounts([request])
        names = self.index.names
        bundles = tuple(
            {names[column]: amount for column, amount in self.index.place(amounts, c)} for c in clusters
        )
        touched = sorted({name for bundle in bundles for name in bundle})
        prices = {name: self.displayed_prices[name] for name in touched}
        costs = [sum(qty * prices[name] for name, qty in bundle.items()) for bundle in bundles]
        return BidTicket(
            team=team,
            bundles=bundles,
            component_prices=prices,
            estimated_cost=float(min(costs)),
            service=request.service,
        )

    def submit_quoted_bid(self, ticket: BidTicket, *, max_payment: float, **metadata: object) -> Order:
        """Complete a quoted request by attaching a limit price and submitting it."""
        self._require_window()
        if max_payment < 0:
            raise ValueError("max_payment must be non-negative")
        bid = Bid(
            bidder=ticket.team,
            bundles=BundleSet(self.index, self.index.matrix(ticket.bundles)),
            limit=float(max_payment),
            metadata={"service": ticket.service, **metadata},
        )
        return self.submit_bid(bid)

    # -- raw bid submission --------------------------------------------------------------------
    def submit_bid(self, bid: Bid) -> Order:
        """Submit a sealed bid, enforcing validity, budget (buys) and quota (sells) feasibility.

        A bid that :func:`~repro.core.bids.validate_bid` rejects raises
        :class:`~repro.core.exchange.BidValidationError` here
        (:func:`~repro.core.exchange.require_valid_bid`): admitted, it would
        fail the binding auction for every team.
        """
        self._require_window()
        require_valid_bid(bid)
        if bid.limit > 0 and self.ledger.has_account(bid.bidder):
            balance = self.ledger.balance(bid.bidder)
            if bid.limit > balance + 1e-9:
                raise ValueError(
                    f"{bid.bidder} bid limit {bid.limit:.2f} exceeds budget {balance:.2f}"
                )
        # Sellers must hold the quota they offer; a set with no negative
        # entry offers nothing, so buy bids skip building the offer vector.
        if bid.bundles.offers_any():
            max_offer = bid.bundles.max_offer()
            if np.any(max_offer > 0):
                names = self.index.names
                offered = {names[i]: float(max_offer[i]) for i in np.flatnonzero(max_offer > 0)}
                if not self.quotas.can_offer(bid.bidder, offered):
                    raise ValueError(f"{bid.bidder} offers quota it does not hold: {offered}")
        return self.order_book.submit(bid)

    def submit_tree_bid(self, bidder: str, tree: BidNode, limit: float, **metadata: object) -> Order:
        """Submit a bid expressed in the tree bidding language."""
        self._require_window()
        require_valid(tree, self.index)
        bid = Bid(
            bidder=bidder,
            bundles=to_bundle_set(tree, self.index),
            limit=float(limit),
            metadata=dict(metadata),
        )
        return self.submit_bid(bid)

    # -- auction runs -----------------------------------------------------------------------------
    def run_preliminary(self) -> PriceTable:
        """Non-binding clock-auction run; refreshes the displayed prices (Figure 5)."""
        self._require_window()
        prices = self._exchange().preliminary_prices(self.order_book.active_bids())
        self.displayed_prices = prices.as_map()
        return prices

    def finalize_auction(self) -> AuctionRecord:
        """Run the binding auction, settle budgets and quotas, and close the window."""
        self._require_window()
        prior = dict(self.displayed_prices)
        result = self._exchange().run(self.order_book.active_bids())
        assert self._current_auction_id is not None
        auction_id = self._current_auction_id

        # Validation is strict, so the run settled every active order's bid,
        # in order; marking first checks that pairing before any posting.
        self.order_book.mark_settled(result.settlement.lines)
        for line in result.settlement.winners:
            if self.ledger.has_account(line.bidder):
                self.ledger.post_settlement(line.bidder, line.payment)
            self.quotas.apply_delta(line.bidder, line.allocation, allow_negative=True)

        self.displayed_prices = result.final_prices.as_map()
        record = AuctionRecord(
            auction_id=auction_id,
            result=result,
            order_count=len(self.order_book),
            prior_prices=prior,
        )
        self._window_open = False
        return record

    # -- reporting ---------------------------------------------------------------------------------
    def market_summary(self) -> MarketSummary:
        """The Figure 3 summary: per-cluster activity counts and current prices."""
        return build_market_summary(
            self.index,
            self.order_book,
            self.displayed_prices,
            auction_id=self._current_auction_id,
        )

    def update_pool_index(self, index: PoolIndex) -> None:
        """Swap in refreshed pool utilizations/capacities between auctions.

        The pool set must be unchanged (same names in the same order): quota
        holdings and fixed prices are keyed by pool.
        """
        if index.names != self.index.names:
            raise ValueError("updated pool index must contain the same pools in the same order")
        self.index = index
        self.quotas.index = index
