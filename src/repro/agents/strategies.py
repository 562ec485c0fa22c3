"""Bidding strategies: how teams convert needs + market view into sealed bids.

Each strategy reproduces one of the behavioural patterns reported in the
paper's Section V (see the package docstring).  Strategies are deliberately
simple and inspectable — the point of the reproduction is the *mechanism's*
response to these behaviours, not sophisticated agent AI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.agents.base import MarketView, TeamAgent
from repro.agents.learning import AdaptiveMarginModel
from repro.agents.relocation import RelocationCostModel
from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.settlement import SettlementLine


class BiddingStrategy(Protocol):
    """The strategy interface used by :class:`repro.agents.base.TeamAgent`."""

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        """Produce the agent's sealed bids for this auction."""
        ...  # pragma: no cover - protocol

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        """Observe the agent's settlement lines after the auction."""
        ...  # pragma: no cover - protocol


def _home_bundle(agent: TeamAgent, view: MarketView, cluster: str | None = None) -> dict[str, float]:
    """The agent's aggregate covering bundle, homed at ``cluster`` (default: home)."""
    return agent.demand.covering_bundle(agent.catalog, view.index, cluster)


def _bundle_cost(bundle: dict[str, float], prices) -> float:
    return float(sum(qty * prices[name] for name, qty in bundle.items()))


def _buy_bid(agent: TeamAgent, view: MarketView, bundles: list[dict[str, float]], limit: float, **metadata: object) -> Bid:
    return Bid(
        bidder=agent.name,
        bundles=BundleSet(view.index, view.index.matrix(bundles)),
        limit=float(max(limit, 0.0)),
        metadata={"strategy": type(agent.strategy).__name__, **metadata},
    )


@dataclass
class FixedPriceAnchorStrategy:
    """Anchor the limit price to the *former fixed prices*, not the market.

    This is the dominant early-auction behaviour the paper reports; because
    fixed prices can be far from the clearing prices, these bids produce the
    wide, erratic premiums of the first auctions.
    """

    margin: float = 0.75
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    jitter: float = 0.5

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        bundle = _home_bundle(agent, view)
        if not bundle:
            return []
        anchor = _bundle_cost(bundle, view.fixed_prices)
        noise = float(self.rng.uniform(-self.jitter, self.jitter))
        limit = agent.affordable_limit(anchor * (1.0 + max(self.margin + noise, 0.0)))
        return [_buy_bid(agent, view, [bundle], limit, anchor="fixed_price")]

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        return None  # deliberately non-adaptive


@dataclass
class MarketTrackerStrategy:
    """Anchor the limit price to the displayed market prices with a shrinking margin.

    This is the mature-market behaviour: teams watch the preliminary prices and
    bid just above them, so winner premiums fall towards zero (Table I).
    """

    margins: AdaptiveMarginModel = field(default_factory=AdaptiveMarginModel)
    alternatives: int = 0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        home = agent.demand.home_cluster
        clusters = [home]
        if self.alternatives:
            for cluster in view.cheapest_clusters(limit=self.alternatives + 1):
                if cluster != home and len(clusters) < self.alternatives + 1:
                    clusters.append(cluster)
        bundles = [_home_bundle(agent, view, c) for c in clusters]
        bundles = [b for b in bundles if b]
        if not bundles:
            return []
        cheapest_cost = min(_bundle_cost(b, view.displayed_prices) for b in bundles)
        limit = agent.affordable_limit(self.margins.limit_for(cheapest_cost))
        return [_buy_bid(agent, view, bundles, limit, anchor="market_price")]

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        for line in lines:
            if line.won:
                self.margins.record_win(observed_premium=line.premium)
            else:
                self.margins.record_loss()


@dataclass
class LowballStrategy:
    """Enter deliberately low bids expecting excess supply to settle them anyway.

    "Some bidders in earlier auctions would enter arbitrarily low bids in the
    expectation that these trades would be settled due to lack of competition
    and excess Google supply without reserve prices."
    """

    fraction: float = 0.35
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        bundle = _home_bundle(agent, view)
        if not bundle:
            return []
        cost = _bundle_cost(bundle, view.displayed_prices)
        limit = agent.affordable_limit(cost * self.fraction * float(self.rng.uniform(0.5, 1.0)))
        return [_buy_bid(agent, view, [bundle], limit, anchor="lowball")]

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        return None


@dataclass
class PremiumPayerStrategy:
    """Keep growing in the congested home cluster, whatever the price.

    "We also saw other teams that were willing to pay a significant price
    premium to continue growing in congested clusters even though resources
    were available at much lower cost elsewhere."  These teams have a high
    engineering cost of relocation (data locality, latency), so their bids
    name only the home cluster and carry a large premium — the outliers in
    Figure 7.
    """

    premium: float = 2.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        bundle = _home_bundle(agent, view)
        if not bundle:
            return []
        cost = _bundle_cost(bundle, view.displayed_prices)
        limit = agent.affordable_limit(cost * (1.0 + self.premium * float(self.rng.uniform(0.8, 1.2))))
        return [_buy_bid(agent, view, [bundle], limit, anchor="premium", relocatable=False)]

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        return None


@dataclass
class RelocatorStrategy:
    """Move demand to cheaper, less utilized clusters when the discount beats the move cost.

    "Teams that find resource A at a significant discount to resource B may bid
    on resource A and set about reengineering their job to use less of
    resource B and more of resource A."  The relocator quotes its bundle in
    every candidate cluster, subtracts the (amortised) relocation cost from
    the attractiveness of each alternative, and submits the XOR set of the
    worthwhile ones.
    """

    relocation: RelocationCostModel = field(default_factory=RelocationCostModel)
    candidate_count: int = 4
    margins: AdaptiveMarginModel = field(default_factory=lambda: AdaptiveMarginModel(initial_margin=0.4))
    amortisation_periods: float = 4.0

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        home = agent.demand.home_cluster
        home_bundle = _home_bundle(agent, view, home)
        if not home_bundle:
            return []
        home_cost = _bundle_cost(home_bundle, view.displayed_prices)
        workload_size = agent.demand.total_quantity()

        alternatives: list[tuple[str, dict[str, float], float]] = [(home, home_bundle, home_cost)]
        for cluster in view.cheapest_clusters(limit=self.candidate_count + 1):
            if cluster == home:
                continue
            bundle = _home_bundle(agent, view, cluster)
            recurring = _bundle_cost(bundle, view.displayed_prices)
            move = self.relocation.move_cost(
                view.topology, home, cluster, workload_size=workload_size, mobile=agent.demand.mobile
            )
            effective = recurring + move / self.amortisation_periods
            # only include alternatives that actually beat staying home
            if effective < home_cost:
                alternatives.append((cluster, bundle, recurring))
        bundles = [bundle for _, bundle, _ in alternatives]
        cheapest_cost = min(cost for _, _, cost in alternatives)
        limit = agent.affordable_limit(self.margins.limit_for(cheapest_cost))
        return [
            _buy_bid(
                agent,
                view,
                bundles,
                limit,
                anchor="relocation",
                candidates=[c for c, _, _ in alternatives],
            )
        ]

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        for line in lines:
            if line.won:
                self.margins.record_win(observed_premium=line.premium)
            else:
                self.margins.record_loss()


@dataclass
class SellerStrategy:
    """Offer held quota in congested clusters to profit from the higher prices.

    "In those clusters with the highest market prices for resources we saw a
    number of large teams offer resources on the market to take advantage of
    the higher prices and move to less congested clusters."  Sellers anchor
    their minimum revenue *below* the displayed value, confident that
    competition will lift the clearing price ("a number of sellers will enter
    very low prices confident that there will be ample competition").
    """

    offer_fraction: float = 0.8
    reserve_discount: float = 0.5
    utilization_threshold: float = 0.7

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        if not agent.holdings:
            return []
        offered: dict[str, float] = {}
        for name, quantity in agent.holdings.items():
            if quantity <= 0:
                continue
            if view.utilization(name) >= self.utilization_threshold:
                offered[name] = quantity * self.offer_fraction
        if not offered:
            return []
        value = _bundle_cost(offered, view.displayed_prices)
        min_revenue = max(value * self.reserve_discount, 0.0)
        return [
            Bid.sell(
                agent.name,
                view.index,
                [offered],
                min_revenue=min_revenue,
                strategy=type(self).__name__,
                anchor="sell_congested",
            )
        ]

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        return None


@dataclass
class ArbitrageurStrategy:
    """Buy under-priced pools now, sell them back when the price differential widens.

    "Another change in bidder behavior we have observed is an increasing
    sophistication towards arbitrage opportunities.  As the market price
    differential between resources increases there have been greater
    opportunities for teams to profit from one auction to the next."
    """

    buy_budget_fraction: float = 0.5
    sell_markup: float = 1.3
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    #: Average purchase price per pool, updated as positions are opened.
    cost_basis: dict[str, float] = field(default_factory=dict)

    def prepare_bids(self, agent: TeamAgent, view: MarketView) -> list[Bid]:
        bids: list[Bid] = []
        # Sell any holding whose displayed price has risen past the markup.
        to_sell: dict[str, float] = {}
        for name, quantity in agent.holdings.items():
            basis = self.cost_basis.get(name)
            if quantity > 0 and basis is not None and view.price(name) >= basis * self.sell_markup:
                to_sell[name] = quantity
        if to_sell:
            value = _bundle_cost(to_sell, view.displayed_prices)
            bids.append(
                Bid.sell(
                    agent.name, view.index, [to_sell], min_revenue=value * 0.8,
                    strategy=type(self).__name__, anchor="arbitrage_sell",
                )
            )
        # Buy the cheapest cluster's CPU/RAM relative to fixed price.
        cheapest = view.cheapest_clusters(limit=1)[0]
        bundle = _home_bundle(agent, view, cheapest)
        if bundle:
            cost = _bundle_cost(bundle, view.displayed_prices)
            limit = agent.affordable_limit(
                min(cost * 1.05, agent.budget * self.buy_budget_fraction if agent.budget > 0 else cost * 1.05)
            )
            if limit > 0:
                bids.append(
                    _buy_bid(agent, view, [bundle], limit, anchor="arbitrage_buy", target=cheapest)
                )
        return bids

    def observe(self, agent: TeamAgent, lines: Sequence[SettlementLine], view: MarketView) -> None:
        for line in lines:
            if not line.won:
                continue
            allocation = view.index.describe(line.allocation)
            bought = {name: qty for name, qty in allocation.items() if qty > 0}
            total_qty = sum(bought.values())
            if total_qty > 0 and line.payment > 0:
                for name, qty in bought.items():
                    # attribute cost proportionally to quantity at displayed prices
                    share = qty * view.price(name) / max(
                        sum(q * view.price(n) for n, q in bought.items()), 1e-9
                    )
                    self.cost_basis[name] = (line.payment * share) / qty
