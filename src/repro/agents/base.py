"""Agent framework: the market view, demand profiles, and the team agent shell.

A :class:`TeamAgent` owns a demand profile (what the team needs to run), a
bidding strategy (how it converts that need plus the current market view into
sealed bids), and a learning model that adjusts its limit-price margin from
one auction to the next.  The economy simulation calls
:meth:`TeamAgent.prepare_bids` each auction and feeds back the team's
settlement via :meth:`TeamAgent.observe_settlement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.cluster.pools import PoolIndex
from repro.cluster.topology import FleetTopology
from repro.core.bids import Bid
from repro.core.settlement import SettlementLine
from repro.market.services import ServiceCatalog, ServiceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.agents.strategies import BiddingStrategy


@dataclass(frozen=True)
class MarketView:
    """Everything an agent is allowed to see when preparing its bids.

    Mirrors the information on the trading-platform front end: the pool index
    (capacities and utilizations), the currently displayed prices, the former
    fixed prices, and which auction number this is.  A view is not changed
    after it is built, so what strategies read from it by position (the
    prices in index order, the utilizations, the cluster rankings) is
    derived once per view.
    """

    index: PoolIndex
    displayed_prices: Mapping[str, float]
    fixed_prices: Mapping[str, float]
    auction_number: int
    topology: FleetTopology | None = None
    _cluster_rankings: dict[str, list[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def price(self, pool_name: str) -> float:
        """Displayed price of one pool."""
        return float(self.displayed_prices[pool_name])

    def cheapest_clusters(self, *, by: str = "cpu", limit: int | None = None) -> list[str]:
        """Clusters ordered by ascending displayed price of one resource dimension.

        The order is computed once per view and dimension; a view's prices
        are not changed after it is built.
        """
        ordered = self._cluster_rankings.get(by)
        if ordered is None:
            ordered = sorted(self.index.clusters(), key=lambda c: self.displayed_prices[f"{c}/{by}"])
            self._cluster_rankings[by] = ordered
        return list(ordered) if limit is None else ordered[:limit]

    @cached_property
    def displayed_price_list(self) -> list[float]:
        """The displayed prices in index order, read from the mapping once per view."""
        return [self.displayed_prices[name] for name in self.index.names]

    @cached_property
    def fixed_price_list(self) -> list[float]:
        """The former fixed prices in index order, read from the mapping once per view."""
        return [self.fixed_prices[name] for name in self.index.names]

    @cached_property
    def _utilization_list(self) -> list[float]:
        return self.index.utilizations().tolist()

    def utilization(self, pool_name: str) -> float:
        """Current utilization of one pool."""
        return self._utilization_list[self.index.index_of(pool_name)]


@dataclass
class DemandProfile:
    """What a team needs: service requests anchored at a home cluster.

    Attributes
    ----------
    home_cluster:
        Where the team's workload currently runs.
    requests:
        The service-level requirements the team must provision for.
    growth_rate:
        Multiplicative demand growth per auction period (e.g. 0.05 = +5%).
    mobile:
        Whether the workload can move clusters without prohibitive cost.
    """

    home_cluster: str
    requests: list[ServiceRequest] = field(default_factory=list)
    growth_rate: float = 0.0
    mobile: bool = True

    def grow(self) -> None:
        """Apply one period of demand growth in place."""
        if self.growth_rate == 0.0:
            return
        self.requests = [
            ServiceRequest(
                service=req.service,
                cluster=req.cluster,
                quantity=req.quantity * (1.0 + self.growth_rate),
            )
            for req in self.requests
        ]

    def total_quantity(self) -> float:
        """Sum of request quantities (a crude workload-size proxy)."""
        return float(sum(req.quantity for req in self.requests))

    def covering_columns(
        self, catalog: ServiceCatalog, index: PoolIndex, cluster: str | None = None
    ) -> list[tuple[int, float]]:
        """Aggregate covering bundle of all requests, optionally re-homed to ``cluster``.

        :meth:`ServiceCatalog.covering_amounts` placed at the cluster's pool
        columns by :meth:`PoolIndex.place`: ``(column, amount)`` pairs, each
        amount the sum of the requests' covering quantities in request order.
        Strategies bid on it and the epoch's demand rows are built from it.
        """
        return index.place(catalog.covering_amounts(self.requests), cluster or self.home_cluster)

    def covering_bundle(self, catalog: ServiceCatalog, index: PoolIndex, cluster: str | None = None) -> dict[str, float]:
        """The ``{pool name: quantity}`` view of :meth:`covering_columns`.

        The population's starting holdings come from here.
        """
        names = index.names
        return {names[column]: amount for column, amount in self.covering_columns(catalog, index, cluster)}


class TeamAgent:
    """One engineering team participating in the market."""

    def __init__(
        self,
        name: str,
        *,
        demand: DemandProfile,
        strategy: "BiddingStrategy",
        catalog: ServiceCatalog,
        budget: float = 0.0,
    ):
        self.name = name
        self.demand = demand
        self.strategy = strategy
        self.catalog = catalog
        self.budget = budget
        #: Quota the agent currently holds, keyed by pool name (refreshed by the simulation).
        self.holdings: dict[str, float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TeamAgent({self.name!r}, strategy={type(self.strategy).__name__})"

    # -- main hooks -------------------------------------------------------------------
    def prepare_bids(self, view: MarketView) -> list[Bid]:
        """Produce this auction's sealed bids."""
        bids = self.strategy.prepare_bids(self, view)
        for bid in bids:
            if bid.bidder != self.name:
                raise ValueError(
                    f"strategy {type(self.strategy).__name__} produced a bid for {bid.bidder!r}"
                )
        return bids

    def observe_settlement(self, lines: Sequence[SettlementLine], view: MarketView) -> None:
        """Feed back the agent's settlement lines so its strategy can adapt."""
        own = [line for line in lines if line.bidder == self.name]
        self.strategy.observe(self, own, view)
        self.demand.grow()

    # -- helpers used by strategies ----------------------------------------------------
    def affordable_limit(self, desired_limit: float) -> float:
        """Clamp a desired limit price to the agent's remaining budget."""
        if self.budget <= 0:
            return max(0.0, desired_limit)
        return float(min(max(desired_limit, 0.0), self.budget))
