"""The multi-auction market economy simulation.

Reproduces the longitudinal structure of the paper's experiment: periodic
clock auctions run against a fleet whose utilization evolves both organically
(traffic growth, launches) and as a *consequence of the previous auctions*
(teams that bought quota in idle clusters move load there; teams that sold
quota in congested clusters move load out).  Agents observe their settlements
and adapt their bidding between auctions, which is what drives Table I's
shrinking premiums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.agents.base import MarketView
from repro.analysis.allocation import (
    AllocationMetrics,
    allocation_metrics,
    market_outcome_from_quota_delta,
)
from repro.analysis.premium import PremiumStats, premium_stats
from repro.analysis.price_ratio import PriceRatioRow, price_ratio_table
from repro.analysis.utilization_stats import (
    SettledTrade,
    migration_summary,
    settled_trade_count,
    settled_trades,
)
from repro.core.settlement import Settlement
from repro.market.platform import AuctionRecord
from repro.simulation.scenario import Scenario
from repro.simulation.workload import (
    apply_settlement_to_utilization,
    demands_from_agents,
    organic_drift,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec


@dataclass
class AuctionPeriodResult:
    """What one auction period recorded, and the views derived from it.

    An epoch records its facts: the auction record, its Table I row, the
    pool utilizations before and after, the fixed prices in force and the
    allocation metrics.  The Figure 6 and 7 views — :attr:`trades`,
    :attr:`price_ratios` and :attr:`migration` — are derived from the
    settlement on first read and cached.
    """

    auction_number: int
    record: AuctionRecord
    premium: PremiumStats
    utilization_before: np.ndarray
    utilization_after: np.ndarray
    #: The operator's fixed price per pool when the auction ran (Figure 6's
    #: denominator).
    fixed_prices: dict[str, float]
    #: Team-level coverage of the market's *cumulative* provisioning (quota
    #: acquired since the simulation started) against the demand current at
    #: this epoch — the satisfied-fraction side of the paper's
    #: market-vs-baseline comparison (see :mod:`repro.analysis.allocation`;
    #: the pool-level shortage/surplus side is derived from
    #: ``utilization_after`` by the runner).
    allocation: AllocationMetrics

    @property
    def settlement(self) -> Settlement:
        return self.record.result.settlement

    @property
    def settled_fraction(self) -> float:
        return self.settlement.settled_fraction()

    @cached_property
    def trades(self) -> list[SettledTrade]:
        """Settled (bidder, pool) observations of this auction (Figure 7 input)."""
        return settled_trades(self.settlement)

    @cached_property
    def price_ratios(self) -> list[PriceRatioRow]:
        """Settled price over fixed price per cluster (Figure 6 rows)."""
        return price_ratio_table(self.settlement.index, self.record.prices, self.fixed_prices)

    @cached_property
    def migration(self) -> dict[str, float]:
        """Figure 7's headline numbers for this auction."""
        return migration_summary(self.trades)

    @property
    def trade_count(self) -> int:
        """``len(self.trades)``, counted without building the trades."""
        return settled_trade_count(self.settlement)


@dataclass
class EconomyHistory:
    """The full record of a multi-auction simulation run."""

    periods: list[AuctionPeriodResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.periods)

    def settlements(self) -> list[Settlement]:
        """Settlements of every auction, in order."""
        return [period.settlement for period in self.periods]

    def premium_rows(self) -> list[PremiumStats]:
        """Table I rows for every auction."""
        return [period.premium for period in self.periods]

    def all_trades(self) -> list[SettledTrade]:
        """Settled trades pooled across all auctions (Figure 7 input)."""
        trades: list[SettledTrade] = []
        for period in self.periods:
            trades.extend(period.trades)
        return trades

    def median_premium_series(self) -> list[float]:
        """Median gamma_u per auction (should trend downwards)."""
        return [period.premium.median_premium for period in self.periods]

    def utilization_spread_series(self) -> list[float]:
        """Utilization spread across pools after each auction."""
        return [float(np.std(period.utilization_after)) for period in self.periods]

    def allocation_series(self) -> list[AllocationMetrics]:
        """Cumulative shortage/surplus/satisfaction metrics per epoch."""
        return [period.allocation for period in self.periods]


class MarketEconomySimulation:
    """Drives a scenario through a sequence of periodic auctions."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        drift_scale: float = 0.015,
        move_out_fraction: float = 0.9,
        preliminary_runs: int = 0,
    ):
        if preliminary_runs < 0:
            raise ValueError("preliminary_runs must be non-negative")
        self.scenario = scenario
        self.drift_scale = drift_scale
        self.move_out_fraction = move_out_fraction
        self.preliminary_runs = preliminary_runs
        self.history = EconomyHistory()
        self._auction_counter = 0
        # Reference points for the cumulative allocation metrics: everything a
        # team holds beyond its starting quota counts as provisioned by the
        # market, and surplus is judged against the capacity that was free
        # before the first auction.
        self._initial_index = scenario.pool_index
        self._initial_holdings = scenario.platform.quotas.matrix()

    @classmethod
    def from_spec(cls, scenario: Scenario, spec: "ScenarioSpec") -> "MarketEconomySimulation":
        """The simulation of ``scenario`` with ``spec``'s run knobs applied.

        ``scenario`` is normally ``spec.build()``; it is taken separately so
        callers can inspect the freshly built economy before the first auction.
        """
        return cls(scenario, drift_scale=spec.drift_scale, preliminary_runs=spec.preliminary_runs)

    # -- single-period mechanics ----------------------------------------------------------
    def _market_view(self) -> MarketView:
        platform = self.scenario.platform
        return MarketView(
            index=platform.index,
            displayed_prices=dict(platform.displayed_prices),
            fixed_prices=dict(platform.fixed_prices),
            auction_number=self._auction_counter + 1,
            topology=self.scenario.fleet.topology,
        )

    def _refresh_agent_state(self) -> None:
        platform = self.scenario.platform
        agents = self.scenario.agents
        holdings = platform.quotas.holdings_maps(agent.name for agent in agents)
        for agent, held in zip(agents, holdings):
            if platform.ledger.has_account(agent.name):
                agent.budget = platform.ledger.balance(agent.name)
            agent.holdings = held

    def run_one_auction(self) -> AuctionPeriodResult:
        """Run a single complete auction period and record its facts."""
        platform = self.scenario.platform
        self._auction_counter += 1
        utilization_before = platform.index.utilizations().copy()

        # The demand current at this epoch (profiles grow between auctions);
        # the same covering bundles the baseline mechanisms would be fed, so
        # the shortage/surplus comparison is apples to apples.  Pure
        # inspection: no RNG is consumed, round traces are unaffected.
        epoch_demands = demands_from_agents(self.scenario.agents, platform.index)

        platform.open_bid_window()
        self._refresh_agent_state()
        view = self._market_view()
        for agent in self.scenario.agents:
            for bid in agent.prepare_bids(view):
                try:
                    platform.submit_bid(bid)
                except ValueError:
                    # Bids that fail budget/quota feasibility are rejected by the
                    # platform exactly as the real front end would refuse them.
                    continue
        for _ in range(self.preliminary_runs):
            platform.run_preliminary()
        record = platform.finalize_auction()
        settlement = record.result.settlement

        # Feed settlements back to the agents (learning across auctions).
        # Grouped once up front: a per-agent scan of the line list is
        # O(agents x lines), which at stress scale is billions of
        # comparisons; the grouping preserves each bidder's line order.
        lines_by_bidder: dict[str, list] = {}
        for line in settlement.lines:
            lines_by_bidder.setdefault(line.bidder, []).append(line)
        for agent in self.scenario.agents:
            agent.observe_settlement(lines_by_bidder.get(agent.name, []), view)

        # Project the outcome onto next period's utilization and refresh the platform.
        updated_index = apply_settlement_to_utilization(
            platform.index,
            settlement.total_allocated(),
            move_out_fraction=self.move_out_fraction,
        )
        updated_index = organic_drift(updated_index, rng=self.scenario.rng, drift_scale=self.drift_scale)
        platform.update_pool_index(updated_index)

        allocation = allocation_metrics(
            self._initial_index,
            "market",
            market_outcome_from_quota_delta(
                self._initial_index, epoch_demands, self._initial_holdings, platform.quotas
            ).blocks(),
        )
        period = AuctionPeriodResult(
            auction_number=self._auction_counter,
            record=record,
            premium=premium_stats(settlement, auction=self._auction_counter),
            utilization_before=utilization_before,
            utilization_after=updated_index.utilizations().copy(),
            fixed_prices=dict(platform.fixed_prices),
            allocation=allocation,
        )
        self.history.periods.append(period)
        return period

    # -- multi-period driver --------------------------------------------------------------------
    def run(self, auctions: int) -> EconomyHistory:
        """Run ``auctions`` periodic auctions, each after a spell of organic drift."""
        if auctions < 0:
            raise ValueError("auctions must be non-negative")
        platform = self.scenario.platform
        for _ in range(auctions):
            platform.update_pool_index(
                organic_drift(platform.index, rng=self.scenario.rng, drift_scale=self.drift_scale)
            )
            self.run_one_auction()
        return self.history
