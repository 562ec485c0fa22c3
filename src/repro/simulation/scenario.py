"""Scenario assembly: fleet + agent population + trading platform.

A scenario bundles every knob an experiment needs.  The defaults match the
scale of the paper's experimental market: ~34 clusters, ~100 bidders, CPU/RAM/
disk pools, congestion-weighted reserve prices from the phi_1 curve of
Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.base import TeamAgent
from repro.agents.population import PopulationSpec, build_population
from repro.cluster.fleet_gen import FleetSpec, SyntheticFleet, generate_fleet
from repro.core.clock_auction import AuctionConfig
from repro.core.increment import default_increment
from repro.core.reserve import PAPER_PHI_1, ReservePricer, WeightingFunction
from repro.market.platform import TradingPlatform
from repro.market.services import ServiceCatalog, default_catalog


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of one experiment scenario."""

    fleet: FleetSpec = field(default_factory=FleetSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    weighting: WeightingFunction = PAPER_PHI_1
    #: Demand-collection engine for every auction in the scenario, as
    #: reports label it: "auto" (default) and "batch" run the batch engine,
    #: "scalar" the reference proxy loop — see
    #: :attr:`repro.core.clock_auction.AuctionConfig.engine`.  Two retired
    #: labels still name the stress presets' engine; they run batch too (see
    #: :func:`build_scenario`).
    auction_engine: str = "auto"
    seed: int = 0


@dataclass
class Scenario:
    """A fully built scenario ready to simulate."""

    config: ScenarioConfig
    fleet: SyntheticFleet
    agents: list[TeamAgent]
    platform: TradingPlatform
    catalog: ServiceCatalog
    rng: np.random.Generator

    @property
    def pool_index(self):
        """The platform's current pool index."""
        return self.platform.index


def build_scenario(config: ScenarioConfig | None = None) -> Scenario:
    """Build a scenario from a config: fleet, agents, and a registered platform."""
    config = config or ScenarioConfig()
    # "auto" is the default label and the stress presets still carry two
    # retired engine labels, because bench/pins.json hashes canonical
    # reports and a report records its engine label.  All three run batch;
    # the retired two go when a benchmark change re-pins those reports.
    engine = config.auction_engine
    if engine in ("auto", "incremental", "sharded"):
        engine = "batch"
    rng = np.random.default_rng(config.seed)
    fleet = generate_fleet(config.fleet, seed=rng)
    catalog = default_catalog()
    agents = build_population(fleet, config.population, catalog=catalog, seed=rng)

    platform = TradingPlatform(
        fleet.pool_index,
        catalog=catalog,
        weighting=ReservePricer(weighting=config.weighting),
        increment=default_increment(fleet.pool_index.capacities()),
        auction_config=AuctionConfig(engine=engine),
        # The operator sells 0.9 of each pool's free capacity and keeps a
        # tenth out of the market.  Every scenario runs with this value, and
        # the pinned reports depend on it.
        operator_supply_fraction=0.9,
        fixed_prices=fleet.fixed_prices,
    )
    for agent in agents:
        platform.register_team(agent.name, budget=agent.budget, initial_quota=agent.holdings or None)
    return Scenario(
        config=config,
        fleet=fleet,
        agents=agents,
        platform=platform,
        catalog=catalog,
        rng=rng,
    )


def small_scenario(*, seed: int = 0, team_count: int = 24, cluster_count: int = 8) -> Scenario:
    """A scaled-down scenario for tests and quick examples."""
    return build_scenario(
        ScenarioConfig(
            fleet=FleetSpec(cluster_count=cluster_count, sites=3, machines_range=(10, 40)),
            population=PopulationSpec(team_count=team_count, budget_per_team=200_000.0),
            seed=seed,
        )
    )
