"""Population generation: building a fleet of team agents for an experiment.

The paper's experimental auctions had on the order of 100 bidders.  This
module builds a synthetic population of that scale: each team gets a home
cluster (biased towards congested clusters, since that is where teams
accumulate before the market exists), a demand profile drawn from the service
catalog, a budget endowment, starting quota equal to its current footprint,
and a strategy drawn from a configurable mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.agents.base import DemandProfile, TeamAgent
from repro.agents.learning import AdaptiveMarginModel
from repro.agents.relocation import RelocationCostModel
from repro.agents.strategies import (
    ArbitrageurStrategy,
    BiddingStrategy,
    FixedPriceAnchorStrategy,
    LowballStrategy,
    MarketTrackerStrategy,
    PremiumPayerStrategy,
    RelocatorStrategy,
    SellerStrategy,
)
from repro.agents.traits import ENDOWED_KINDS, AgentGenome, strategy_from_traits
from repro.cluster.fleet_gen import SyntheticFleet
from repro.market.services import ServiceCatalog, ServiceRequest, default_catalog


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters controlling population generation.

    ``strategy_mix`` gives the relative weight of each strategy kind; the
    defaults roughly match the behavioural mix the paper describes (most
    teams anchor on fixed prices early / track the market, a smaller set of
    relocators and sellers, a few premium payers, low-ballers, and
    arbitrageurs).

    ``roster`` switches the population from sampled to scripted: instead of
    drawing strategy kinds and parameters from ``strategy_mix``, each agent
    is built from an explicit :class:`~repro.agents.traits.AgentGenome`
    (name, kind, traits).  This is how tournament generations ride a
    :class:`~repro.simulation.catalog.ScenarioSpec` unchanged through every
    execution backend.  Demand profiles and home clusters are still drawn
    from the scenario rng, so two genomes in the same slot face identical
    market conditions.

    >>> spec = PopulationSpec(team_count=2, roster=(
    ...     AgentGenome(name="a", kind="lowball"),
    ...     AgentGenome(name="b", kind="seller"),
    ... ))
    >>> len(spec.roster)
    2
    """

    team_count: int = 100
    budget_per_team: float = 50_000.0
    #: Mean fraction of a congested cluster's footprint one team represents.
    demand_scale: float = 0.01
    congested_home_bias: float = 0.75
    strategy_mix: Mapping[str, float] = field(
        default_factory=lambda: {
            "fixed_anchor": 0.25,
            "market_tracker": 0.30,
            "relocator": 0.20,
            "premium_payer": 0.08,
            "seller": 0.10,
            "lowball": 0.04,
            "arbitrageur": 0.03,
        }
    )
    roster: tuple[AgentGenome, ...] | None = None

    def __post_init__(self) -> None:
        if self.team_count < 1:
            raise ValueError("team_count must be >= 1")
        if self.budget_per_team < 0:
            raise ValueError("budget_per_team must be non-negative")
        if not math.isfinite(self.congested_home_bias):
            raise ValueError("congested_home_bias must be finite")
        if not self.strategy_mix:
            raise ValueError("strategy_mix must not be empty")
        if not all(math.isfinite(weight) for weight in self.strategy_mix.values()):
            raise ValueError("strategy weights must be finite")
        if any(weight < 0 for weight in self.strategy_mix.values()):
            raise ValueError("strategy weights must be non-negative")
        if not 0 < sum(self.strategy_mix.values()) < math.inf:
            raise ValueError("strategy weights must sum to a finite positive value")
        if self.roster is not None:
            if len(self.roster) != self.team_count:
                raise ValueError(
                    f"roster has {len(self.roster)} genomes but team_count is {self.team_count}"
                )
            names = [genome.name for genome in self.roster]
            if len(set(names)) != len(names):
                raise ValueError("roster genome names must be unique")


def _choice_cdf(weights: np.ndarray, error: str) -> np.ndarray:
    """The CDF that ``Generator.choice`` draws from with ``p=weights / weights.sum()``.

    ``choice`` checks ``p`` and builds this CDF on every call.  A build checks
    the weights once, before it divides, and builds the CDF the same way:
    ``p.cumsum()``, then divided in place by its last element.  So
    ``cdf.searchsorted(rng.random(), side="right")`` picks the index ``choice``
    would, from the same stream value.  ``error`` is the ``ValueError`` text
    for weights that are not all non-negative with a finite positive sum.

    >>> _choice_cdf(np.array([1.0, 0.0, 3.0]), "bad weights").tolist()
    [0.25, 0.25, 1.0]
    """
    total = weights.sum()
    if not (np.isfinite(total) and total > 0 and np.all(weights >= 0)):
        raise ValueError(error)
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def _make_strategy(kind: str, rng: np.random.Generator) -> BiddingStrategy:
    seed = int(rng.integers(0, 2**31 - 1))
    strategy_rng = np.random.default_rng(seed)
    if kind == "fixed_anchor":
        return FixedPriceAnchorStrategy(margin=float(rng.uniform(0.4, 1.2)), rng=strategy_rng)
    if kind == "market_tracker":
        return MarketTrackerStrategy(
            margins=AdaptiveMarginModel(initial_margin=float(rng.uniform(0.2, 0.8))),
            alternatives=int(rng.integers(0, 3)),
            rng=strategy_rng,
        )
    if kind == "relocator":
        return RelocatorStrategy(
            relocation=RelocationCostModel(base_cost=float(rng.uniform(20, 120))),
            candidate_count=int(rng.integers(2, 6)),
            margins=AdaptiveMarginModel(initial_margin=float(rng.uniform(0.1, 0.5))),
        )
    if kind == "premium_payer":
        return PremiumPayerStrategy(premium=float(rng.uniform(1.0, 3.0)), rng=strategy_rng)
    if kind == "seller":
        return SellerStrategy(
            offer_fraction=float(rng.uniform(0.5, 0.9)),
            reserve_discount=float(rng.uniform(0.3, 0.7)),
        )
    if kind == "lowball":
        return LowballStrategy(fraction=float(rng.uniform(0.1, 0.5)), rng=strategy_rng)
    if kind == "arbitrageur":
        return ArbitrageurStrategy(rng=strategy_rng)
    raise KeyError(f"unknown strategy kind {kind!r}")


def build_population(
    fleet: SyntheticFleet,
    spec: PopulationSpec | None = None,
    *,
    catalog: ServiceCatalog | None = None,
    seed: int | np.random.Generator = 0,
) -> list[TeamAgent]:
    """Build a population of team agents homed on a synthetic fleet.

    Home clusters are drawn with probability proportional to utilization
    (raised by ``congested_home_bias``) so that, as in the real system, most
    existing workloads sit in the congested clusters and the market's job is
    to move them out.  Demand sizes scale with the home cluster's capacity.
    """
    spec = spec or PopulationSpec()
    catalog = catalog or default_catalog()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    clusters = fleet.cluster_names()
    cpu_utils = np.array(
        [fleet.pool_index.pool(f"{c}/cpu").utilization for c in clusters], dtype=float
    )
    home_cdf = _choice_cdf(
        spec.congested_home_bias * cpu_utils + (1 - spec.congested_home_bias),
        f"congested_home_bias={spec.congested_home_bias!r} gives home-cluster weights "
        "that are not all non-negative with a finite positive sum on this fleet",
    )

    def pick(options: list[str], cdf: np.ndarray) -> str:
        # The pick Generator.choice makes with p, from one rng.random() draw.
        return options[int(cdf.searchsorted(rng.random(), side="right"))]

    services = catalog.names()
    service_count = len(services)

    def draw_demand(home: str) -> DemandProfile:
        # Demand: one or two service requests sized as a fraction of the home cluster.
        home_cpu_capacity = fleet.pool_index.pool(f"{home}/cpu").capacity
        request_count = int(rng.integers(1, 3))
        requests = []
        for _ in range(request_count):
            # The pick Generator.choice makes without p: one integers(0, n) draw.
            service = services[int(rng.integers(0, service_count))]
            coverage_cpu = catalog.spec(service).coverage.cpu
            target_cpu = home_cpu_capacity * spec.demand_scale * float(rng.lognormal(0.0, 0.6))
            quantity = max(target_cpu / max(coverage_cpu, 1e-6), 1.0)
            requests.append(ServiceRequest(service=service, cluster=home, quantity=quantity))
        return DemandProfile(
            home_cluster=home,
            requests=requests,
            growth_rate=float(rng.uniform(0.0, 0.10)),
            mobile=bool(rng.random() < 0.75),
        )

    agents: list[TeamAgent] = []
    if spec.roster is not None:
        # Scripted path: kinds and strategy parameters come from the genomes;
        # only market conditions (home, demand) are drawn from the rng.
        for genome in spec.roster:
            home = pick(clusters, home_cdf)
            demand = draw_demand(home)
            strategy_seed = int(rng.integers(0, 2**31 - 1))
            agent = TeamAgent(
                name=genome.name,
                demand=demand,
                strategy=strategy_from_traits(genome.kind, genome.traits, seed=strategy_seed),
                catalog=catalog,
                budget=spec.budget_per_team,
            )
            if genome.kind in ENDOWED_KINDS:
                agent.holdings = demand.covering_bundle(catalog, fleet.pool_index, home)
            agents.append(agent)
        return agents

    kinds = list(spec.strategy_mix)
    kind_cdf = _choice_cdf(
        np.array([spec.strategy_mix[k] for k in kinds], dtype=float),
        "strategy_mix weights must be non-negative with a finite positive sum",
    )

    for i in range(spec.team_count):
        home = pick(clusters, home_cdf)
        kind = pick(kinds, kind_cdf)
        demand = draw_demand(home)
        agent = TeamAgent(
            name=f"team-{i:03d}",
            demand=demand,
            strategy=_make_strategy(kind, rng),
            catalog=catalog,
            budget=spec.budget_per_team,
        )
        # Sellers and arbitrageurs need starting holdings to offer: endow them
        # with quota equal to their current footprint in their home cluster.
        if kind in ("seller", "arbitrageur"):
            agent.holdings = demand.covering_bundle(catalog, fleet.pool_index, home)
        agents.append(agent)
    return agents


def strategy_counts(agents: list[TeamAgent]) -> dict[str, int]:
    """How many agents use each strategy class (for reporting)."""
    counts: dict[str, int] = {}
    for agent in agents:
        name = type(agent.strategy).__name__
        counts[name] = counts.get(name, 0) + 1
    return counts
