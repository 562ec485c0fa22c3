"""The scenario catalog: named, declarative presets for whole economies.

The paper's findings — falling premiums, load migration out of congested
clusters, price signals for capacity planning — only show up across *many*
auction epochs and many workload mixes.  This module turns "an experiment"
into a first-class value: a :class:`ScenarioSpec` composes a
:class:`~repro.cluster.fleet_gen.FleetSpec`, a
:class:`~repro.agents.population.PopulationSpec`, and the auction knobs
(including the demand-engine selection) with a run length, and a registry maps
memorable names to curated presets.

Catalog presets
---------------

========================  ======================================================
``paper-reference``       The paper's experimental market: ~100 bidders over
                          ~100 resource pools (34 clusters x 3 dimensions),
                          six periodic auctions.
``congested-fleet``       Every cluster congested; the market rations instead
                          of migrating.
``trader-heavy``          Sellers and arbitrageurs dominate; deep two-sided
                          order books.
``flash-crowd``           A sudden demand surge: oversized requests, premium
                          payers, deep budgets.
``idle-fleet-migration``  Mostly idle fleet and relocator-heavy teams; load
                          should drain out of the few busy clusters.
``10k-bidder-stress``     10 000 bidders on the incremental demand engine —
                          the smoke-tier stress scale (tagged ``stress``;
                          excluded from the default sweep).
``100k-bidder-stress``    100 000 bidders on the sharded demand engine — the
                          full stress scale the benchmarks track (tagged
                          ``stress``; excluded from the default sweep).
``smoke``                 The reduced scale used by unit tests and CI smoke
                          runs.
========================  ======================================================

Usage:

>>> from repro.simulation.catalog import get_scenario, scenario_names
>>> "paper-reference" in scenario_names()
True
>>> spec = get_scenario("paper-reference")
>>> spec.config.population.team_count, spec.auctions
(100, 6)
>>> spec.with_overrides(auctions=2, seed=7).auctions
2
>>> len(default_sweep_names()) >= 6
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro.agents.population import PopulationSpec
from repro.agents.tournament import TournamentConfig
from repro.cluster.fleet_gen import FleetSpec, congested_fleet_spec, idle_fleet_spec
from repro.cluster.resources import RESOURCE_TYPES
from repro.simulation.scenario import Scenario, ScenarioConfig, build_scenario

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative description of one multi-auction economy.

    ``config`` carries everything :func:`~repro.simulation.scenario.build_scenario`
    needs (fleet, population, reserve weighting, demand engine, seed); the
    remaining fields describe how the economy is *run* — how many periodic
    auctions, how strong the organic utilization drift between them is, and
    how many non-binding preliminary rounds precede each binding auction.

    >>> spec = ScenarioSpec(name="tiny", description="two-cluster toy",
    ...     config=ScenarioConfig(fleet=FleetSpec(cluster_count=2, sites=1,
    ...                                           machines_range=(5, 10)),
    ...                           population=PopulationSpec(team_count=4)),
    ...     auctions=1)
    >>> spec.with_overrides(seed=3).config.seed
    3
    """

    name: str
    description: str
    config: ScenarioConfig
    #: Number of periodic binding auctions to run.
    auctions: int = 6
    #: Organic utilization drift between auctions (see ``organic_drift``).
    drift_scale: float = 0.015
    #: Non-binding preliminary runs before each binding auction.
    preliminary_runs: int = 0
    #: Allocation mechanism the run uses: ``market`` (default) or a baseline
    #: policy name from :mod:`repro.mechanisms` (``fixed-price``, ``priority``,
    #: ``proportional``).  Stored as a plain name so specs stay picklable; the
    #: runner resolves it against the mechanism registry inside the worker.
    mechanism: str = "market"
    #: Free-form labels; ``stress`` excludes a scenario from the default sweep.
    tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"scenario name {self.name!r} must be kebab-case ([a-z0-9-], starting alphanumeric)"
            )
        if not _NAME_RE.match(self.mechanism):
            raise ValueError(
                f"scenario {self.name!r}: mechanism {self.mechanism!r} must be a "
                "kebab-case mechanism name"
            )
        if not self.description.strip():
            raise ValueError(f"scenario {self.name!r} needs a description")
        if self.auctions < 1:
            raise ValueError(f"scenario {self.name!r}: auctions must be >= 1")
        if self.drift_scale < 0:
            raise ValueError(f"scenario {self.name!r}: drift_scale must be non-negative")
        if self.preliminary_runs < 0:
            raise ValueError(f"scenario {self.name!r}: preliminary_runs must be non-negative")

    def with_overrides(
        self,
        *,
        auctions: int | None = None,
        seed: int | None = None,
        engine: str | None = None,
        drift_scale: float | None = None,
        mechanism: str | None = None,
    ) -> "ScenarioSpec":
        """A copy with the run-time knobs the CLI exposes replaced."""
        config = self.config
        if seed is not None:
            config = replace(config, seed=seed)
        if engine is not None:
            config = replace(config, auction_engine=engine)
        return replace(
            self,
            config=config,
            auctions=self.auctions if auctions is None else auctions,
            drift_scale=self.drift_scale if drift_scale is None else drift_scale,
            mechanism=self.mechanism if mechanism is None else mechanism,
        )

    def build(self) -> Scenario:
        """Materialise the scenario: fleet, population, registered platform."""
        return build_scenario(self.config)

    #: Static cost discount for non-market mechanisms: baselines skip price
    #: discovery entirely, so an epoch costs a small fraction of a market
    #: auction's clock rounds.  Only the *ranking* matters (see
    #: :meth:`cost_estimate`); measured wall times from the result store
    #: override this estimate when available.
    BASELINE_COST_FACTOR = 0.05

    def cost_estimate(self) -> float:
        """Relative runtime weight of this scenario (bidders x auctions x pools).

        The estimate only has to *rank* scenarios: the parallel runner submits
        the heaviest jobs first so a long-running stress scenario starts
        immediately instead of serialising behind a queue of quick ones
        (longest-job-first tightens the pool's makespan).  Baseline-mechanism
        runs are discounted by :data:`BASELINE_COST_FACTOR` — they allocate in
        one pass instead of iterating clock rounds.

        >>> get_scenario("10k-bidder-stress").cost_estimate() > get_scenario("smoke").cost_estimate()
        True
        >>> spec = get_scenario("paper-reference")
        >>> spec.with_overrides(mechanism="priority").cost_estimate() < spec.cost_estimate()
        True
        """
        pools = self.config.fleet.cluster_count * len(RESOURCE_TYPES)
        weight = float(self.config.population.team_count * self.auctions * pools)
        if self.mechanism != "market":
            weight *= self.BASELINE_COST_FACTOR
        return weight

    def cost_key(self) -> tuple[str, str, str, int]:
        """The result-store key measured wall times are looked up under.

        Includes the engine and auction count alongside the scenario and
        mechanism: a one-auction smoke of a heavy scenario, or a scalar-engine
        run of a batch-engine workload, is not a valid cost measurement for
        the full job and must not poison sweep ordering.
        """
        return (self.name, self.mechanism, self.config.auction_engine, self.auctions)

    def summary(self) -> dict[str, object]:
        """The scalar facts ``python -m repro list`` displays."""
        return {
            "name": self.name,
            "clusters": self.config.fleet.cluster_count,
            "teams": self.config.population.team_count,
            "auctions": self.auctions,
            "engine": self.config.auction_engine,
            "mechanism": self.mechanism,
            "seed": self.config.seed,
            "tags": sorted(self.tags),
            "description": self.description,
        }


#: The registry: scenario name -> spec.  Populated by :func:`register_scenario`.
SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the catalog; rejects duplicate names.

    Returns the spec so presets can be registered at definition site.
    """
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name; unknown names list what *is* available."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; available: {known}") from None


def default_sweep_names() -> list[str]:
    """The scenarios ``python -m repro sweep`` runs by default.

    Everything in the catalog except scenarios tagged ``stress`` (an order
    of magnitude heavier than the rest; ask for those explicitly, via
    ``sweep --all`` or ``run <name>``).
    """
    return [name for name in scenario_names() if "stress" not in SCENARIOS[name].tags]


# ---------------------------------------------------------------------------
# Curated presets.
# ---------------------------------------------------------------------------

#: The paper's experimental market: "around 100 bidders and 100 system-level
#: resources" (Section III-C-4) — 34 clusters x 3 resource dimensions = 102
#: pools, 100 teams, six periodic auctions.  The default scenario of the
#: experiment drivers in :mod:`repro.experiments`.
PAPER_REFERENCE = register_scenario(
    ScenarioSpec(
        name="paper-reference",
        description="The paper's market: 100 bidders x ~100 pools, 6 auctions",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=34, machines_range=(50, 400)),
            population=PopulationSpec(team_count=100, budget_per_team=50_000.0),
            seed=2009,
        ),
        auctions=6,
        tags=frozenset({"paper"}),
    )
)

register_scenario(
    ScenarioSpec(
        name="congested-fleet",
        description="Every cluster congested: rationing, not migration",
        config=ScenarioConfig(
            fleet=congested_fleet_spec(),
            population=PopulationSpec(
                team_count=90,
                budget_per_team=60_000.0,
                congested_home_bias=0.9,
            ),
            seed=2009,
        ),
        auctions=6,
        tags=frozenset({"fleet"}),
    )
)

register_scenario(
    ScenarioSpec(
        name="trader-heavy",
        description="Sellers and arbitrageurs dominate the order book",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=30, machines_range=(50, 300)),
            population=PopulationSpec(
                team_count=90,
                budget_per_team=50_000.0,
                strategy_mix={
                    "seller": 0.30,
                    "arbitrageur": 0.15,
                    "market_tracker": 0.25,
                    "fixed_anchor": 0.10,
                    "relocator": 0.10,
                    "premium_payer": 0.05,
                    "lowball": 0.05,
                },
            ),
            seed=2009,
        ),
        auctions=6,
        tags=frozenset({"population"}),
    )
)

register_scenario(
    ScenarioSpec(
        name="flash-crowd",
        description="Sudden demand surge: oversized requests, premium payers",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=24, machines_range=(50, 300)),
            population=PopulationSpec(
                team_count=120,
                budget_per_team=150_000.0,
                demand_scale=0.04,
                congested_home_bias=0.9,
                strategy_mix={
                    "premium_payer": 0.30,
                    "market_tracker": 0.30,
                    "fixed_anchor": 0.20,
                    "relocator": 0.15,
                    "lowball": 0.05,
                },
            ),
            seed=2009,
        ),
        auctions=4,
        drift_scale=0.03,
        tags=frozenset({"population"}),
    )
)

register_scenario(
    ScenarioSpec(
        name="idle-fleet-migration",
        description="Mostly idle fleet; relocators drain the busy clusters",
        config=ScenarioConfig(
            fleet=idle_fleet_spec(),
            population=PopulationSpec(
                team_count=80,
                budget_per_team=50_000.0,
                congested_home_bias=0.95,
                strategy_mix={
                    "relocator": 0.45,
                    "market_tracker": 0.25,
                    "fixed_anchor": 0.10,
                    "seller": 0.15,
                    "lowball": 0.05,
                },
            ),
            seed=2009,
        ),
        auctions=6,
        tags=frozenset({"migration"}),
    )
)

register_scenario(
    ScenarioSpec(
        name="10k-bidder-stress",
        description="10 000 bidders on the incremental engine (smoke-tier stress scale)",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=34, machines_range=(100, 400)),
            population=PopulationSpec(
                team_count=10_000,
                budget_per_team=20_000.0,
                demand_scale=0.001,
            ),
            auction_engine="incremental",
            seed=2009,
        ),
        auctions=2,
        tags=frozenset({"stress"}),
    )
)

#: The full stress scale: 100k bidders whose strategies stay in their home
#: cluster, so the bid matrix decomposes into one independent shard per
#: cluster and the sharded engine's per-shard price discovery pays off.
register_scenario(
    ScenarioSpec(
        name="100k-bidder-stress",
        description="100 000 bidders on the sharded engine (full stress scale)",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=34, machines_range=(100, 400)),
            population=PopulationSpec(
                team_count=100_000,
                budget_per_team=20_000.0,
                demand_scale=0.0001,
                strategy_mix={
                    "fixed_anchor": 0.45,
                    "premium_payer": 0.20,
                    "lowball": 0.20,
                    "seller": 0.15,
                },
            ),
            auction_engine="sharded",
            seed=2009,
        ),
        auctions=1,
        tags=frozenset({"stress"}),
    )
)

#: The reduced scale the unit tests and CI smoke runs use.
SMOKE = register_scenario(
    ScenarioSpec(
        name="smoke",
        description="Reduced scale for unit tests and CI smoke runs",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=8, machines_range=(10, 40)),
            population=PopulationSpec(team_count=24, budget_per_team=200_000.0),
            seed=2009,
        ),
        auctions=3,
        tags=frozenset({"ci"}),
    )
)


# ---------------------------------------------------------------------------
# Tournament presets: evolving-population runs layered on the scenarios above.
# ---------------------------------------------------------------------------

#: The registry: tournament name -> config.  Populated by
#: :func:`register_tournament`; names must not collide with scenario names
#: because generation runs are stored under ``<tournament>-g<N>``.
TOURNAMENTS: dict[str, TournamentConfig] = {}


def register_tournament(config: TournamentConfig) -> TournamentConfig:
    """Add a tournament preset; rejects duplicate names.

    >>> register_tournament(get_tournament("paper-tournament"))
    Traceback (most recent call last):
    ...
    ValueError: tournament 'paper-tournament' is already registered
    """
    if config.name in TOURNAMENTS:
        raise ValueError(f"tournament {config.name!r} is already registered")
    if config.base_scenario not in SCENARIOS:
        raise ValueError(
            f"tournament {config.name!r}: unknown base scenario {config.base_scenario!r}"
        )
    TOURNAMENTS[config.name] = config
    return config


def tournament_names() -> list[str]:
    """All registered tournament names, sorted.

    >>> "paper-tournament" in tournament_names()
    True
    """
    return sorted(TOURNAMENTS)


def get_tournament(name: str) -> TournamentConfig:
    """Look up a tournament by name; unknown names list what *is* available."""
    try:
        return TOURNAMENTS[name]
    except KeyError:
        known = ", ".join(tournament_names())
        raise KeyError(f"unknown tournament {name!r}; available: {known}") from None


#: The headline tournament: five generations of the paper's market, three
#: replicate seeds per generation.  The tier-1 acceptance test asserts its
#: mean bid premium falls 95%-CI-separated from generation 0 to the final
#: generation — the paper's live-deployment finding as a tested emergent
#: property.
PAPER_TOURNAMENT = register_tournament(
    TournamentConfig(
        name="paper-tournament",
        description="5 evolving generations of the paper's 100-bidder market",
        base_scenario="paper-reference",
        generations=5,
        replicates=3,
    )
)

#: Reduced scale for CI smoke runs (`make smoke`) and quick local checks.
register_tournament(
    TournamentConfig(
        name="smoke-tournament",
        description="2 quick generations at smoke scale for CI",
        base_scenario="smoke",
        generations=2,
        replicates=2,
    )
)
