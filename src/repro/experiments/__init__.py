"""Experiment drivers: one module per table / figure of the paper's evaluation.

Every driver exposes a ``run_*`` function returning a plain result object and a
``main()`` that prints the regenerated rows/series, so each experiment can be
run standalone (``python -m repro.experiments.figure6``) or from the benchmark
harness in ``benchmarks/``.  The economy drivers take a catalog
:class:`~repro.simulation.catalog.ScenarioSpec` (default: ``paper-reference``)
and run it through :meth:`MarketEconomySimulation.from_spec
<repro.simulation.economy.MarketEconomySimulation.from_spec>`, the same market
the scenario runner executes; the auction-only drivers share
:func:`first_auction_bids`.

| Paper artifact | Driver |
|----------------|--------|
| Figure 2 (weighting curves)              | :mod:`repro.experiments.figure2` |
| Figure 6 (price / fixed-price ratios)    | :mod:`repro.experiments.figure6` |
| Figure 7 (utilization of settled trades) | :mod:`repro.experiments.figure7` |
| Table I (bid premium statistics)         | :mod:`repro.experiments.table1` |
| Section III-C-4 (scaling claim)          | :mod:`repro.experiments.scaling` |
| Figure 1 / Algorithm 1 (clock rounds)    | :mod:`repro.experiments.clock_rounds` |
| Shortage/surplus vs. baselines           | :mod:`repro.experiments.baseline_comparison` |
| Increment-policy ablation                | :mod:`repro.experiments.ablation_increment` |
| Reserve-pricing ablation                 | :mod:`repro.experiments.ablation_reserve` |
"""

from __future__ import annotations

from repro.agents.base import MarketView
from repro.agents.population import PopulationSpec, build_population
from repro.cluster.fleet_gen import FleetSpec, generate_fleet
from repro.cluster.pools import PoolIndex
from repro.core.bids import Bid
from repro.market.services import default_catalog


def first_auction_bids(
    cluster_count: int, population: PopulationSpec, *, seed: int
) -> tuple[PoolIndex, list[Bid]]:
    """A fresh fleet and its teams' first-auction bids at the fixed prices.

    The auction-only drivers (scaling, clock rounds, increment ablation) use
    this instead of a catalog scenario: fleet and population each draw from
    their own ``seed`` rather than one shared generator.
    """
    fleet = generate_fleet(FleetSpec(cluster_count=cluster_count, machines_range=(20, 80)), seed=seed)
    agents = build_population(fleet, population, catalog=default_catalog(), seed=seed)
    index = fleet.pool_index
    view = MarketView(
        index=index,
        displayed_prices={p.name: p.unit_cost for p in index},
        fixed_prices=dict(fleet.fixed_prices),
        auction_number=1,
        topology=fleet.topology,
    )
    bids = []
    for agent in agents:
        bids.extend(agent.prepare_bids(view))
    return index, bids
