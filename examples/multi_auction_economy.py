#!/usr/bin/env python
"""Multi-auction economy: six periodic auctions with learning agents.

Reproduces the longitudinal structure of the paper's experiment (Section V-B/C)
by running the ``paper-reference`` scenario from the catalog: a ~34-cluster
fleet, ~100 engineering-team agents with a realistic mix of bidding
behaviours, and six periodic clock auctions with congestion-weighted reserve
prices.  Prints the Table I premium statistics, the Figure 7 migration
summary, and how the utilization spread across pools evolves.

Run with::

    python examples/multi_auction_economy.py

The same scenario (and its siblings — run ``python -m repro list``) is
available from the command line::

    python -m repro run paper-reference
"""

from __future__ import annotations

from repro.agents.population import strategy_counts
from repro.analysis.reports import render_boxplots, render_premium_table
from repro.analysis.utilization_stats import figure7_boxplots
from repro.simulation.catalog import get_scenario
from repro.simulation.economy import MarketEconomySimulation


def main() -> None:
    spec = get_scenario("paper-reference")
    scenario = spec.build()
    print(f"Scenario: {spec.name} — {spec.description}")
    print(
        f"  {len(scenario.fleet.clusters)} clusters, "
        f"{len(scenario.pool_index)} resource pools, {len(scenario.agents)} teams"
    )
    print("Strategy mix:", strategy_counts(scenario.agents))

    history = MarketEconomySimulation.from_spec(scenario, spec).run(spec.auctions)

    print()
    print(render_premium_table(history.premium_rows()))

    print("\nMedian bid premium per auction:", [round(x, 3) for x in history.median_premium_series()])
    print("Utilization spread after each auction:", [round(x, 3) for x in history.utilization_spread_series()])

    print("\nPooled settled trades across all auctions (Figure 7 view):")
    print(render_boxplots(figure7_boxplots(history.settlements())))

    last = history.periods[-1]
    print("\nLast auction migration summary:")
    for key, value in last.migration.items():
        print(f"  {key}: {value:.2f}")


if __name__ == "__main__":
    main()
