"""Shortages, surpluses, and utilization balance: market vs traditional allocation.

The paper's motivation (Section I) is that manual quota policies produce
"uneven utilization, significant shortages and surpluses in certain resource
pools"; its conclusion claims the market produced "significant improvements in
overall utilization".  This experiment quantifies that on a common workload:
the same per-team demands are run through the four baseline policies
(fixed-price, priority, proportional and lottery) and through the market, and
the shortage / surplus / balance metrics are compared.

This module is a thin one-shot wrapper over the allocation-mechanism layer
(:mod:`repro.mechanisms`): each registered baseline policy is applied once
against the scenario's initial fleet (see
:func:`~repro.mechanisms.baseline.one_shot_outcomes`).
For the longitudinal version of the same comparison — every mechanism driven
through per-epoch trajectories, persisted with provenance, and compared with
replicate statistics — run ``python -m repro sweep --mechanism all`` followed
by ``python -m repro compare-mechanisms <scenario>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.allocation import (
    AllocationMetrics,
    allocation_metrics,
    demand_matrix,
    market_outcome_from_quota_delta,
    row_blocks,
)
from repro.analysis.settlement_stats import utilization_balance_improvement
from repro.mechanisms.baseline import one_shot_outcomes
from repro.simulation.catalog import ScenarioSpec, get_scenario
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.workload import demands_from_agents, priorities_from_agents


@dataclass(frozen=True)
class BaselineComparisonResult:
    """Metrics per policy plus the market's utilization-balance improvement."""

    metrics: dict[str, AllocationMetrics]
    balance: dict[str, float]

    def market(self) -> AllocationMetrics:
        return self.metrics["market"]

    def baseline(self, policy: str) -> AllocationMetrics:
        return self.metrics[policy]


def run_baseline_comparison(
    spec: ScenarioSpec = get_scenario("paper-reference"), *, market_auctions: int | None = None
) -> BaselineComparisonResult:
    """Compare the market against the four traditional allocation baselines.

    The baselines are one-shot policies; the market is given
    ``market_auctions`` periodic auctions (default: the spec's auction
    count) because teams that lose one auction learn and return with better
    bids — that iteration *is* the mechanism.  The market's provisioning is
    then the cumulative quota acquired across those auctions.
    """
    scenario = spec.build()
    index = scenario.pool_index
    demands = demands_from_agents(scenario.agents, index)
    priorities = priorities_from_agents(scenario.agents, seed=scenario.rng)
    metrics = {
        policy: allocation_metrics(index, policy, row_blocks(requested, granted))
        for policy, requested, granted in one_shot_outcomes(
            scenario,
            demand_matrix(index, list(demands.items())),
            np.array([priorities.get(team, 0) for team in demands], dtype=int),
        )
    }

    initial_holdings = scenario.platform.quotas.matrix()
    history = MarketEconomySimulation.from_spec(scenario, spec).run(
        market_auctions if market_auctions is not None else spec.auctions
    )
    metrics["market"] = allocation_metrics(
        index,
        "market",
        market_outcome_from_quota_delta(
            index, demands, initial_holdings, scenario.platform.quotas
        ).blocks(),
    )
    balance = utilization_balance_improvement(history.periods[0].settlement)
    return BaselineComparisonResult(metrics=metrics, balance=balance)


def main() -> None:  # pragma: no cover - CLI entry point
    from repro.analysis.reports import render_table

    result = run_baseline_comparison()
    rows = [
        [
            name,
            metric.shortage_cost,
            metric.surplus_cost,
            metric.utilization_spread,
            metric.satisfied_fraction,
            metric.grant_rate,
        ]
        for name, metric in result.metrics.items()
    ]
    print(
        render_table(
            ["policy", "shortage $", "surplus $", "util spread", "satisfied", "grant rate"],
            rows,
            title="Market vs traditional allocation",
            float_format="{:.3f}",
        )
    )
    print()
    print("utilization balance:", {k: round(v, 4) for k, v in result.balance.items()})


if __name__ == "__main__":  # pragma: no cover
    main()
