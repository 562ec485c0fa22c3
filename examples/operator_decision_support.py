#!/usr/bin/env python
"""Operator decision support: turning auction price signals into capacity plans.

The paper frames the final prices as signals to the operator: a persistent
premium over cost in a pool means a shortage the operator should address by
adding capacity, while pools that clear below cost with low utilization are
candidates for reclamation.  This example runs one auction over a synthetic
fleet, prints the capacity recommendations derived from the price signals,
applies the "grow" recommendations, re-runs the auction on the expanded
fleet, and shows how the congestion premium relaxes.

Run with::

    python examples/operator_decision_support.py
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import MarketView
from repro.agents.population import PopulationSpec, build_population
from repro.cluster.fleet_gen import FleetSpec, generate_fleet
from repro.core import CombinatorialExchange
from repro.market import (
    CapacityAction,
    apply_recommendations,
    recommend_capacity_actions,
    summarize_actions,
)
from repro.market.services import default_catalog


def collect_bids(fleet, index, seed=0, team_count=60):
    catalog = default_catalog()
    agents = build_population(fleet, PopulationSpec(team_count=team_count), catalog=catalog, seed=seed)
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
    return bids


def congestion_premium(result, index):
    ratios = result.outcome.final_prices / np.maximum(index.unit_costs(), 1e-9)
    hot = [ratios[i] for i, p in enumerate(index) if p.utilization > 0.75]
    return float(np.mean(hot)) if hot else 1.0


def main() -> None:
    fleet = generate_fleet(FleetSpec(cluster_count=16, machines_range=(20, 80)), seed=17)
    index = fleet.pool_index
    bids = collect_bids(fleet, index, seed=17)

    result = CombinatorialExchange(index).run(bids)
    recommendations = recommend_capacity_actions(result)
    print("Capacity recommendations after auction #1:", summarize_actions(recommendations))
    for rec in recommendations:
        if rec.action is not CapacityAction.HOLD:
            print(f"  {rec.pool:<18} {rec.action.value:<8} delta={rec.suggested_delta:>12.0f}  ({rec.reason})")

    before = congestion_premium(result, index)
    expanded = apply_recommendations(index, recommendations, only=CapacityAction.GROW)
    result_after = CombinatorialExchange(expanded).run(bids)
    after = congestion_premium(result_after, expanded)
    print(f"\nMean price/cost ratio in congested pools: {before:.2f}x before build-out, {after:.2f}x after")


if __name__ == "__main__":
    main()
